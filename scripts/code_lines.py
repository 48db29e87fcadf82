#!/usr/bin/env python3
"""Count the lines of the logklab package that hold code.

    python3 scripts/code_lines.py

prints one row per module of src/logklab, then their total: the physical
lines that hold a token of code. Blank lines, comment-only lines and the
lines of docstrings (the first statement of a module, class or function
body, when it is a string) are not counted; every line of a statement that
spans several lines is.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logklab"

# Tokens that hold no code: comments, line ends, indentation and the stream's ends.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
# The nodes that may open with a docstring.
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    if sys.argv[1:]:
        sys.exit(__doc__)
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>5}")
    print(f"{'total':<{width}} {sum(counts.values()):>5}")


if __name__ == "__main__":
    main()
