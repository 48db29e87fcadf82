#!/usr/bin/env python3
"""Count the lines of the logklab package that hold code, and its AST nodes.

    python3 scripts/code_lines.py

prints one row per module of src/logklab, then their total: the physical
lines that hold a token of code, and the nodes of the module's syntax tree.
Blank lines, comment-only lines and the lines of docstrings (the first
statement of a module, class or function body, when it is a string) are not
counted; every line of a statement that spans several lines is. The nodes
are what the interpreter compiles when it loads the module without a
bytecode cache, so the rows of the modules a subcommand loads add up to
what its process compiles.
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


def ast_nodes(source: str) -> int:
    """The number of nodes of source's syntax tree, docstrings included."""
    return sum(1 for _ in ast.walk(ast.parse(source)))


def main() -> None:
    if sys.argv[1:]:
        sys.exit(__doc__)
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        counts[path.name] = (code_lines(source), ast_nodes(source))
    width = max(map(len, counts))
    print(f"{'module':<{width}} {'lines':>5} {'nodes':>6}")
    for name, (lines, nodes) in counts.items():
        print(f"{name:<{width}} {lines:>5} {nodes:>6}")
    lines, nodes = map(sum, zip(*counts.values()))
    print(f"{'total':<{width}} {lines:>5} {nodes:>6}")


if __name__ == "__main__":
    main()
