#!/usr/bin/env python3
"""Count the lines of the logklab package that hold code, and its AST nodes,
in all and on each subcommand's route.

    python3 scripts/code_lines.py

prints one row per module of src/logklab, then their total: the physical
lines that hold a token of code, and the nodes of the module's syntax tree.
Blank lines, comment-only lines and the lines of docstrings (the first
statement of a module, class or function body, when it is a string) are not
counted; every line of a statement that spans several lines is. The nodes
are what the interpreter compiles when it loads the module without a
bytecode cache.

After a blank line it prints one row per route of ROUTES: the nodes of the
logklab modules that a fresh `python -X importtime -m logklab.cli ARGV`
process imports for the route's fixed ARGV (route_imports), plus cli.py,
which runs as __main__ and so is missing from that report (route_nodes).
That is what the process compiles of logklab.
"""

import ast
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "logklab"
sys.path.insert(0, str(ROOT / "bench"))
from workloads import _explicit_pair_file  # noqa: E402  (bench/ is not a package)

_ALPHAS = ("--alpha-L", "1/3", "--alpha-LD", "1/2")
# One argv per subcommand route, each exiting 0 on a catalog pair, on
# CRITERIA_FILE or on PAIR_FILE, which route_imports writes to the process's
# directory. PAIR_FILE is the explicit model of P^2 that the benchmark's
# oracle-recount workload sums (floor 0), read by the pair-file reader.
CRITERIA_FILE, PAIR_FILE = "criteria.json", "pair.json"
ROUTES = {
    "catalog list": ("catalog", "list"),
    "catalog show": ("catalog", "show", "P2-line"),
    "info": ("info", "catalog:P2-line"),
    "scalar": ("scalar", "catalog:P2-line", "--beta", "1/2"),
    "thresholds": ("thresholds", "catalog:P2-line", *_ALPHAS),
    "window": ("window", "catalog:P2-line", "--m", "4", "--case", "uniform", *_ALPHAS),
    "eta": ("eta", "catalog:P2-line", "--m", "4", "--beta", "5/16", *_ALPHAS),
    "entropy": ("entropy", "catalog:P2-line", "--beta", "1", "--entropy-lower", "100",
                *_ALPHAS),
    "df": ("df", "catalog:P2-line", "--c", "1/2", "--beta", "1/2"),
    "df-curve": ("df-curve", "catalog:P2-line", "--beta", "1/2", "--steps", "3"),
    "destabilize": ("destabilize", "catalog:P2-line", "--beta", "15/16"),
    "critical-c": ("critical-c", "catalog:P2-line", "--beta", "1/2", "--tol", "1/1024"),
    "oracle": ("oracle", "catalog:P2-line", "--c", "1/2", "--kmax", "4"),
    "oracle file": ("oracle", PAIR_FILE, "--c", "1/2"),
    "criteria": ("criteria", "--file", CRITERIA_FILE),
}
# A module line of an -X importtime report: its name, indented by its depth.
_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+\d+ \|\s*(\S+)$", re.M)

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


def imported(*args, cwd=None) -> tuple[subprocess.CompletedProcess, set[str]]:
    """(the process, the names of every module it imported, logklab's and
    others alike) of a fresh `python -X importtime ARGS` with src on
    PYTHONPATH, read from its -X importtime report."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=120)
    return proc, set(_IMPORT_LINE.findall(proc.stderr))


def route_imports(argv) -> set[str]:
    """The names of every module a fresh `python -m logklab.cli ARGV` process
    imports, as imported reads them. The process runs in a scratch directory
    holding CRITERIA_FILE and PAIR_FILE; an exit code other than 0 is a
    RuntimeError."""
    with tempfile.TemporaryDirectory() as scratch:
        Path(scratch, CRITERIA_FILE).write_text(json.dumps(
            {"Sbeta": "-3", "alpha_beta": "0", "n": 2, "is_lc": True, "bullet2_nef": True}))
        Path(scratch, PAIR_FILE).write_bytes(_explicit_pair_file(0)[1])
        proc, modules = imported("-m", "logklab.cli", *argv, cwd=scratch)
    if proc.returncode != 0:
        raise RuntimeError(f"logklab {' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    return modules


def route_nodes(modules) -> int:
    """The AST nodes of logklab that a `python -m logklab.cli` process which
    imported modules (route_imports) compiles: those of the logklab modules
    among them and of cli.py."""
    files = {"cli.py"} | {f"{name.partition('.')[2] or '__init__'}.py"
                          for name in modules if name.partition(".")[0] == "logklab"}
    return sum(ast_nodes((PACKAGE / name).read_text(encoding="utf-8")) for name in files)


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
    width = max(map(len, ROUTES))
    print(f"\n{'route':<{width}} {'nodes':>6}")
    for route, argv in ROUTES.items():
        print(f"{route:<{width}} {route_nodes(route_imports(argv)):>6}")


if __name__ == "__main__":
    main()
