import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _run(script, *args):
    """The script in a process that imports logklab from this checkout."""
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )


def test_oracle_sweep_runs():
    proc = _run("oracle_sweep.py", "--convergence-k", "8")
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
    assert "J^NA(P2-line, c=1/2) = 5/24" in proc.stdout


def test_oracle_sweep_denominator_table():
    proc = _run("oracle_sweep.py", "--denominators", "7", "100")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[:3] == ["pair", "c", "seconds"]
    # One row per catalog model (P2, P3, P4, P1xP1) and denominator.
    assert len(rows) == 8
    assert [row.split()[1] for row in rows[:2]] == ["6/7", "93/100"]


def test_oracle_sweep_dimension_table():
    proc = _run("oracle_sweep.py", "--dimensions", "4", "8")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["N", "s", "c=1/2", "slope", "s", "c=99/100", "slope",
                              "reports", "sha256"]
    # One row per N; the first has no previous row to take a slope from.
    assert [len(row.split()) for row in rows] == [4, 6]
    assert [row.split()[0] for row in rows] == ["4", "8"]
    assert all(re.fullmatch(r"[0-9a-f]{14}", row.split()[-1]) for row in rows)


@pytest.mark.parametrize("args, message", [
    (("--dimensions", "4", "513"), "--dimensions: N must be in 2..512, got 513"),
    (("--dimensions", "1"), "--dimensions: N must be in 2..512, got 1"),
    (("--denominators", "7", "1"), "--denominators: Q must be at least 2, got 1"),
])
def test_oracle_sweep_refuses_knobs_out_of_range(args, message):
    proc = _run("oracle_sweep.py", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith(f"error: {message}\n")


def test_compare_outputs_shows_the_new_bytes_under_each_added_or_changed_key():
    sys.path.insert(0, str(SCRIPTS))
    from compare_outputs import changes, entry, excerpt

    long_line = "1/" + "7" * 198
    runs = {"same": (0, b"x\n", b""), "changed": (0, b"window: (0, 1/4)\n", b""),
            "added": (2, b"a\nb\nc\nd\ne\n", f"{long_line}\n".encode())}
    old = {"same": entry(0, b"x\n", b""), "changed": entry(0, b"window: (0, 1/4]\n", b""),
           "removed": entry(3, b"", b"input error: x\n")}
    new = {key: entry(*outcome) for key, outcome in runs.items()}
    lines = changes(old, new, {key: excerpt(*outcome) for key, outcome in runs.items()})
    assert "\n".join(lines).splitlines() == [
        "ADDED: added", "    exit 2", "    stdout: a", "    stdout: b", "    stdout: c",
        "    stdout: ... 2 more lines", f"    stderr: {long_line[:160]}... (200 characters)",
        "CHANGED (stdout; exit 0 -> 0): changed", "    exit 0", "    stdout: window: (0, 1/4)",
        "    stderr: (empty)",
        "REMOVED: removed"]
    assert len(lines) == 3  # one item per key


def test_code_lines_skips_blank_lines_comments_and_docstrings():
    sys.path.insert(0, str(SCRIPTS))
    from code_lines import code_lines

    source = '''"""Module docstring,
over two lines."""

# A comment.
def f(x):
    """One line."""
    total = (x  # a comment after code
             + 1)
    return "not a docstring"


class C:
    """Class docstring."""

    y = f(
        2,
    )
'''
    # def f, total (two lines), return, class C, y = f( (three lines)
    assert code_lines(source) == 8


def test_code_lines_total_is_the_sum_of_the_modules():
    proc = _run("code_lines.py")
    assert proc.returncode == 0, proc.stderr
    *rows, total = (line.split() for line in proc.stdout.splitlines())
    names = sorted(path.name for path in (ROOT / "src" / "logklab").glob("*.py"))
    assert [name for name, _ in rows] == names
    assert total[0] == "total"
    assert int(total[1]) == sum(int(count) for _, count in rows)
