import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=120,
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


def test_compare_outputs_quick_against_itself():
    root = SCRIPTS.parent
    proc = _run("compare_outputs.py", str(root), str(root), "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(" invocations, 0 differ\n")


def test_compare_outputs_reach_finds_every_function_run():
    # Every function of src/logklab runs in some invocation, but those the
    # script exempts with a reason.
    proc = _run("compare_outputs.py", "--reach")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *unreached, summary = proc.stdout.splitlines()
    assert unreached == ["NOT REACHED (exempt): logklab.__dir__",
                         "NOT REACHED (exempt): logklab.cli.main",
                         "NOT REACHED (exempt): logklab.thresholds.AngleWindow.contains"]
    counts = re.fullmatch(r"\d+ invocations in process: (\d+) of (\d+) functions in "
                          r"src/logklab ran", summary)
    assert counts and int(counts[1]) + len(unreached) == int(counts[2])
