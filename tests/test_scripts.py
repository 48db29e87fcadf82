import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_df_landscape_runs():
    proc = _run("df_landscape.py", "--rungs", "2", "--pairs", "P2-line")
    assert proc.returncode == 0, proc.stderr
    assert "instability threshold: 1" in proc.stdout
    assert "witness c" in proc.stdout


def test_df_landscape_default_pairs():
    # Fano-template has threshold 0, so no angle is below it.
    proc = _run("df_landscape.py")
    assert proc.returncode == 0, proc.stderr
    assert "== Fano-template" in proc.stdout
    assert proc.stdout.endswith("the family destabilises none\n")


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


def test_compare_outputs_quick_against_itself():
    root = SCRIPTS.parent
    proc = _run("compare_outputs.py", str(root), str(root), "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(" invocations, 0 differ\n")
