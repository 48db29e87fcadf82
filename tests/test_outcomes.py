"""Every CLI invocation of scripts/compare_outputs.py's universe against the
recorded outcome table, tests/outcomes.json."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import compare_outputs  # noqa: E402  (scripts/ is not a package)
from compare_outputs import workloads  # noqa: E402

EMPTY = compare_outputs.entry(0, b"", b"")[1]


@pytest.fixture(scope="module")
def run():
    """The universe's outcomes in this process, the code objects called, and
    each outcome's excerpt."""
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    table, excerpts = compare_outputs.outcomes(profile=hook)
    return table, called, excerpts


def test_every_outcome_equals_the_table(run):
    # Re-record with `python3 scripts/compare_outputs.py` only for a change
    # meant to alter these bytes. A failure shows each new entry's bytes.
    assert run[2].keys() == run[0].keys()
    changed = compare_outputs.changes(compare_outputs.read_table(), run[0], run[2])
    if changed:
        pytest.fail(f"{len(changed)} table entries differ:\n" + "\n".join(changed), pytrace=False)


def test_input_errors_and_failed_checks_leave_stdout_empty(run):
    leaking = [key for key, (code, out, _) in run[0].items() if code in (3, 4) and out != EMPTY]
    assert not leaking


def test_every_library_function_runs(run):
    # Every function of src/logklab runs in some invocation, but those
    # REACH_EXEMPT names with a reason.
    assert compare_outputs.unreached(run[1]) == sorted(compare_outputs.REACH_EXEMPT)


def test_the_table_holds_every_benchmark_outcome():
    # bench/expected.json records the exit code and stdout sha256 of each
    # benchmark invocation (a null sha256 marks a known defect), so a
    # re-record of this table that moves a benchmark output fails here.
    expected = json.loads((ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))
    benchmark = {key: [outcome["exit"], outcome["sha256"]]
                 for key, outcome in expected["outcomes"].items() if outcome["sha256"] is not None}
    table = compare_outputs.read_table()
    assert benchmark
    assert {key: table.get(key, [None, None, None])[:2] for key in benchmark} == benchmark


def test_fresh_processes_give_the_table(tmp_path):
    # The first invocation of each workload, --help and a usage error, as
    # fresh processes: the in-process run stands for them everywhere else.
    invs = [*(workloads.universe(name)[0] for name in workloads.WORKLOADS),
            workloads.Invocation(("--help",)),
            workloads.Invocation(compare_outputs.USAGE_ERRORS[0])]
    compare_outputs.write_files(invs, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    env.pop("PYTHONINTMAXSTRDIGITS", None)  # the digit limit decides some outputs
    table = compare_outputs.read_table()
    for inv in invs:
        proc = subprocess.run([sys.executable, "-m", "logklab.cli", *inv.argv], cwd=tmp_path,
                              env=env, capture_output=True, timeout=120)
        outcome = compare_outputs.entry(proc.returncode, proc.stdout, proc.stderr)
        assert outcome == table[inv.key], inv.key


def test_importing_compare_outputs_keeps_the_digit_limit():
    before = sys.get_int_max_str_digits()
    spec = importlib.util.spec_from_file_location("fresh_compare_outputs",
                                                  ROOT / "scripts" / "compare_outputs.py")
    try:
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
        after = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(before)
    assert after == before
