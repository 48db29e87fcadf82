"""Checks of the benchmark itself: the generator is deterministic, every
invocation it can produce has a recorded outcome, and a quick run of each
workload emits every metric of BENCHMARK.json with its unit. No timing
thresholds.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from outcome import Expected
from tracer import EXACT

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SUBCOMMANDS = {"info", "scalar", "thresholds", "window", "eta", "entropy", "df", "df-curve",
               "destabilize", "critical-c", "oracle", "criteria", "catalog"}


def _write(plan, directory):
    plan.write_files(directory)
    (directory / "invocations.json").write_bytes(plan.listing())
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("quick", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload, quick):
    a = _write(workloads.build(workload, 11, quick), tmp_path / "a")
    b = _write(workloads.build(workload, 11, quick), tmp_path / "b")
    assert a == b
    listings = {workloads.build(workload, seed, quick).listing() for seed in range(5)}
    assert len(listings) > 1


def test_every_generated_invocation_has_a_recorded_outcome():
    expected = Expected.load()
    universe = {inv.key for w in workloads.WORKLOADS for inv in workloads.universe(w)}
    assert universe == set(expected.outcomes)
    for workload in workloads.WORKLOADS:
        for seed in range(20):
            for quick in (False, True):
                for inv in workloads.build(workload, seed, quick).invocations:
                    assert inv.key in expected.outcomes


def test_command_mix_covers_every_subcommand_and_error_exit():
    expected = Expected.load()
    plan = workloads.build("command-mix", 5)
    assert len(plan.invocations) >= 100
    assert {inv.argv[0] for inv in plan.invocations} == SUBCOMMANDS
    exits = {expected.outcomes[inv.key]["exit"] for inv in plan.invocations}
    assert {0, 2, 3} <= exits


def test_known_defect_is_in_every_root_isolation_list():
    expected = Expected.load()
    assert set(expected.known_defects) == {workloads.DEFECT_KEY}
    for seed in range(10):
        for quick in (False, True):
            keys = [inv.key for inv in workloads.build("root-isolation", seed, quick).invocations]
            assert workloads.DEFECT_KEY in keys


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_emits_every_metric_and_counts_repeat(workload):
    defects = 1 if workload == "root-isolation" else 0
    e2e = _run(workload, 0)
    assert set(e2e) == {"correct", "attempted", "failed", "metrics"}
    assert e2e["correct"] is True
    assert e2e["failed"] == defects
    assert {k: v["unit"] for k, v in e2e["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in e2e["metrics"].values())

    first, second = _run(workload, 1), _run(workload, 1)
    for result in (first, second):
        assert result["correct"] is True
        assert result["failed"] == 2 * defects  # one traced, one untraced pass
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_source_tree(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "bench" / "expected.json").write_bytes((BENCH / "expected.json").read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "command-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
