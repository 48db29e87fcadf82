"""Benchmark of the logklab command line.

Runs one seeded workload as a closed loop with a single client: each
invocation is a fresh ``python -m logklab.cli`` process started only after
the previous one exited, never two at a time. Every output is checked
against ``expected.json`` (exit code, stdout sha256, no traceback).

    python3 bench/run.py --workload curve-grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20   # every metric
    python3 bench/run.py --record     # re-record expected.json from this tree

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of an in-process traced pass (see tracer.py). The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. Inputs, outputs, spans and a full result record go to
``.bench_work/`` at the root of the tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from statistics import median

import workloads
from outcome import EXPECTED_PATH, TRACEBACK_MARK, Expected, Verdict
from tracer import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LOGKLAB = (sys.executable, "-m", "logklab.cli")

# (name, unit, better) of the end-to-end metrics in the final JSON line.
# failed_frac is printed and recorded too; it is 0 on a healthy workload,
# so the final line carries it as the top-level attempted and failed.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("invocation_p50_s", "s", "lower"),
    ("invocation_tail_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Wall seconds of one subprocess pass, and of one untraced plus one traced
# in-process pass, on a 2-core x86-64 machine with Python 3.11 at the
# baseline. They fix how many passes a run of --seconds makes, so the
# sample count behind the tail percentile does not follow machine speed.
NOMINAL_PASS_S = {
    "curve-grid": 5.0,
    "root-isolation": 10.0,
    "oracle-recount": 5.0,
    "command-mix": 18.0,
}
NOMINAL_TRACE_S = {
    "curve-grid": 12.0,
    "root-isolation": 20.0,
    "oracle-recount": 6.0,
    "command-mix": 1.5,
}
GUARD = 1.5  # start no new pass after GUARD * --seconds
SETUP_PROBES = 12  # `catalog list` processes per run, spread over its passes
STARTUP_PROBES = 7  # fresh interpreters per kind for python.startup_s / cli.import_s
CHILD_TIMEOUT_S = 60.0
# Machine-speed scaling. On a shared host the same process runs up to 1.5x
# slower for seconds at a time. Between children the parent, pinned to the
# children's CPU, times a fixed loop of Fraction and int arithmetic that uses
# no logklab code. Each child's wall time is scaled by REFERENCE_S / (median
# loop time within max(its duration, SCALE_WINDOW_S) of it), so times read as
# seconds at the speed where that loop takes REFERENCE_S. On a shared 2-core
# x86-64 VM this cut the spread of one invocation's time between runs from
# about 0.2 to under 0.1.
REFERENCE_FRACTION_STEPS = 1700
REFERENCE_INT_STEPS = 120_000
REFERENCE_S = 0.025
SCALE_WINDOW_S = 0.25
# A child longer than this keeps its measured time: it has averaged the
# swings over its own run, and the interpreter-bound loop tracks big-integer
# work poorly (scaling the 5 s P4 2^-4096 case raised the spread of its time
# between runs from 0.08 to 0.13).
LONG_CHILD_S = 2.0
PINNED_UNSET = ("LOGKLAB_THREADS", "PYTHONINTMAXSTRDIGITS", "PYTHONPATH", "PYTHONSTARTUP")


@dataclass(frozen=True)
class Sample:
    key: str
    start: float
    raw_s: float  # wall time as measured
    rss_mb: float
    verdict: Verdict
    probe: bool = False
    seconds: float = math.nan  # raw_s scaled to the reference speed


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PINNED_UNSET}
    env["PYTHONPATH"] = str(SRC)
    return env


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python arithmetic loop (no logklab code)."""
    t0 = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(1, REFERENCE_FRACTION_STEPS):
        x = (x * Fraction(i, i + 7) + 1) / 3
    s = 0
    for i in range(REFERENCE_INT_STEPS):
        s += i * i % 7
    return time.perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child, to one CPU of its affinity set."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def spawn(cmd, cwd: Path, out_path: Path, err_path: Path):
    """Run one child to completion; returns (exit code, wall seconds, rusage)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage


class Runner:
    """Runs logklab invocations one at a time in a workload's directory."""

    def __init__(self, workdir: Path, expected: Expected):
        self.files = workdir / "files"
        self.out = workdir / "stdout"
        self.err = workdir / "stderr"
        self.expected = expected
        self.references: list[tuple[float, float]] = []  # (midpoint, loop seconds)
        self._reference()

    def _reference(self) -> None:
        t0 = time.perf_counter()
        seconds = reference_seconds()
        self.references.append((t0 + seconds / 2, seconds))

    def invoke(self, inv: workloads.Invocation, probe: bool = False) -> Sample:
        start = time.perf_counter()
        code, seconds, usage = spawn([*LOGKLAB, *inv.argv], self.files, self.out, self.err)
        self._reference()
        stderr = self.err.read_text(errors="replace")
        verdict = self.expected.check(inv.key, code, self.out.read_bytes(), stderr)
        return Sample(inv.key, start, seconds, usage.ru_maxrss / 1024, verdict, probe)

    def scaled(self, samples: list[Sample]) -> list[Sample]:
        """The samples with `seconds` set from the reference loops near each."""
        times = [t for t, _ in self.references]
        out = []
        for s in samples:
            if s.raw_s > LONG_CHILD_S:
                out.append(replace(s, seconds=s.raw_s))
                continue
            half = max(s.raw_s, SCALE_WINDOW_S)
            lo = bisect_left(times, s.start - half)
            hi = bisect_right(times, s.start + s.raw_s + half)
            near = median(r for _, r in self.references[lo:hi])
            out.append(replace(s, seconds=s.raw_s * REFERENCE_S / near))
        return out


def planned_passes(seconds: float, nominal: float, quick: bool) -> int:
    return 1 if quick else max(1, round(seconds / nominal))


def with_probes(invocations, probes: int) -> list[tuple[workloads.Invocation, bool]]:
    """The pass order: `probes` setup probes spread evenly over the list."""
    n = len(invocations)
    at = {round(j * n / probes) for j in range(probes)} if probes else set()
    out = []
    for i, inv in enumerate(invocations):
        if i in at:
            out.append((workloads.SETUP_PROBE, True))
        out.append((inv, False))
    return out


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that has
    at least ten samples beyond it; the maximum when there are ten or fewer."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    k = n - 10
    return xs[k - 1], 100.0 * k / n, n


def end_to_end(plan: workloads.Plan, seconds: float, runner: Runner) -> dict:
    passes = planned_passes(seconds, NOMINAL_PASS_S[plan.workload], plan.quick)
    order = with_probes(plan.invocations, math.ceil(SETUP_PROBES / passes))
    runner.invoke(workloads.SETUP_PROBE, probe=True)  # untimed warm-up: bytecode caches
    by_pass: list[list[Sample]] = []
    start = time.perf_counter()
    for p in range(passes):
        if p and time.perf_counter() - start > GUARD * seconds:
            break
        by_pass.append([runner.invoke(inv, probe) for inv, probe in order])
    by_pass = [runner.scaled(this) for this in by_pass]
    samples = [s for this in by_pass for s in this]
    walls = [sum(s.seconds for s in this if not s.probe) for this in by_pass]
    raw_walls = [sum(s.raw_s for s in this if not s.probe) for this in by_pass]
    peaks = [max(s.rss_mb for s in this) for this in by_pass]
    work = [s.seconds for s in samples if not s.probe]
    tail_s, tail_pct, tail_n = tail(work)
    failed = sum(s.verdict.failed for s in samples)
    metrics = {
        "wall_s": median(walls),
        "invocation_p50_s": median(work),
        "invocation_tail_s": tail_s,
        "setup_s": median(s.seconds for s in samples if s.probe),
        "peak_rss_mb": median(peaks),
    }
    return {
        "metrics": metrics,
        "failed_frac": failed / len(samples),
        "tail": {"percentile": tail_pct, "samples": tail_n},
        "passes": len(walls),
        "pass_walls_s": walls,
        "raw_pass_walls_s": raw_walls,
        "raw_invocation_p50_s": median(s.raw_s for s in samples if not s.probe),
        "reference_median_s": median(r for _, r in runner.references),
        "attempted": len(samples),
        "failed": failed,
        "failures": [{"key": s.key, "reason": s.verdict.reason,
                      "known_defect": s.verdict.known_defect}
                     for s in samples if s.verdict.failed],
        "samples": [{"key": s.key, "seconds": s.seconds, "raw_s": s.raw_s, "rss_mb": s.rss_mb,
                     "probe": s.probe, "outcome": s.verdict.reason} for s in samples],
    }


def interpreter_probes(workdir: Path) -> dict[str, float]:
    """python.startup_s (bare interpreter) and cli.import_s (import of
    logklab.cli beyond that), medians over interleaved fresh interpreters."""
    bare, imported = [], []
    for _ in range(STARTUP_PROBES):
        for cmd, into in (([sys.executable, "-c", "pass"], bare),
                          ([sys.executable, "-c", "import logklab.cli"], imported)):
            code, seconds, _ = spawn(cmd, workdir, workdir / "stdout", workdir / "stderr")
            if code != 0:
                raise RuntimeError(f"interpreter probe {cmd[1:]} exited {code}")
            into.append(seconds)
    return {"python.startup_s": median(bare),
            "cli.import_s": median(imported) - median(bare)}


def per_layer(plan: workloads.Plan, seconds: float, workdir: Path) -> dict:
    passes = planned_passes(seconds, NOMINAL_TRACE_S[plan.workload], plan.quick)
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps([{"key": inv.key, "argv": list(inv.argv)}
                                     for inv in plan.invocations]))
    out_path, spans_path = workdir / "trace-result.json", workdir / "spans.json"
    cmd = [sys.executable, str(BENCH / "tracer.py"), "--plan", str(plan_path),
           "--passes", str(passes), "--out", str(out_path), "--spans", str(spans_path)]
    code, _, _ = spawn(cmd, workdir / "files", workdir / "tracer.out", workdir / "tracer.err")
    if code != 0:
        err = (workdir / "tracer.err").read_text(errors="replace")
        raise RuntimeError(f"traced pass exited {code}:\n{err[-2000:]}")
    result = json.loads(out_path.read_text())
    result["metrics"] |= interpreter_probes(workdir)
    result["failed"] = len(result["failures"])
    return result


def revision() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "logklab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    return {"git_revision": rev, "source_sha256": digest.hexdigest()}


def metadata(plan: workloads.Plan, seconds: float, trace: int) -> dict:
    return {
        "workload": plan.workload,
        "seed": plan.seed,
        "seconds": seconds,
        "trace": trace,
        "quick": plan.quick,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        **revision(),
        "invocations": [inv.key for inv in plan.invocations],
        "files": sorted(plan.files()),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, quick: bool):
    """Run one workload; returns (printable lines, final-line object)."""
    plan = workloads.build(workload, seed, quick)
    workdir = WORK / workload
    plan.write_files(workdir / "files")
    (workdir / "invocations.json").write_bytes(plan.listing())
    if trace:
        result = per_layer(plan, seconds, workdir)
        table = PER_LAYER
        correct = (result["counts_repeat"] and result["hashes_agree"]
                   and all(f["known_defect"] for f in result["failures"]))
    else:
        result = end_to_end(plan, seconds, Runner(workdir, Expected.load()))
        table = END_TO_END
        correct = all(f["known_defect"] for f in result["failures"])
    record = {"meta": metadata(plan, seconds, trace), "correct": correct, **result}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{trace}{'-quick' if quick else ''}.json"
    (results / name).write_text(json.dumps(record, indent=1))

    m = result["metrics"]
    lines = [f"# workload {workload} seed {seed} trace {trace}: {len(plan.invocations)} invocations "
             f"per pass, {result['passes']} pass(es); python {record['meta']['python']}, "
             f"nproc {record['meta']['nproc']}, revision "
             f"{record['meta']['git_revision'] or record['meta']['source_sha256'][:16]}"]
    lines += [f"{workload:<15} {name_:<46} {m[name_]:>14.6g} {unit}" for name_, unit, _ in table]
    if not trace:
        lines.append(f"{workload:<15} {'failed_frac':<46} {result['failed_frac']:>14.6g} ratio")
        lines.append(f"# invocation_tail_s is p{result['tail']['percentile']:.1f} "
                     f"of {result['tail']['samples']} invocations")
        lines.append(f"# times scaled to the reference speed; unscaled wall_s "
                     f"{median(result['raw_pass_walls_s']):.6g} s, invocation_p50_s "
                     f"{result['raw_invocation_p50_s']:.6g} s; reference loop median "
                     f"{1000 * result['reference_median_s']:.4g} ms (nominal {1000 * REFERENCE_S:g})")
    else:
        lines.append(f"# counts repeat across {result['passes']} traced pass(es): "
                     f"{result['counts_repeat']}; stdout hashes agree: {result['hashes_agree']}")
    for f in result["failures"]:
        lines.append(f"# failed{' (known defect)' if f['known_defect'] else ''}: "
                     f"{f['key'][:120]}: {f['reason']}")
    lines.append(f"# result record: {(results / name).relative_to(ROOT)}")
    final = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name_: {"value": m[name_], "unit": unit} for name_, unit, _ in table},
    }
    return lines, final


def record_expected() -> None:
    """Run every invocation any seed can generate and record its outcome."""
    outcomes, known = {}, {}
    for workload in workloads.WORKLOADS:
        workdir = WORK / "record" / workload
        files = workdir / "files"
        files.mkdir(parents=True, exist_ok=True)
        for inv in workloads.universe(workload):
            for name, content in inv.files:
                (files / name).write_bytes(content)
            code, _, _ = spawn([*LOGKLAB, *inv.argv], files, workdir / "stdout", workdir / "stderr")
            stderr = (workdir / "stderr").read_text(errors="replace")
            if TRACEBACK_MARK in stderr:
                if inv.key != workloads.DEFECT_KEY:
                    raise SystemExit(f"unexpected traceback recording {inv.key!r}:\n{stderr}")
                # A correct build exits 0 here; no stdout to record until then.
                outcomes[inv.key] = {"exit": 0, "sha256": None}
                known[inv.key] = workloads.DEFECT_NOTE
                continue
            digest = hashlib.sha256((workdir / "stdout").read_bytes()).hexdigest()
            outcomes[inv.key] = {"exit": code, "sha256": digest}
        print(f"recorded {workload}", file=sys.stderr)
    doc = {"known_defects": known, "outcomes": dict(sorted(outcomes.items()))}
    EXPECTED_PATH.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="logklab CLI benchmark")
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true", help="reduced sizes, one pass")
    ap.add_argument("--record", action="store_true", help="re-record expected.json")
    args = ap.parse_args(argv)

    if not (SRC / "logklab" / "cli.py").is_file():
        print(f"error: no logklab source tree at {SRC}", file=sys.stderr)
        return 2
    if args.record:
        record_expected()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    pin_to_one_cpu()

    if args.workload != "all":
        lines, final = run_workload(args.workload, args.seed, args.seconds, args.trace, args.quick)
        print("\n".join(lines))
        print(json.dumps(final))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            lines, final = run_workload(workload, args.seed, args.seconds, trace, args.quick)
            print("\n".join(lines), flush=True)
            combined["correct"] &= final["correct"]
            combined["attempted"] += final["attempted"]
            combined["failed"] += final["failed"]
            for name_, value in final["metrics"].items():
                combined["metrics"][f"{workload}/{name_}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
