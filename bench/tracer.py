"""In-process pass over a plan through ``logklab.cli.run``, with and without
spans at the module boundaries of logklab.

The spans are recorded from this file: every public function defined in
``exactnum``, ``pairmodel``, ``normalcone``, ``thresholds``, ``weightoracle``
and ``cli`` is replaced, in every logklab namespace that binds it (so names
imported directly, such as ``weightoracle.poly_interpolate``, are covered
too), by a wrapper that records its name, start, end, parent span and
invocation id. ``HilbertModel.h_divisor`` is only counted, because it runs
hundreds of thousands of times per oracle invocation. Spans stay in memory
and the last traced pass is written out when the run ends.

Run as a script with the working directory holding the plan's input files:

    python3 tracer.py --plan PLAN.json --passes K --out RESULT.json --spans SPANS.json
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import json
import sys
import time
import traceback
from array import array
from collections import Counter
from fractions import Fraction
from statistics import median

from outcome import Expected

MODULES = ("exactnum", "pairmodel", "normalcone", "thresholds", "weightoracle", "cli")
H_DIVISOR = "weightoracle.h_divisor"

# (name, unit, better) of every per-layer metric; cli.import_s and
# python.startup_s are measured by the parent from fresh interpreters.
PER_LAYER = (
    ("normalcone.df_closed.self_s", "s", "lower"),
    ("normalcone.df_closed.calls", "count", "lower"),
    ("normalcone.curve.self_s", "s", "lower"),
    ("pairmodel.avg_scalar_sD.calls", "count", "lower"),
    ("normalcone.jna_normal_cone.calls", "count", "lower"),
    ("normalcone.g_factor.calls", "count", "lower"),
    ("normalcone.critical_c.self_s", "s", "lower"),
    ("normalcone.critical_c.inner_evals", "count", "lower"),
    ("normalcone.critical_c.evals_per_bit", "evals/bit", "lower"),
    ("normalcone.critical_c.max_den_bits", "bits", "lower"),
    ("normalcone.find_destabilizer.self_s", "s", "lower"),
    ("normalcone.find_destabilizer.df_evals", "count", "lower"),
    ("exactnum.decimal_string.self_s", "s", "lower"),
    ("exactnum.decimal_string.calls", "count", "lower"),
    ("exactnum.format_rational.self_s", "s", "lower"),
    ("exactnum.poly_interpolate.self_s", "s", "lower"),
    ("exactnum.poly_interpolate.calls", "count", "lower"),
    ("weightoracle.dims_and_weights.self_s", "s", "lower"),
    ("weightoracle.dims_and_weights.calls", "count", "lower"),
    ("weightoracle.dims_and_weights.distinct_ratio", "ratio", "higher"),
    ("weightoracle.h_divisor.calls", "count", "lower"),
    ("weightoracle.recover_coefficients.self_s", "s", "lower"),
    ("weightoracle.oracle_report.self_s", "s", "lower"),
    ("thresholds.self_s", "s", "lower"),
    ("thresholds.calls", "count", "lower"),
    ("cli.build_parser.self_s", "s", "lower"),
    ("cli.resolve_pair.self_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("stdout.bytes", "bytes", "lower"),
    ("cli.import_s", "s", "lower"),
    ("python.startup_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)
# Metrics that are exact counts: they must repeat on every traced pass.
EXACT = tuple(name for name, unit, _ in PER_LAYER
              if unit in ("count", "bits", "bytes", "evals/bit")
              or name.endswith("distinct_ratio"))


class Recorder:
    """Spans of one traced pass, kept as columns in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.invocation = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current = -1  # invocation id of the spans opened now
        self.counts: Counter[str] = Counter()
        self.sample_keys: set = set()  # (invocation, c, k) of dims_and_weights
        self.tol_bits = 0  # sum of log2(1/tol) over critical_c calls
        self.inner_den_bits = 0  # largest inner-factor denominator inside critical_c

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, span_name: str, observe=None):
        nid = self.name_id(span_name)
        names, parents, invs = self.name, self.parent, self.invocation
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            invs.append(self.current)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(idx, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, count_name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count_name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def to_json(self, keys: list[str]) -> dict:
        return {
            "fields": ["name", "parent", "invocation", "start", "end"],
            "names": self.names,
            "invocations": keys,
            "name": list(self.name),
            "parent": list(self.parent),
            "invocation": list(self.invocation),
            "start": list(self.start),
            "end": list(self.end),
        }


def _public_functions():
    """(module, attribute name, function) for every public logklab function."""
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"logklab.{short}")
        for attr, value in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == mod.__name__):
                out.append((short, attr, value))
    return out


class Instrumentation:
    """Installs and removes the wrappers of one Recorder."""

    def __init__(self, rec: Recorder):
        import logklab
        from logklab.weightoracle import HilbertModel

        self.rec = rec
        functions = _public_functions()
        span_names = {id(fn): f"{short}.{attr}" for short, attr, fn in functions}
        observers = {
            "weightoracle.dims_and_weights": self._observe_sample,
            "normalcone.critical_c": self._observe_critical,
            "normalcone.df_closed": self._observe_df,
        }
        wrappers = {
            id(fn): rec.span(fn, span_names[id(fn)], observers.get(span_names[id(fn)]))
            for _, _, fn in functions
        }
        self._signature = {
            span_names[id(fn)]: inspect.signature(fn) for _, _, fn in functions
            if span_names[id(fn)] in observers
        }
        namespaces = [logklab, *(importlib.import_module(f"logklab.{m}") for m in MODULES)]
        self.bindings = []  # (namespace, attr, original, wrapper)
        for ns in namespaces:
            for attr, value in vars(ns).items():
                if id(value) in wrappers and value is wrappers[id(value)].__wrapped__:
                    self.bindings.append((ns, attr, value, wrappers[id(value)]))
        original = HilbertModel.h_divisor
        self.bindings.append((HilbertModel, "h_divisor", original,
                              rec.counter(original, H_DIVISOR)))
        self._critical_id = rec.name_id("normalcone.critical_c")

    def _args(self, name, args, kwargs):
        bound = self._signature[name].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _observe_sample(self, idx, args, kwargs, result):
        a = self._args("weightoracle.dims_and_weights", args, kwargs)
        self.rec.sample_keys.add((self.rec.current, Fraction(a["c"]), a["k"]))

    def _observe_critical(self, idx, args, kwargs, result):
        tol = Fraction(self._args("normalcone.critical_c", args, kwargs)["tol"])
        self.rec.tol_bits += tol.denominator.bit_length() - tol.numerator.bit_length()

    def _observe_df(self, idx, args, kwargs, result):
        rec = self.rec
        parent = rec.parent[idx]
        if parent >= 0 and rec.name[parent] == self._critical_id:
            bits = result.inner_factor.denominator.bit_length()
            if bits > rec.inner_den_bits:
                rec.inner_den_bits = bits

    def __enter__(self):
        for ns, attr, _, wrapper in self.bindings:
            setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for ns, attr, original, _ in self.bindings:
            setattr(ns, attr, original)


def run_pass(plan: list[dict], expected: Expected, rec: Recorder | None):
    """One pass through cli.run; returns (wall seconds, outcomes, stdout bytes)."""
    from logklab import cli

    outcomes = []
    total_bytes = 0
    t0 = time.perf_counter()
    for i, inv in enumerate(plan):
        if rec is not None:
            rec.current = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(list(inv["argv"]))
            except Exception:
                traceback.print_exc()
                code = 1
        data = out.getvalue().encode()
        total_bytes += len(data)
        verdict = expected.check(inv["key"], code, data, err.getvalue())
        outcomes.append((inv["key"], verdict))
    return time.perf_counter() - t0, outcomes, total_bytes


def layer_metrics(rec: Recorder, wall: float, stdout_bytes: int) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass."""
    n = len(rec.name)
    names = rec.names
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    child = [0.0] * n
    root_total = 0.0
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child[p] += dur[i]
        else:
            root_total += dur[i]
    self_s: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for i in range(n):
        name = names[rec.name[i]]
        self_s[name] += dur[i] - child[i]
        calls[name] += 1

    def evals_under(parent_name: str) -> int:
        df = rec.name_id("normalcone.df_closed")
        pid = rec.name_id(parent_name)
        return sum(1 for i in range(n)
                   if rec.name[i] == df and rec.parent[i] >= 0 and rec.name[rec.parent[i]] == pid)

    inner_evals = evals_under("normalcone.critical_c")
    samples = calls["weightoracle.dims_and_weights"]
    m = {
        "normalcone.df_closed.self_s": self_s["normalcone.df_closed"],
        "normalcone.df_closed.calls": calls["normalcone.df_closed"],
        "normalcone.curve.self_s": self_s["normalcone.curve"],
        "pairmodel.avg_scalar_sD.calls": calls["pairmodel.avg_scalar_sD"],
        "normalcone.jna_normal_cone.calls": calls["normalcone.jna_normal_cone"],
        "normalcone.g_factor.calls": calls["normalcone.g_factor"],
        "normalcone.critical_c.self_s": self_s["normalcone.critical_c"],
        "normalcone.critical_c.inner_evals": inner_evals,
        "normalcone.critical_c.evals_per_bit": inner_evals / rec.tol_bits if rec.tol_bits else 0.0,
        "normalcone.critical_c.max_den_bits": rec.inner_den_bits,
        "normalcone.find_destabilizer.self_s": self_s["normalcone.find_destabilizer"],
        "normalcone.find_destabilizer.df_evals": evals_under("normalcone.find_destabilizer"),
        "exactnum.decimal_string.self_s": self_s["exactnum.decimal_string"],
        "exactnum.decimal_string.calls": calls["exactnum.decimal_string"],
        "exactnum.format_rational.self_s": self_s["exactnum.format_rational"],
        "exactnum.poly_interpolate.self_s": self_s["exactnum.poly_interpolate"],
        "exactnum.poly_interpolate.calls": calls["exactnum.poly_interpolate"],
        "weightoracle.dims_and_weights.self_s": self_s["weightoracle.dims_and_weights"],
        "weightoracle.dims_and_weights.calls": samples,
        "weightoracle.dims_and_weights.distinct_ratio":
            len(rec.sample_keys) / samples if samples else 0.0,
        "weightoracle.h_divisor.calls": rec.counts[H_DIVISOR],
        "weightoracle.recover_coefficients.self_s": self_s["weightoracle.recover_coefficients"],
        "weightoracle.oracle_report.self_s": self_s["weightoracle.oracle_report"],
        "thresholds.self_s": sum(v for k, v in self_s.items() if k.startswith("thresholds.")),
        "thresholds.calls": sum(v for k, v in calls.items() if k.startswith("thresholds.")),
        "cli.build_parser.self_s": self_s["cli.build_parser"],
        "cli.resolve_pair.self_s": self_s["cli.resolve_pair"],
        "cli.run.self_s": self_s["cli.run"],
        "stdout.bytes": stdout_bytes,
        "trace.unattributed_s": wall - root_total,
    }
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True, help="JSON list of {key, argv}")
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args(argv)

    with open(args.plan) as fh:
        plan = json.load(fh)
    expected = Expected.load()
    traced, untraced, outcomes, hashes_agree = [], [], [], True
    last_rec = None
    for p in range(args.passes):
        # Alternate which side goes first so drift hits both alike.
        for side in ((False, True) if p % 2 == 0 else (True, False)):
            if side:
                rec = Recorder()
                with Instrumentation(rec):
                    wall, res, nbytes = run_pass(plan, expected, rec)
                traced.append(layer_metrics(rec, wall, nbytes) | {"_wall": wall})
                last_rec = rec
            else:
                wall, res, nbytes = run_pass(plan, expected, None)
                untraced.append(wall)
            outcomes.extend(res)
            if any(v.reason == "stdout sha256 differs from the recorded one" for _, v in res):
                hashes_agree = False

    counts_repeat = all(t[k] == traced[0][k] for t in traced for k in EXACT)
    metrics = {}
    for name, _, _ in PER_LAYER:
        if name in traced[0]:
            values = [t[name] for t in traced]
            metrics[name] = values[0] if name in EXACT else median(values)
    metrics["trace.overhead_frac"] = median(t["_wall"] for t in traced) / median(untraced) - 1

    with open(args.spans, "w") as fh:
        json.dump(last_rec.to_json([inv["key"] for inv in plan]), fh)
    result = {
        "metrics": metrics,
        "passes": args.passes,
        "traced_walls_s": [t["_wall"] for t in traced],
        "untraced_walls_s": untraced,
        "counts_repeat": counts_repeat,
        "hashes_agree": hashes_agree,
        "attempted": len(outcomes),
        "failures": [{"key": k, "reason": v.reason, "known_defect": v.known_defect}
                     for k, v in outcomes if v.failed],
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
