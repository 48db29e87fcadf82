#!/usr/bin/env python3
"""The CLI's outcome table: exit code, stdout and stderr of every invocation.

    python3 scripts/compare_outputs.py

runs every invocation of invocations() through logklab.cli.run in this
process and rewrites tests/outcomes.json, printing each key whose entry was
added, removed or changed, and under each added or changed key its new exit
code and the first lines of its new stdout and stderr. Tier-1
(tests/test_outcomes.py) runs the same invocations and fails on any entry
that differs from the table: the table is the spec of every CLI byte. A
re-record changes the spec, so its diff goes with the change that made it,
with a reason, and never makes a known defect pass.
"""

import hashlib
import inspect
import io
import json
import os
import sys
import tempfile
import types
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "outcomes.json"
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  (bench/ is not a package)


@contextmanager
def _digit_limit(limit: int):
    """Set the int<->str digit limit (0 lifts it) for the block, then restore
    the caller's; nothing to set where the interpreter has no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before 3.10.7
        yield
        return
    caller = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(caller)


# The interpreter's default int<->str digit limit (0: none, before 3.10.7).
DEFAULT_DIGITS = getattr(sys.int_info, "default_max_str_digits", 0)

# The usage errors tests/test_cli_usage.py pins.
USAGE_ERRORS = (
    ("info", "catalog:P2-line", "--nope"),
    ("df", "catalog:P2-line", "--c", "1/2"),
    ("df-curve", "catalog:P2-line", "--beta", "1/2", "--steps", "3", "--format", "xml"),
    ("scalar", "catalog:P2-line", "--beta", "1/2", "--m", "x"),
)
# Valid argv in forms the benchmark does not use, so that both of the CLI's
# argv readers are compared: argparse alone reads an abbreviated flag,
# --beta=-1/3, a repeated flag, a negative integer value and --; the table
# reader also reads the pair positional after the flags and `catalog list extra`.
PARSE_FORMS = (
    ("df", "catalog:P2-line", "--c", "1/2", "--bet", "1/2"),
    ("df", "catalog:P2-line", "--c", "1/2", "--beta=-1/3"),
    ("df", "catalog:P2-line", "--c", "1/2", "--beta", "1/4", "--beta", "1/2"),
    ("scalar", "catalog:P2-line", "--beta", "-1"),
    ("catalog", "--", "show", "P2-line"),
    ("df", "--c", "1/2", "--beta", "1/2", "catalog:P2-line"),
    ("catalog", "list", "extra"),
)

P2_DOC = {"name": "P2", "dimension": 2, "L_top": "1", "cX_L": "3", "divisor": {"m": 1}}
# A builtin kind with the keys of an explicit block.
BUILTIN_WITH_FLOOR = workloads._file("pair", dict(P2_DOC, hilbert={
    "kind": "projective_space", "floor": 5000, "coefficients": ["9", "9"]}))

# (k + 1)(k + 2)/2 + 1/2, which is no count at any k, and a degree of 999 on P2.
NON_INTEGER = workloads._file("pair", dict(P2_DOC, hilbert={
    "kind": "explicit", "coefficients": ["3/2", "3/2", "1/2"]}))
LONG_BLOCK = workloads._file("pair", dict(P2_DOC, hilbert={
    "kind": "explicit", "coefficients": ["1/7"] * 1000}))
# 513 coefficients within the degree a dimension-512 pair allows, whose
# first non-integer value is at k = 0, and at k = 1.
WIDE_BLOCK = workloads._file("pair", dict(P2_DOC, dimension=512, hilbert={
    "kind": "explicit", "coefficients": ["1/7"] * 513}))
WIDE_BLOCK_AT_1 = workloads._file("pair", dict(P2_DOC, dimension=512, hilbert={
    "kind": "explicit", "coefficients": ["1"] + ["1/7"] * 512}))
# Pairs whose L is not ample, L^n = -1, with c1(X).L^(n-1) = 1, -3 and -6,
# and a pair past the dimension limit.
NEGATIVE_TOP, NEG_3, NEG_6 = (workloads._file("pair", {
    "name": name, "dimension": 2, "L_top": "-1", "cX_L": cX_L, "divisor": {"m": 1}})
    for name, cX_L in (("negative-top", "1"), ("neg", "-3"), ("neg", "-6")))
P513 = workloads._file("pair", {
    "name": "P513-hyperplane", "dimension": 513, "L_top": "1", "cX_L": "514",
    "divisor": {"m": 1}})

# 1 + the sum of (j - 5)^2 + 1 over 1 <= j <= k: every h_D(j) > 0, but its
# forward differences at j < 5 are not all >= 0, so the oracle's walk counts.
P3_VALLEY = workloads._file("pair", {
    "name": "P3-valley", "dimension": 3, "L_top": "2", "cX_L": "-18", "divisor": {"m": 1},
    "hilbert": {"kind": "explicit", "coefficients": ["1", "127/6", "-9/2", "1/3"]}})
# A counted run of about 7 10^6 divisor counts, a grid past --steps' limit,
# and a tol one bit past --tol's, whose text needs the digit limit lifted.
COUNT_LIMIT = ("oracle", P3_VALLEY[0], "--c", "999999/1000000")
STEPS_LIMIT = ("df-curve", "catalog:P2-line", "--beta", "1/2", "--steps", "100001")
with _digit_limit(0):
    TOL_LIMIT = ("critical-c", "catalog:P4-hyperplane", "--beta", "1/2", "--tol",
                 workloads._tol(60001))
# An alpha_beta override above m*beta, which no divisor in |mL| allows.
OVERRIDE_ABOVE = ("eta", "catalog:P2-line", "--beta", "1/4", "--alpha-beta", "100")
# thresholds with an override of 1/2 on P2 (m = 1), above m*beta in its row at
# beta = 1/4 only: admissible at --beta 1/2, refused at --beta 1/4.
THRESHOLDS_OVERRIDE = ("thresholds", "catalog:P2-line", "--alpha-L", "1/3", "--alpha-LD", "1/2",
                       "--alpha-beta", "1/2")


def _explicit(n: int, cX_L: str, coefficients: list[str]) -> tuple[str, bytes]:
    """A pair file of dimension n, L^n = 1, with an explicit hilbert block."""
    return workloads._file("pair", {
        "name": f"P{n}-explicit", "dimension": n, "L_top": "1", "cX_L": cX_L,
        "divisor": {"m": 1}, "hilbert": {"kind": "explicit", "coefficients": coefficients}})


# binom(k,3) + 3 binom(k,2) - 1000 k + 100000: h_D(j) < 0 for j <= 43.
P3_NEGATIVE = _explicit(3, "4", ["100000", "-6007/6", "1", "1/6"])
# binom(k,4) + 4 binom(k,3) - 200 binom(k,2) + 2000 k: h_D(j) < 0 for
# j = 14..22 only, past the seeds of a run that starts at j = 2.
P4_DIP = _explicit(4, "5", ["0", "25213/12", "-2437/24", "5/12", "1/24"])

DESTABILIZE_BETAS = ("-2", "-1", "-1/2", "0", "1/4", "1/2", "1", "5/2", "3")


def oracle_edges() -> list[workloads.Invocation]:
    """Oracle invocations outside the benchmark universe, each with every input file."""
    point = workloads._file("pair", {
        "name": "P1-point", "dimension": 1, "L_top": "1", "cX_L": "2", "divisor": {"m": 1},
        "hilbert": {"kind": "projective_space"}})
    floor50 = workloads._explicit_pair_file(50)
    floor10000 = workloads._explicit_pair_file(10000)
    # binom(k+3, 3) and binom(k+4, 4) given explicitly.
    p3 = _explicit(3, "4", ["1", "11/6", "1", "1/6"])
    p4 = _explicit(4, "5", ["1", "25/12", "35/24", "5/12", "1/24"])
    # A pair name the report escapes as json.dumps does: a quote, a backslash,
    # a tab, DEL, non-ASCII, a character above U+FFFF and a lone surrogate.
    escaped = workloads._file("pair", dict(P2_DOC, name='P2 "\\" \t\x7f \xe9 \U0001f600 \ud800',
                                           hilbert={"kind": "projective_space"}))
    files = (point, floor50, floor10000, p3, p4, P3_NEGATIVE, P4_DIP, P3_VALLEY, escaped)
    p2, p1, explicit = "catalog:P2-line", point[0], floor50[0]
    argvs = [
        (p2, "--c", "3/2"), (p2, "--c", "3/2", "--kmax", "0"), (p2, "--c=-1/2"), (p2, "--c", "0"),
        (p1, "--c", "3/2"), (p1, "--c", "3/2", "--kmax", "1"), (p1, "--c", "1/2"),
        (explicit, "--c", "1/2", "--kmax", "0"), (explicit, "--c", "1/2", "--kmax=-3"),
        (explicit, "--c", "1/2", "--kmax", "400"), (explicit, "--c", "3/7", "--kmax", "400"),
        ("catalog:P4-hyperplane", "--c", "1/2", "--kmax", "10000"),
        *((f[0], "--c", c) for f in (p3, p4) for c in ("9999/10000", "1/7", "1/60")),
        (floor10000[0], "--c", "1/2"),
        (P3_NEGATIVE[0], "--c", "9999/10000"),
        *((P4_DIP[0], "--c", c) for c in ("9999/10000", "1/2")),
        ("catalog:P4-hyperplane", "--c", "95111/100000"),
        ("catalog:P1xP1-diag", "--c", "1/7", "--kmax", "400"),
        *((P3_VALLEY[0], "--c", c) for c in ("1/2", "9/10", "1/7")),
        (P3_VALLEY[0], "--c", "1/2", "--kmax", "400"),
        *((P3_VALLEY[0], "--c", c, "--kmax", "2000") for c in ("1/2", "9/10")),
        (P3_VALLEY[0], "--c", "99999/100000"),  # one counted run of about 7 10^5
        (escaped[0], "--c", "1/2", "--kmax", "4"),
        COUNT_LIMIT[1:],
    ]
    return [workloads.Invocation(("oracle", *argv), files) for argv in argvs]


def hilbert_errors() -> list[workloads.Invocation]:
    """info and oracle on each pair file whose hilbert block the loader
    refuses, and on an explicit block with trailing zeros; info on LONG_BLOCK,
    WIDE_BLOCK and WIDE_BLOCK_AT_1."""
    explicit = {"kind": "explicit", "coefficients": ["1", "3/2", "1/2"]}
    files = [
        workloads._file("pair", dict(P2_DOC, hilbert={"kind": "grassmannian"})),
        workloads._file("pair", dict(P2_DOC, cX_L="4", hilbert={"kind": "projective_space"})),
        workloads._file("pair", dict(P2_DOC, hilbert=dict(explicit, floor=-1))),
        workloads._file("pair", dict(P2_DOC, hilbert=dict(explicit, floor=10001))),
        BUILTIN_WITH_FLOOR,
        NON_INTEGER,
        workloads._file("pair", dict(P2_DOC, hilbert=dict(
            explicit, coefficients=["1", "3/2", "1/2", "0", "0"]))),
    ]
    return [*(workloads.Invocation(argv, (f,)) for f in files
              for argv in (("info", f[0]), ("oracle", f[0], "--c", "1/2"))),
            *(workloads.Invocation(("info", f[0]), (f,))
              for f in (LONG_BLOCK, WIDE_BLOCK, WIDE_BLOCK_AT_1))]


def resolution_edges() -> list[workloads.Invocation]:
    """The shared input resolution: an m = 2 pair on every command that needs
    D in |L|, a bad --m and a bad lambda/Lambda pair together on every
    positivity command, and nef bounds that contradict their pair."""
    quadric = {"name": "quadric-m2", "dimension": 2, "L_top": "2", "cX_L": "4",
               "proportional_x": "2", "divisor": {"m": 2}, "hilbert": {"kind": "product_p1p1"}}
    m2 = workloads._file("pair", quadric)
    contra = workloads._file("pair", {
        "name": "contra", "dimension": 2, "L_top": "1", "cX_L": "5/4", "divisor": {"m": 1},
        "positivity": {"lambda": "9/10", "Lambda": "19/20", "alpha_L": "1",
                       "alpha_LD_restricted": "1"}})
    unit = [("df", "--c", "1/2", "--beta", "1/2"), ("df-curve", "--beta", "1/2", "--steps", "3"),
            ("destabilize", "--beta", "1/4"), ("critical-c", "--beta", "1/2", "--tol", "1/1024"),
            ("oracle", "--c", "1/2")]
    positivity = [("thresholds",), ("window", "--case", "large"), ("eta", "--beta", "1/20"),
                  ("entropy", "--beta", "1/20")]
    bad = ("--m", "0", "--lambda", "3", "--Lambda", "2")
    return [
        *(workloads.Invocation((cmd, m2[0], *rest), (m2,)) for cmd, *rest in unit),
        *(workloads.Invocation((cmd, "catalog:P2-line", *rest, *bad))
          for cmd, *rest in positivity),
        *(workloads.Invocation((cmd, contra[0], *rest), (contra,))
          for cmd, *rest in [*positivity, ("destabilize", "--beta", "1/20")]),
    ]


def moved_checks() -> list[workloads.Invocation]:
    """The library's cross-checks and limits on inputs the benchmark leaves out."""
    p2 = "catalog:P2-line"
    ent = workloads._file("pair", {
        "name": "ent", "dimension": 2, "L_top": "1", "cX_L": "7/3", "divisor": {"m": 1},
        "positivity": {"lambda": "7/3", "Lambda": "7/3", "alpha_L": "0",
                       "alpha_LD_restricted": "0", "entropy_lower": "3"}})
    klt = workloads._file("criteria", {"Sbeta": "0", "alpha_beta": "0", "n": 2, "is_klt": True})
    p6, p16, p64 = (workloads._file("pair", {
        "name": f"P{n}-hyperplane", "dimension": n, "L_top": "1", "cX_L": str(n + 1),
        "divisor": {"m": 1}}) for n in (6, 16, 64))
    argvs = [
        *(("critical-c", p2, *beta, "--tol", "1/1024")
          for beta in (("--beta", "4/7"), ("--beta", "0"), ("--beta=-1/2",))),
        ("critical-c", p2, "--beta", "1/2", "--tol", "1"),
        *(("critical-c", p2, "--beta", "1/2", "--tol", tol)
          for tol in ("3/1000", f"5/{2**200}")),
        ("critical-c", p2, "--beta", "4/7", "--tol", workloads._tol(512)),
        # c* within about 2^-67 of 1, so the root estimate starts at u = 2^-68.
        ("critical-c", p2, "--beta", f"{2**134 - 1}/{2**134}", "--tol", workloads._tol(184)),
        *(("oracle", pair, "--c", "1/2", "--kmax", "10001")
          for pair in (p2, "catalog:Fano-template")),
        ("critical-c", p2, "--beta", "1", "--tol", "1/1024"),
        ("critical-c", p2, "--beta", "1/2", "--tol", "0"),
        ("df-curve", p2, "--beta", "1/2", "--steps", "0"),
        ("eta", p2, "--beta", "1/2"),
        ("eta", p2, "--beta", "2", "--alpha-L", "1/3", "--alpha-LD", "1/2"),
        ("destabilize", p2, "--beta", "1/2", "--tol", "5"),
    ]
    return [
        *(workloads.Invocation(argv) for argv in argvs),
        *(workloads.Invocation(("critical-c", p6[0], "--beta", beta, "--tol", tol), (p6,))
          for beta, tol in (("1/2", "1/1024"), ("5/6", workloads._tol(512)))),
        *(workloads.Invocation(("critical-c", f[0], "--beta", "1/2", "--tol", workloads._tol(512)),
                               (f,)) for f in (p16, p64)),
        *(workloads.Invocation(("critical-c", NEG_6[0], f"--beta={beta}", "--tol", "1/8"), (NEG_6,))
          for beta in ("0", "-1/2")),
        *(workloads.Invocation((cmd, ent[0], "--beta", "1/2"), (ent,))
          for cmd in ("entropy", "destabilize")),
        workloads.Invocation(("entropy", NEG_6[0], "--beta", "1"), (NEG_6,)),
        workloads.Invocation(("criteria", "--file", klt[0]), (klt,)),
        workloads.Invocation(STEPS_LIMIT),
        workloads.Invocation(TOL_LIMIT),
        workloads.Invocation(OVERRIDE_ABOVE),
        *(workloads.Invocation((*THRESHOLDS_OVERRIDE, "--beta", beta)) for beta in ("1/2", "1/4")),
    ]



def destabilize_signs() -> list[workloads.Invocation]:
    """destabilize at every beta of DESTABILIZE_BETAS, across the signs of s
    and of beta: on Fano-template (s = 0) and a pair file with
    (L^n, c1(X).L^(n-1)) = (1, -2) (s < 0). With them, the pair files with
    L^n = -1 and c1(X).L^(n-1) = 1, -3 and -6, which give one outcome at
    every beta: L is not ample, and the pair is refused where it is built."""
    negative_s = workloads._file("pair", {"name": "negative-s", "dimension": 2, "L_top": "1",
                                          "cX_L": "-2", "divisor": {"m": 1}})
    files = [negative_s, NEGATIVE_TOP, NEG_3, NEG_6]
    pairs = [("catalog:Fano-template", ()), *((f[0], (f,)) for f in files)]
    return [workloads.Invocation(("destabilize", pair, f"--beta={beta}"), needs)
            for pair, needs in pairs for beta in DESTABILIZE_BETAS]


def refused_pairs() -> list[workloads.Invocation]:
    """Pair files refused where their pair is built, all with one outcome a
    file: NEGATIVE_TOP (L^n = -1, so L is not ample) under each pair
    subcommand that no other invocation runs on it, and P513 (past the
    dimension limit) under info."""
    argvs = [("info",), ("scalar", "--beta", "1/2"), ("thresholds",), ("window", "--case", "large"),
             ("eta", "--beta", "1/2"), ("df-curve", "--beta", "1/2", "--steps", "3"),
             ("oracle", "--c", "1/2")]
    return [*(workloads.Invocation((cmd, NEGATIVE_TOP[0], *rest), (NEGATIVE_TOP,))
              for cmd, *rest in argvs),
            workloads.Invocation(("info", P513[0]), (P513,))]


def df_pairs() -> list[workloads.Invocation]:
    """df on pair files outside the catalog, in higher dimension and with L^n < 0 or s <= 0."""
    files = [workloads._file("pair", {"name": name, "dimension": n, "L_top": L_top,
                                      "cX_L": cX_L, "divisor": {"m": 1}})
             for name, n, L_top, cX_L in (("P5-hyperplane", 5, "1", "6"),
                                          ("P6-hyperplane", 6, "1", "7"),
                                          ("negative-top", 2, "-1", "1"),
                                          ("negative-s", 2, "1", "-2"))]
    return [workloads.Invocation(("df", f[0], "--c", c, "--beta", "1/2"), (f,))
            for f in files for c in ("1/2", "1/7")]


def curve_fallbacks() -> list[workloads.Invocation]:
    """df-curve rows whose texts are not plain p/q pairs of small integers,
    in CSV and JSON: an exact zero, whose denominator 1 prints no "/" (DF and
    the inner factor of P3 at beta 9/10 and c = 2/3), alone at 2 steps and
    inside a full batch of 256 rows, then a one-row batch, at 257 steps; and
    a pair with L^n = 1/7^4000 at beta 1/2 (terms of about 3400 digits) and
    at beta 1/3^7000 (DF's terms past the 4300-digit int->str limit)."""
    big = workloads._file("pair", {"name": "small-top", "dimension": 2,
                                   "L_top": f"1/{7**4000}", "cX_L": "3", "divisor": {"m": 1}})
    p3 = ("catalog:P3-hyperplane", "--beta", "9/10")
    argvs = [(*p3, "--steps", "2"), (*p3, "--steps", "257"),
             *((big[0], "--beta", beta, "--steps", "2") for beta in ("1/2", f"1/{3**7000}"))]
    return [workloads.Invocation(("df-curve", *argv, "--format", fmt), (big,))
            for argv in argvs for fmt in ("csv", "json")]


def dimension_knob() -> list[workloads.Invocation]:
    """df, oracle and info on P^n pair files with a projective_space block."""
    files = {n: workloads._file("pair", {
        "name": f"P{n}-hyperplane", "dimension": n, "L_top": "1", "cX_L": str(n + 1),
        "proportional_x": str(n + 1), "divisor": {"m": 1},
        "hilbert": {"kind": "projective_space"}}) for n in (8, 32, 64, 128)}
    argvs = [
        *(("df", files[n][0], "--c", c, "--beta", "1/2") for n in files for c in ("1/2", "1/7")),
        *(("oracle", files[n][0], "--c", "1/2") for n in (8, 32, 64)),
        ("info", files[128][0]),
    ]
    return [workloads.Invocation(argv, tuple(files.values())) for argv in argvs]


def _raw(kind: str, content: bytes) -> tuple[str, bytes]:
    """An input file of content as given, named after it as workloads._file names one."""
    return f"{kind}-{hashlib.sha256(content).hexdigest()[:12]}.json", content


def refusals() -> list[workloads.Invocation]:
    """The refusals and rows no other invocation reaches, each once: window
    hypotheses and an empty window; info's n/a rows and the S_1 bound;
    malformed pair and criteria files; positivity data that is negative,
    missing or contradicts x; a flag past the digit limit and --m 0; an
    extra positional; the oracle's first-sample limit, a negative --kmax and
    an explicit count below 0 at its first sample; and the sign depth of destabilize and
    critical-c."""
    p2 = "catalog:P2-line"
    quadric = workloads._file("pair", {
        "name": "quadric-m2", "dimension": 2, "L_top": "2", "cX_L": "4", "proportional_x": "2",
        "divisor": {"m": 2}, "hilbert": {"kind": "product_p1p1"}})
    point = workloads._file("pair", {"name": "P1", "dimension": 1, "L_top": "1", "cX_L": "2",
                                     "divisor": {"m": 1}})
    # S_1/n = 2 between the nef bounds; Lambda = 3 fails the given-m case's
    # Lambda <= S_1/n, lambda = 1 with Lambda = 2 its S_1/n <= lambda + m(1 - beta_u).
    sandwich = [workloads._file("pair", {
        "name": "sandwich", "dimension": 2, "L_top": "1", "cX_L": "2", "divisor": {"m": 1},
        "positivity": {"lambda": "1", "Lambda": Lambda, "alpha_L": "1",
                       "alpha_LD_restricted": "1"}}) for Lambda in ("3", "2")]
    no_bounds = workloads._file("pair", {"name": "no-bounds", "dimension": 2, "L_top": "1",
                                         "cX_L": "2", "divisor": {"m": 1}})
    pair_files = [
        _raw("pair", b"{\n"),
        _raw("pair", b"[1]\n"),
        _raw("pair", b'{"name": "P2", "name": "P2"}\n'),
        workloads._file("pair", {k: v for k, v in P2_DOC.items() if k != "cX_L"}),
        workloads._file("pair", dict(P2_DOC, name=2)),
        workloads._file("pair", dict(P2_DOC, dimension="2")),
        workloads._file("pair", dict(P2_DOC, dimension=0)),
        workloads._file("pair", dict(P2_DOC, proportional_x="2")),
        workloads._file("pair", dict(P2_DOC, divisor=1)),
        workloads._file("pair", dict(P2_DOC, hilbert={"kind": "explicit"})),
        workloads._file("pair", dict(P2_DOC, cX_L="4")),  # S_1 = 8 > n(n+1) = 6
    ]
    criteria = {"Sbeta": "0", "alpha_beta": "1/2", "n": 2}
    criteria_files = [
        workloads._file("criteria", {k: v for k, v in criteria.items() if k != "n"}),
        workloads._file("criteria", dict(criteria, is_lc=1)),
        workloads._file("criteria", dict(criteria, alpha_beta="-1")),
        workloads._file("criteria", dict(criteria, n=0)),
    ]
    p512, small_s = (workloads._file("pair", {
        "name": name, "dimension": 512, "L_top": "1", "cX_L": cX_L, "divisor": {"m": 1}})
        for name, cX_L in (("P512-hyperplane", "513"), ("small-s", "999/1000")))
    # Integer-valued with P2's invariants, but h_X(2) = -94.
    negative_count = _explicit(2, "3", ["-99", "3/2", "1/2"])
    files = (quadric, point, *sandwich, no_bounds, *pair_files, *criteria_files, p512, small_s,
             negative_count)
    argvs = [
        ("window", p2, "--m", "1", "--case", "large"),  # S_1 not < m n + (n-1) lambda
        ("window", p2, "--m", "2", "--case", "large"),  # Lambda not < m
        *(("window", f[0], "--m", "2", "--case", "given") for f in sandwich),
        ("window", p2, "--m", "4", "--case", "uniform", "--alpha-L", "0", "--alpha-LD", "0"),
        ("info", quadric[0]), ("info", point[0]),
        *(("info", f[0]) for f in pair_files),
        ("eta", p2, "--beta", "1/2", "--alpha-L=-1"),
        ("window", no_bounds[0], "--case", "large"),
        ("window", p2, "--m", "4", "--case", "large", "--lambda", "2"),
        *(("criteria", "--file", f[0]) for f in criteria_files),
        ("scalar", p2, "--beta", "1" + "0" * (DEFAULT_DIGITS or 4300)),
        ("scalar", p2, "--beta", "1/2", "--m", "0"),
        ("info", p2, "extra"),
        ("oracle", p2, "--c", "1000001/1000002"),
        ("oracle", p2, "--c", "1/2", "--kmax", "-1"),
        ("oracle", negative_count[0], "--c", "1/2"),
        # The depth on P512 is 584: the witness at 2^-584, then none within
        # it; at beta 1/2 the finest tol whose level K is within it, the next,
        # and a tol past it; a root past it; and a root near 2^-510 whose
        # level K at tol 2^-100 is past it.
        *(("destabilize", small_s[0], f"--beta=-{workloads._tol(e)}") for e in (594, 595)),
        *(("critical-c", p512[0], "--beta", "1/2", "--tol", workloads._tol(bits))
          for bits in (576, 577, 585)),
        ("critical-c", p512[0], "--beta", workloads._tol(600), "--tol", "1/1024"),
        ("critical-c", p512[0], "--beta", workloads._tol(500), "--tol", workloads._tol(100)),
    ]
    return [workloads.Invocation(argv, files) for argv in argvs]


def invocations() -> list[workloads.Invocation]:
    """The universe: the benchmark's four workloads, the groups above,
    `logklab --help`, every `<cmd> --help`, USAGE_ERRORS and PARSE_FORMS."""
    from logklab.cli import _COMMANDS

    found = [inv for name in workloads.WORKLOADS for inv in workloads.universe(name)]
    found += (oracle_edges() + hilbert_errors() + resolution_edges() + moved_checks()
              + df_pairs() + destabilize_signs() + dimension_knob() + curve_fallbacks()
              + refused_pairs() + refusals())
    argvs = [("--help",), *((row[0], "--help") for row in _COMMANDS), *USAGE_ERRORS, *PARSE_FORMS]
    return found + [workloads.Invocation(argv) for argv in argvs]


def write_files(invs, directory: Path) -> None:
    """Write the invocations' input files into directory, each once: many
    invocations share one, and rewriting a file costs far more than writing
    a new one on some file systems."""
    for name, content in {name: data for inv in invs for name, data in inv.files}.items():
        (directory / name).write_bytes(content)


def entry(code: int, stdout: bytes, stderr: bytes) -> list:
    """An outcome as the table holds it: [exit code, stdout sha256, stderr sha256]."""
    return [code, hashlib.sha256(stdout).hexdigest(), hashlib.sha256(stderr).hexdigest()]


EXCERPT_LINES, EXCERPT_WIDTH = 3, 160


def excerpt(code: int, stdout: bytes, stderr: bytes) -> str:
    """The bytes a table entry hashes, shortened for a reader: the exit code,
    then the first EXCERPT_LINES lines of stdout and of stderr, each cut to
    EXCERPT_WIDTH characters, indented to stand under the key changes() names."""
    lines = [f"    exit {code}"]
    for name, data in (("stdout", stdout), ("stderr", stderr)):
        text = data.decode().splitlines() or ["(empty)"]
        lines += [f"    {name}: {line[:EXCERPT_WIDTH]}"
                  + (f"... ({len(line)} characters)" if len(line) > EXCERPT_WIDTH else "")
                  for line in text[:EXCERPT_LINES]]
        if len(text) > EXCERPT_LINES:
            lines.append(f"    {name}: ... {len(text) - EXCERPT_LINES} more lines")
    return "\n".join(lines)


def outcomes(profile=None) -> tuple[dict[str, list], dict[str, str]]:
    """Invocation.key -> entry() of every invocation, run through cli.run in
    this process as a fresh `python -m logklab.cli` process runs it: in a
    scratch directory that holds the input files, with COLUMNS=80, and with
    the int<->str digit limit at the interpreter's default (lifted for
    TOL_LIMIT only, whose 18063-digit tol the default refuses first).
    profile, if given, is the sys.setprofile hook while the invocations run.
    Returns that table and, by the same keys, each outcome's excerpt().
    The caller's directory, COLUMNS, digit limit and profile hook come back."""
    from logklab import cli

    # Every module of the package loaded, as in a test process, so that what
    # a profile hook sees does not depend on what ran before: cli's first
    # `from . import closedform` or `from . import inputs` would call
    # logklab.__getattr__. The modules are the package's files, so one that
    # exports nothing, such as inputs, is not missed.
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.stem != "__init__":
            import_module(f"logklab.{path.stem}")
    with _digit_limit(0):  # TOL_LIMIT's key reads its 18063-digit tol
        invs = {inv.key: inv for inv in invocations()}
    here, columns, hook = os.getcwd(), os.environ.get("COLUMNS"), sys.getprofile()
    found, excerpts = {}, {}
    with tempfile.TemporaryDirectory() as scratch:
        write_files(invs.values(), Path(scratch))
        os.chdir(scratch)  # the invocations name their input files relative to it
        os.environ["COLUMNS"] = "80"  # argparse wraps --help and usage to it
        sys.setprofile(profile)
        try:
            for key, inv in invs.items():
                out, err = io.StringIO(), io.StringIO()
                with (_digit_limit(0 if inv.argv == TOL_LIMIT else DEFAULT_DIGITS),
                      redirect_stdout(out), redirect_stderr(err)):
                    code = cli.run(list(inv.argv))
                stdout, stderr = out.getvalue().encode(), err.getvalue().encode()
                found[key] = entry(code, stdout, stderr)
                excerpts[key] = excerpt(code, stdout, stderr)
        finally:
            sys.setprofile(hook)
            os.chdir(here)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
    return found, excerpts


def read_table() -> dict[str, list]:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def write_table(table: dict[str, list]) -> None:
    """One entry a line, sorted by key, so that a changed byte is a one-line diff."""
    lines = (f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(table.items()))
    TABLE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def changes(old: dict[str, list], new: dict[str, list], excerpts: dict[str, str]) -> list[str]:
    """One item per key added, removed or changed from table old to table new;
    under an added or changed key, its excerpt from excerpts."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            lines.append(f"REMOVED: {key}")
            continue
        if key not in old:
            line = f"ADDED: {key}"
        elif old[key] != new[key]:
            (a, *_), (b, *_) = old[key], new[key]
            parts = ", ".join(part for part, x, y in zip(("exit code", "stdout", "stderr"),
                                                         old[key], new[key]) if x != y)
            line = f"CHANGED ({parts}; exit {a} -> {b}): {key}"
        else:
            continue
        lines.append(f"{line}\n{excerpts[key]}")
    return lines


# The functions the outcome test accepts unreached, each for a reason no
# in-process run can remove: cli.main runs only in a fresh process, where
# tests/test_cli.py's test_a_process_writes_what_run_returns covers it;
# __getattr__ and __dir__ are the lazy-export hooks that tests/test_package.py
# pins, which no command calls once its modules are loaded; and
# AngleWindow.contains serves tests/test_thresholds.py, which would otherwise
# copy its body.
REACH_EXEMPT = ("logklab.cli.main", "logklab.__getattr__", "logklab.__dir__",
                "logklab.thresholds.AngleWindow.contains")


def unreached(called) -> list[str]:
    """The qualified names, sorted, of every def in the logklab package's
    modules, nested ones included, whose code object is not in called."""
    import logklab

    ran = {(code.co_filename, code.co_firstlineno, code.co_name) for code in called}
    found = []
    for path in sorted(Path(logklab.__file__).parent.glob("*.py")):
        module = "logklab" if path.stem == "__init__" else f"logklab.{path.stem}"
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module)]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                    continue  # comprehensions and lambdas belong to their function
                name = f"{prefix}.{const.co_name}"
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    if (str(path), const.co_firstlineno, const.co_name) not in ran:
                        found.append(name)
                    name += ".<locals>"
                stack.append((const, name))
    return sorted(found)


def main() -> None:
    if sys.argv[1:]:
        sys.exit(__doc__)
    sys.path.insert(0, str(ROOT / "src"))  # record this checkout's logklab
    new, excerpts = outcomes()
    lines = changes(read_table() if TABLE.exists() else {}, new, excerpts)
    for line in lines:
        print(line)
    write_table(new)
    print(f"{len(new)} invocations, {len(lines)} entries changed in {TABLE.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
