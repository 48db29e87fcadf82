#!/usr/bin/env python3
"""Compare logklab's exit code, stdout and stderr between two source trees.

    python3 scripts/compare_outputs.py TREE_A TREE_B [--quick]
    python3 scripts/compare_outputs.py --reach

Each TREE is a checkout root, the directory that holds src/logklab. The
invocations are the benchmark's whole universe (bench/workloads.py, all
four workloads), `logklab --help`, every `<cmd> --help`, the usage errors
that tests/test_cli_usage.py pins, valid argv in forms the benchmark does
not use, so that both of the CLI's argv readers are compared (argparse
alone reads an abbreviated flag, `--beta=-1/3`, a repeated flag, a negative
integer value and `--`; the table reader also reads the pair positional
after the flags and `catalog list extra`), and oracle runs the workloads
leave out: a c outside (0, 1), an n = 1 pair, an explicit model at floor 50
with --kmax 0, -3 and 400, the largest --kmax on P4, explicit P3 and P4
models at c = 9999/10000, 1/7 and 1/60, an explicit P2 at floor 10000,
explicit models whose divisor counts go negative inside the walk, P4 at
c = 95111/100000 (one run of 795111 divisor counts), P1xP1 at c = 1/7 with
--kmax 400 (runs with gaps between them), and an explicit P3 model whose
counts are all positive but whose forward differences go negative at small
j, at c = 1/2, 9/10 and 1/7, with --kmax 400, and at c = 1/2 and 9/10
with --kmax 2000 (runs the walk counts rather than jumps), and at c =
99999/100000 and 999999/1000000 (one counted run of about 7 10^5 counts,
and one of about 7 10^6, past the limit); and `info` and
`oracle` on pair files whose hilbert block is refused: an unknown kind, a
projective_space block that contradicts its pair, an explicit floor of -1
and of 10001, a projective_space block with a floor and coefficients,
which only an explicit block takes, and an explicit P2 block that is not
integer-valued; and on an explicit P2 block with trailing zero
coefficients, which changes nothing; and `info` on an explicit block of
1000 coefficients on a P2 pair, and on two dimension-512 pairs
whose 513 coefficients are no count at floor 0 (all 1/7) or at floor + 1
(1, then 1/7); and the input
resolution every pair subcommand shares: an m = 2 pair file on the five
commands that need D in |L|, a bad --m with a lambda above Lambda on the
four positivity commands, and a pair file whose nef bounds miss S_1/n on
those four and destabilize;
and the library cross-checks and limits the benchmark never reaches:
critical-c on P2 at beta 4/7 (a width-zero bracket on the exact root 1/2),
at beta 0 and -1/2 (the sentinel) and at tol 1 (the seed bracket), oracle
--kmax 10001 on P2 and on Fano-template (whose missing model is reported
first), and entropy and destabilize on a pair whose entropy_lower certifies
an angle the normal-cone family destabilises, and entropy on a pair with
L^n < 0, which is refused; and destabilize on every sign case of its table,
at beta = -2, -1, -1/2, 0, 1/4, 1/2, 1, 5/2 and 3 on Fano-template (s = 0)
and on pair files with (L^n, c1(X).L^(n-1)) = (1, -2), and (-1, 1), (-1, -3)
and (-1, -6), which are refused; and
critical-c at a tol of 3/1000 and of 5/2^200, on the exact root of P2 at
2^-512, on an n = 6 pair file, at 2^-512 on P16 and P64 hyperplane pair
files, and at beta 0 and -1/2 on the pair file with (L^n, c1(X).L^(n-1)) =
(-1, -6), which is refused; and df-curve at --steps 100001, past its
limit, and critical-c on P4 at a tol one bit past
normalcone.TOL_BITS_LIMIT, run with the int<->str digit limit lifted, which
would refuse its 18062-digit tol first; and eta on P2 with an alpha_beta
override above m*beta; and thresholds on P2 with an alpha_beta override of
1/2 at --beta 1/2 and at --beta 1/4; and the refusals no other invocation
raises: critical-c on P2 at beta 1, not below the threshold (exit 2), and
at tol 0, df-curve at --steps 0, eta on P2 without alpha data and at beta
2, criteria on a file that asserts is_klt without is_lc, and destabilize
on P2 at tol 5, whose search is exhausted at once (exit 3, `error:`); and df,
whose coefficients are checked
against Riemann-Roch sums, at c = 1/2 and 1/7 on pair files outside the
catalog: P5 and P6 with a hyperplane, L^n = -1 with c1(X).L^(n-1) = 1,
which is refused, and L^n = 1 with c1(X).L^(n-1) = -2; and info, scalar,
thresholds, window, eta, df-curve and oracle on that L^n = -1 pair, and
info on a pair of dimension 513, past the limit; and the dimension knob,
on P^n pair files with a projective_space hilbert block, where the Riemann-Roch sums
and the count polynomial grow with n: df --beta 1/2 at c = 1/2 and 1/7 on
P^8, P^32, P^64 and P^128, oracle --c 1/2 on P^8, P^32 and P^64, and info
on P^128; and the df-curve rows whose texts take ratio_texts' special
cases: an exact zero, printed bare, on P3-hyperplane at beta 9/10, and a
pair with L^n = 1/7^4000 at beta 1/2 and 1/3^7000, whose terms pass the
int->str digit limit, each in CSV and JSON. Each runs as a fresh `python -m logklab.cli` process under both
trees, in one scratch directory that holds the workloads' input files,
with COLUMNS=80 so that argparse wraps the same way. The script prints
every argv whose exit code, stdout or stderr differ, and exits 1 on any
difference but those of EXPECTED, which it prints as expected when the
exit codes are the listed ones. It also prints every argv that exits 3 or
4 with non-empty stdout under either tree, and exits 1 on any: an input
error or a failed cross-check must leave stdout empty. --quick runs only
the first invocation of each workload, the top-level --help and one usage
error.

--reach runs the whole universe instead in this process, through
logklab.cli.run under a profile hook, on this checkout's src/logklab, with
the int<->str digit limit set back to its default, as a fresh process has
it. It prints every function of src/logklab that never ran, and exits 1 if
one is not in REACH_EXEMPT: the library is what the commands run.
"""

import argparse
import inspect
import os
import re
import subprocess
import sys
import tempfile
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  (bench/ is not a package)

USAGE_ERRORS = (
    ("info", "catalog:P2-line", "--nope"),
    ("df", "catalog:P2-line", "--c", "1/2"),
    ("df-curve", "catalog:P2-line", "--beta", "1/2", "--steps", "3", "--format", "xml"),
    ("scalar", "catalog:P2-line", "--beta", "1/2", "--m", "x"),
)
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
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)
TOL_LIMIT = ("critical-c", "catalog:P4-hyperplane", "--beta", "1/2", "--tol", workloads._tol(60001))
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

# Differences a change makes on purpose: argv -> (exit code under TREE_A,
# under TREE_B) when TREE_A is the parent. A change lists only its own
# intended differences, and the next change removes them: an entry left
# behind would excuse any later change to the bytes of its invocation.
EXPECTED: dict[tuple[str, ...], tuple[int, int]] = {
    # A pair with L^n <= 0 is refused where it is built, and so is one of
    # dimension above 512: exit 3 with "input error: L_top must be > 0 (L is
    # ample), got -1" or "... dimension must be at most 512, got 513".
    **{("destabilize", pair, f"--beta={beta}"): (2 if beta in refused else 0, 3)
       for pair, refused in ((NEGATIVE_TOP[0], ("-2", "-1")),
                             (NEG_3[0], ("-2", "-1", "-1/2", "0")),
                             (NEG_6[0], ("-2", "-1", "-1/2", "0")))
       for beta in DESTABILIZE_BETAS},
    **{("critical-c", NEG_6[0], f"--beta={beta}", "--tol", "1/8"): (2, 3)
       for beta in ("0", "-1/2")},
    ("entropy", NEG_6[0], "--beta", "1"): (3, 3),
    **{("df", NEGATIVE_TOP[0], "--c", c, "--beta", "1/2"): (0, 3) for c in ("1/2", "1/7")},
    ("info", NEGATIVE_TOP[0]): (0, 3),
    ("scalar", NEGATIVE_TOP[0], "--beta", "1/2"): (0, 3),
    ("thresholds", NEGATIVE_TOP[0]): (3, 3),
    ("window", NEGATIVE_TOP[0], "--case", "large"): (3, 3),
    ("eta", NEGATIVE_TOP[0], "--beta", "1/2"): (3, 3),
    ("df-curve", NEGATIVE_TOP[0], "--beta", "1/2", "--steps", "3"): (0, 3),
    ("oracle", NEGATIVE_TOP[0], "--c", "1/2"): (3, 3),
    ("info", P513[0]): (0, 3),
}


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
    files = (point, floor50, floor10000, p3, p4, P3_NEGATIVE, P4_DIP, P3_VALLEY)
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
    """destabilize across the signs of L^n, of s and of beta: Fano-template
    (s = 0) and pair files with (L^n, c1(X).L^(n-1)) = (1, -2), (-1, 1),
    (-1, -3) and (-1, -6), at every beta of DESTABILIZE_BETAS."""
    negative_s = workloads._file("pair", {"name": "negative-s", "dimension": 2, "L_top": "1",
                                          "cX_L": "-2", "divisor": {"m": 1}})
    files = [negative_s, NEGATIVE_TOP, NEG_3, NEG_6]
    pairs = [("catalog:Fano-template", ()), *((f[0], (f,)) for f in files)]
    return [workloads.Invocation(("destabilize", pair, f"--beta={beta}"), needs)
            for pair, needs in pairs for beta in DESTABILIZE_BETAS]


def refused_pairs() -> list[workloads.Invocation]:
    """NEGATIVE_TOP under each pair subcommand that no other invocation runs
    on a pair with L^n < 0, and info on P513."""
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
    """df-curve rows whose texts take ratio_texts' special cases, in CSV
    and JSON: an exact zero (DF and the inner factor of P3 at beta 9/10 and
    c = 2/3), and a pair with L^n = 1/7^4000 at beta 1/2 (terms of about 3400
    digits) and at beta 1/3^7000 (DF's terms past the 4300-digit int->str
    limit)."""
    big = workloads._file("pair", {"name": "small-top", "dimension": 2,
                                   "L_top": f"1/{7**4000}", "cX_L": "3", "divisor": {"m": 1}})
    argvs = [("catalog:P3-hyperplane", "--beta", "9/10"),
             *((big[0], "--beta", beta) for beta in ("1/2", f"1/{3**7000}"))]
    return [workloads.Invocation(("df-curve", *argv, "--steps", "2", "--format", fmt), (big,))
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


def run(tree: Path, argv, cwd: Path) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), COLUMNS="80")
    env.pop("PYTHONINTMAXSTRDIGITS", None)  # the digit limit decides some outputs
    if tuple(argv) == TOL_LIMIT:
        env["PYTHONINTMAXSTRDIGITS"] = "0"
    proc = subprocess.run([sys.executable, "-m", "logklab.cli", *argv],
                          cwd=cwd, env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def invocations(tree: Path, cwd: Path, quick: bool) -> list[workloads.Invocation]:
    """The invocations to compare; writes the workloads' input files into cwd."""
    found = []
    for name in workloads.WORKLOADS:
        universe = workloads.universe(name)
        found += universe[:1] if quick else universe
    if not quick:
        found += (oracle_edges() + hilbert_errors() + resolution_edges() + moved_checks()
                  + df_pairs() + destabilize_signs() + dimension_knob() + curve_fallbacks()
                  + refused_pairs())
    # Each file once: many invocations share one, and rewriting a file costs
    # far more than writing a new one on some file systems.
    for file_name, content in {name: data for inv in found for name, data in inv.files}.items():
        (cwd / file_name).write_bytes(content)
    help_text = run(tree, ("--help",), cwd)[1].decode()
    commands = re.search(r"\{([^}]*)\}", help_text).group(1).split(",")
    argvs = [("--help",), USAGE_ERRORS[0]] if quick else [
        ("--help",), *((cmd, "--help") for cmd in commands), *USAGE_ERRORS, *PARSE_FORMS]
    return found + [workloads.Invocation(argv) for argv in argvs]


# The functions --reach accepts unreached, each for a reason no in-process run
# can remove: cli.main runs only in a fresh process, where
# tests/test_cli.py's test_a_process_writes_what_run_returns covers it;
# __dir__ is the dir() hook that tests/test_package.py pins; and
# AngleWindow.contains serves tests/test_thresholds.py, which would otherwise
# copy its body.
REACH_EXEMPT = ("logklab.cli.main", "logklab.__dir__", "logklab.thresholds.AngleWindow.contains")


def _functions(package: Path) -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> qualified name of every def in the package's
    modules, nested ones included, read off their compiled code."""
    found = {}
    for path in sorted(package.glob("*.py")):
        module = "logklab" if path.stem == "__init__" else f"logklab.{path.stem}"
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module)]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                    continue  # comprehensions and lambdas belong to their function
                name = f"{prefix}.{const.co_name}"
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    found[(str(path), const.co_firstlineno, const.co_name)] = name
                    name += ".<locals>"
                stack.append((const, name))
    return found


def reach() -> int:
    """Run the universe through cli.run in this process under a profile hook,
    print the functions of src/logklab that never ran, and return 1 if one is
    not in REACH_EXEMPT."""
    if hasattr(sys, "set_int_max_str_digits"):  # lifted on import, unlike a fresh process
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    package = ROOT / "src" / "logklab"
    sys.path.insert(0, str(package.parent))
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        invs = invocations(ROOT, Path(scratch), quick=False)
        os.chdir(scratch)  # the invocations name their input files relative to it
        sys.setprofile(hook)
        try:
            from logklab import cli

            with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
                for inv in invs:
                    cli.run(list(inv.argv))
        finally:
            sys.setprofile(None)
            os.chdir(here)
    functions = _functions(package)
    ran = {(code.co_filename, code.co_firstlineno, code.co_name) for code in called}
    unreached = sorted(name for key, name in functions.items() if key not in ran)
    for name in unreached:
        print(f"NOT REACHED{' (exempt)' if name in REACH_EXEMPT else ''}: {name}")
    print(f"{len(invs)} invocations in process: {len(functions) - len(unreached)} of "
          f"{len(functions)} functions in src/logklab ran")
    return 1 if set(unreached) - set(REACH_EXEMPT) else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path, nargs="?")
    parser.add_argument("tree_b", type=Path, nargs="?")
    parser.add_argument("--quick", action="store_true",
                        help="a few invocations instead of the whole universe")
    parser.add_argument("--reach", action="store_true",
                        help="list the functions of this checkout's src/logklab that no "
                             "invocation runs, in process, instead of comparing trees")
    args = parser.parse_args()
    if args.reach:
        return reach()
    if args.tree_b is None:
        parser.error("give TREE_A and TREE_B, or --reach")
    tree_a, tree_b = args.tree_a.resolve(), args.tree_b.resolve()
    for tree in (tree_a, tree_b):
        if not (tree / "src" / "logklab").is_dir():
            parser.error(f"{tree} holds no src/logklab")
    with tempfile.TemporaryDirectory() as scratch:
        cwd = Path(scratch)
        invs = invocations(tree_a, cwd, args.quick)
        differing = leaking = 0
        for inv in invs:
            a, b = run(tree_a, inv.argv, cwd), run(tree_b, inv.argv, cwd)
            for tree, (code, out, _) in ((tree_a, a), (tree_b, b)):
                if code in (3, 4) and out:
                    leaking += 1
                    print(f"STDOUT ON EXIT {code} under {tree}: {inv.key}")
            parts = [part for part, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]
            if parts and EXPECTED.get(tuple(inv.argv)) == (a[0], b[0]):
                print(f"EXPECTED ({', '.join(parts)}; exit {a[0]} vs {b[0]}): {inv.key}")
            elif parts:
                differing += 1
                print(f"DIFFERS ({', '.join(parts)}; exit {a[0]} vs {b[0]}): {inv.key}")
    print(f"{leaking} with exit 3 or 4 and non-empty stdout")
    print(f"{len(invs)} invocations, {differing} differ")
    return 1 if differing or leaking else 0


if __name__ == "__main__":
    sys.exit(main())
