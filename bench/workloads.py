"""Seeded invocation lists for the logklab benchmark.

Each workload is a list of slots. A slot holds a finite tuple of candidate
invocations; the seed picks one candidate per slot and then shuffles the
order. The union of all candidates is the workload's universe, and
``expected.json`` holds the recorded exit code and stdout sha256 of every
member of it, so any seed's list can be verified.

logklab sees only the generated argv and the generated input files. Files
are named after their content, so an invocation's key (its argv joined by
spaces, with the 2^-k tolerances written compactly) identifies its output.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("curve-grid", "root-isolation", "oracle-recount", "command-mix")

CATALOG_PAIRS = ("P2-line", "P3-hyperplane", "P4-hyperplane", "P1xP1-diag")
# Instability thresholds S_D/(n(n-1)) of the catalog pairs.
THRESHOLD = {
    "P2-line": Fraction(1),
    "P3-hyperplane": Fraction(1),
    "P4-hyperplane": Fraction(1),
    "P1xP1-diag": Fraction(1, 2),
}

# Angles as shares of a pair's threshold. Picked from the prime-denominator
# shares in [0.33, 0.42] for an even cost of critical-c at 2^-1536 on every
# catalog pair, so the draw changes bytes but hardly cost. None is an exact
# rational root of the inner factor (18/43 is one on P2 and P1xP1: the
# bisection stops at once).
BETA_SHARES = tuple(Fraction(p, q) for p, q in
                    ((8, 23), (9, 23), (10, 29), (17, 43), (17, 47), (18, 47)))
CURVE_STEPS = 5000
QUICK_CURVE_STEPS = 200
# Bit budgets of the seeded critical-c slots per pair. 1536 comes twice (two
# seeded angles), so the heavy group is large enough that the tail
# percentile of a two-pass run falls inside it rather than on its edge.
ROOT_BITS = (64, 512, 1536, 1536)
QUICK_ROOT_BITS = (64,)
# destabilize runs at beta = threshold - 2^-e, just below the threshold.
DESTAB_EXPONENTS = (20, 22, 24, 26, 28, 30)
# oracle c = p/q with p in the top 5% of (0, q): the literal sums cost about
# p * (n+4)^2 / 2 divisor terms, so a narrow band keeps the cost steady.
ORACLE_DENOMINATORS = (2, 100, 1000, 10000)
QUICK_ORACLE_DENOMINATORS = (2, 100)
NUMERATOR_COUNT = 6

DEFECT_NOTE = ("printing 'inner factor at lo', a Fraction with a 16385-bit denominator, "
               "exceeds Python's 4300-digit int->str limit: exit 1 with a traceback")


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    files: tuple[tuple[str, bytes], ...] = ()

    @property
    def key(self) -> str:
        return " ".join(_compact(a) for a in self.argv)


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    quick: bool
    invocations: tuple[Invocation, ...]

    def listing(self) -> bytes:
        """Canonical bytes of the invocation list (what the seed determines)."""
        doc = {
            "workload": self.workload,
            "seed": self.seed,
            "quick": self.quick,
            "invocations": [inv.key for inv in self.invocations],
        }
        return (json.dumps(doc, indent=1) + "\n").encode()

    def files(self) -> dict[str, bytes]:
        out: dict[str, bytes] = {}
        for inv in self.invocations:
            out.update(inv.files)
        return out

    def write_files(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, content in sorted(self.files().items()):
            (directory / name).write_bytes(content)


_POW2_TOL = re.compile(r"1/(\d{20,})")


def _compact(arg: str) -> str:
    m = _POW2_TOL.fullmatch(arg)
    if m:
        den = int(m.group(1))
        if den & (den - 1) == 0:
            return f"1/2^{den.bit_length() - 1}"
    return arg


def _tol(bits: int) -> str:
    return f"1/{2**bits}"


def _file(kind: str, doc: dict) -> tuple[str, bytes]:
    content = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    return f"{kind}-{hashlib.sha256(content).hexdigest()[:12]}.json", content


def _inv(*argv: str, files: tuple[tuple[str, bytes], ...] = ()) -> Invocation:
    return Invocation(tuple(argv), files)


# Known defect kept in every root-isolation list (see DEFECT_NOTE).
DEFECT = _inv("critical-c", "catalog:P4-hyperplane", "--beta", "1/2", "--tol", _tol(4096))
DEFECT_KEY = DEFECT.key


def _betas(pair: str) -> list[str]:
    return [str(THRESHOLD[pair] * s) for s in BETA_SHARES]


def _numerators(q: int) -> list[int]:
    """NUMERATOR_COUNT numerators coprime to q from [0.95 q, q), evenly
    spaced where the band allows; for q = 100 all of them are 97."""
    if q == 2:
        return [1]
    lo = q - q // 20
    step = (q - lo) // NUMERATOR_COUNT
    out = []
    for i in range(NUMERATOR_COUNT):
        p = lo + i * step
        while Fraction(p, q).denominator != q:
            p += 1
        out.append(p)
    return out


def _cs(q: int) -> list[str]:
    return [str(Fraction(p, q)) for p in _numerators(q)]


# ----------------------------- workloads -----------------------------


def _curve_grid(quick: bool) -> list[tuple[Invocation, ...]]:
    steps = str(QUICK_CURVE_STEPS if quick else CURVE_STEPS)
    return [
        tuple(_inv("df-curve", f"catalog:{pair}", "--beta", b, "--steps", steps, "--format", fmt)
              for b in _betas(pair))
        for pair in CATALOG_PAIRS for fmt in ("csv", "json")
    ]


def _root_isolation(quick: bool) -> list[tuple[Invocation, ...]]:
    slots = [
        tuple(_inv("critical-c", f"catalog:{pair}", "--beta", b, "--tol", _tol(bits))
              for b in _betas(pair))
        for pair in CATALOG_PAIRS for bits in (QUICK_ROOT_BITS if quick else ROOT_BITS)
    ]
    slots += [
        tuple(_inv("destabilize", f"catalog:{pair}", "--beta", str(THRESHOLD[pair] - Fraction(1, 2**e)))
              for e in DESTAB_EXPONENTS)
        for pair in CATALOG_PAIRS
    ]
    slots.append((DEFECT,))
    return slots


def _explicit_pair_file(floor: int) -> tuple[str, bytes]:
    # P^2 with O(1), its dimension polynomial (k+1)(k+2)/2 given explicitly.
    return _file("pair", {
        "name": f"P2-explicit-floor{floor}",
        "dimension": 2,
        "L_top": "1",
        "cX_L": "3",
        "proportional_x": "3",
        "divisor": {"m": 1},
        "hilbert": {"kind": "explicit", "coefficients": ["1", "3/2", "1/2"], "floor": floor},
    })


def _oracle_recount(quick: bool) -> list[tuple[Invocation, ...]]:
    dens = QUICK_ORACLE_DENOMINATORS if quick else ORACLE_DENOMINATORS
    slots = [
        tuple(_inv("oracle", f"catalog:{pair}", "--c", c) for c in _cs(q))
        for pair in CATALOG_PAIRS for q in dens
    ]
    # The explicit model evaluates a Fraction polynomial per section count,
    # about ten times the cost of a builtin one, so it gets small denominators.
    explicit = [_explicit_pair_file(floor) for floor in (0, 1, 2)]
    for q in dens[:2]:
        slots.append(tuple(_inv("oracle", f[0], "--c", c, files=(f,))
                           for f in explicit for c in _cs(q)))
    return slots


# Criteria documents covering each singular criterion.
_CRITERIA_DOCS = (
    {"Sbeta": "-3", "alpha_beta": "0", "n": 2, "is_lc": True, "bullet2_nef": True},
    {"Sbeta": "-1", "alpha_beta": "1/4", "n": 3, "is_lc": True, "is_klt": True,
     "is_logCY": True},
    {"Sbeta": "2", "alpha_beta": "1/2", "n": 2, "is_lc": True, "bullet1_eta": "1/3",
     "eta_class_ample": True, "third_class_ample": True},
    {"Sbeta": "1", "alpha_beta": "1/3", "n": 2, "corollary_neg": True, "corollary_nef": True},
    {"Sbeta": "1/2", "alpha_beta": "1/5", "n": 2, "klt_inv_semistable": True,
     "klt_inv_ample": True, "klt_inv_nef": True},
)
_CRITERIA_EMPTY = {"Sbeta": "0", "alpha_beta": "0", "n": 2}
_CRITERIA_BAD = {"Sbeta": "0", "alpha_beta": "0", "n": 2, "oops": True}

_POSITIVITY = (("1/3", "1/2"), ("1/4", "1/3"), ("1/5", "2/5"), ("2/7", "1/2"))


def _quadric_file(alpha_l: str, alpha_ld: str) -> tuple[str, bytes]:
    return _file("pair", {
        "name": "quadric-surface",
        "dimension": 2,
        "L_top": "2",
        "cX_L": "4",
        "proportional_x": "2",
        "divisor": {"m": 1},
        "positivity": {"alpha_L": alpha_l, "alpha_LD_restricted": alpha_ld,
                       "lambda": "2", "Lambda": "2"},
        "hilbert": {"kind": "product_p1p1"},
    })


def _command_templates() -> list[tuple[Invocation, ...]]:
    """One slot per template; each template covers a subcommand or an error path."""
    pairs = CATALOG_PAIRS
    betas = ("1/4", "1/3", "1/2", "2/3", "3/4")
    alphas = [("--alpha-L", a, "--alpha-LD", b) for a, b in _POSITIVITY]
    quadrics = [_quadric_file(a, b) for a, b in _POSITIVITY]
    crit_files = [_file("criteria", d) for d in _CRITERIA_DOCS]
    t: list[tuple[Invocation, ...]] = [
        # info / scalar / catalog
        tuple(_inv("info", f"catalog:{p}") for p in (*pairs, "Fano-template")),
        tuple(_inv("info", f[0], files=(f,)) for f in quadrics),
        tuple(_inv("scalar", f"catalog:{p}", "--beta", b) for p in pairs for b in betas),
        tuple(_inv("scalar", f"catalog:{p}", "--beta", b, "--m", "2") for p in pairs for b in betas),
        (_inv("catalog", "list"),),
        tuple(_inv("catalog", "show", p) for p in (*pairs, "Fano-template")),
        # thresholds-module questions
        tuple(_inv("thresholds", f"catalog:{p}", *a) for p in pairs for a in alphas),
        tuple(_inv("thresholds", f[0], "--m", "3", "--beta", b, files=(f,))
              for f in quadrics for b in betas),
        tuple(_inv("window", "catalog:P2-line", "--m", "4", "--case", "uniform", *a) for a in alphas),
        tuple(_inv("window", f"catalog:{p}", "--m", "6", "--case", "large", *a)
              for p in ("P2-line", "P3-hyperplane") for a in alphas),
        tuple(_inv("window", f[0], "--m", "2", "--case", "given", files=(f,)) for f in quadrics),
        tuple(_inv("eta", "catalog:P2-line", "--m", "4", "--beta", b, *a)
              for b in ("5/16", "3/8", "1/3") for a in alphas),
        tuple(_inv("eta", f[0], "--m", "1", "--beta", b, files=(f,))
              for f in quadrics for b in betas),
        tuple(_inv("entropy", "catalog:P2-line", "--m", "4", "--beta", b, *a)
              for b in betas for a in alphas),
        tuple(_inv("entropy", f[0], "--m", "2", "--beta", b, "--entropy-lower", "3", files=(f,))
              for f in quadrics for b in betas),
        # normal-cone questions, small sizes
        tuple(_inv("df", f"catalog:{p}", "--c", c, "--beta", b)
              for p in pairs for c in ("1/3", "1/2", "2/3") for b in betas),
        tuple(_inv("df-curve", f"catalog:{p}", "--beta", b, "--steps", "32", "--format", fmt)
              for p in pairs for b in betas for fmt in ("csv", "json")),
        tuple(_inv("destabilize", f"catalog:{p}", "--beta", str(THRESHOLD[p] * s))
              for p in pairs for s in BETA_SHARES),
        tuple(_inv("critical-c", f"catalog:{p}", "--beta", str(THRESHOLD[p] * s), "--tol", "1/1024")
              for p in pairs for s in BETA_SHARES),
        tuple(_inv("oracle", f"catalog:{p}", "--c", c, "--kmax", "20")
              for p in pairs for c in ("1/2", "1/3", "2/3")),
        tuple(_inv("criteria", "--file", f[0], files=(f,)) for f in crit_files),
        # expected exit 2: inconclusive or a failed precondition
        (_inv("criteria", "--file", _file("criteria", _CRITERIA_EMPTY)[0],
              files=(_file("criteria", _CRITERIA_EMPTY),)),),
        tuple(_inv("destabilize", f"catalog:{p}", "--beta", str(THRESHOLD[p] + Fraction(1, 8)))
              for p in pairs),
        tuple(_inv("window", "catalog:P4-hyperplane", "--m", "1", "--case", "uniform", *a)
              for a in alphas),
        # expected exit 3: input errors
        tuple(_inv("df", f"catalog:{p}", "--c", "1/0", "--beta", "1/2") for p in pairs),
        tuple(_inv("df", f"catalog:{p}", "--c", "3/2", "--beta", "1/2") for p in pairs),
        tuple(_inv("info", name) for name in ("missing-pair.json", "no-such-file.json")),
        tuple(_inv("scalar", f"catalog:{name}", "--beta", "1/2") for name in ("P9-line", "P5-plane")),
        (_inv("criteria", "--file", _file("criteria", _CRITERIA_BAD)[0],
              files=(_file("criteria", _CRITERIA_BAD),)),),
        (_inv("catalog", "show"),),
        (_inv("oracle", "catalog:Fano-template", "--c", "1/2"),),
    ]
    return t


COMMAND_MIX_SIZE = 104


def _command_mix(quick: bool) -> list[tuple[Invocation, ...]]:
    """Every template in turn; the quick list holds each template once."""
    templates = _command_templates()
    size = len(templates) if quick else COMMAND_MIX_SIZE
    return [templates[i % len(templates)] for i in range(size)]


_SLOTS = {
    "curve-grid": _curve_grid,
    "root-isolation": _root_isolation,
    "oracle-recount": _oracle_recount,
    "command-mix": _command_mix,
}


def build(workload: str, seed: int, quick: bool = False) -> Plan:
    """The seed's invocation list: one candidate per slot, in seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    picked = [slot[rng.randrange(len(slot))] for slot in _SLOTS[workload](quick)]
    rng.shuffle(picked)
    return Plan(workload, seed, quick, tuple(picked))


def universe(workload: str) -> list[Invocation]:
    """Every invocation any seed can generate, full and quick mode."""
    seen: dict[str, Invocation] = {}
    for quick in (False, True):
        for slot in _SLOTS[workload](quick):
            for inv in slot:
                seen.setdefault(inv.key, inv)
    return list(seen.values())


SETUP_PROBE = Invocation(("catalog", "list"))
