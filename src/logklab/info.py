"""The info subcommand: a pair's findings, its scalar averages and its
instability threshold.

Only info loads this module.
"""

from __future__ import annotations

from typing import Iterable

from .closedform import instability_threshold
from .errors import EXIT_OK
from .exactnum import format_rational
from .pairmodel import PolarisedPair, avg_scalar_s1, avg_scalar_sD, sD_provenance
from .tables import _fields, _table

FINDING_BOUND_VIOLATED = "ScalarBoundViolated"
FINDING_BOUND_SATURATED = "ScalarBoundSaturated"


def validate_pair(pair: PolarisedPair) -> list[str]:
    """Sanity findings; data violating S_1 <= n(n+1) cannot come from a manifold."""
    findings: list[str] = []
    n = pair.dimension
    s1 = avg_scalar_s1(pair)
    if s1 > n * (n + 1):
        findings.append(FINDING_BOUND_VIOLATED)
    elif s1 == n * (n + 1):
        findings.append(FINDING_BOUND_SATURATED)
    return findings


def _cmd_info(ns) -> tuple[int, Iterable[str]]:
    pair, m = ns.source.pair, ns.m
    rows = [("S_1", avg_scalar_s1(pair), "n*cX_L/L_top")]
    if pair.dimension >= 2:
        rows.append(("S_D", avg_scalar_sD(pair, m), sD_provenance(m)))
        if m == 1:
            rows.append(("instability_threshold", instability_threshold(pair),
                         "S_D/(n(n-1)); smaller angles destabilised by the normal-cone family"))
        else:
            rows.append(("instability_threshold", "n/a",
                         "normal-cone family only asserted for m = 1"))
    else:
        rows.append(("S_D", "n/a", "undefined for n = 1"))
    return EXIT_OK, [_fields([
        ("pair", f"{pair.name} (n={pair.dimension}, L^n={format_rational(pair.L_top)}, "
                 f"c1(X).L^(n-1)={format_rational(pair.cX_L)}, D in |{m}L|)"),
        ("findings", ", ".join(validate_pair(pair)) or "none"),
    ]), _table(rows)]
