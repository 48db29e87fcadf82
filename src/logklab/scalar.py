"""The scalar averages at one cone angle as a report, with the scalar and
catalog subcommands' handlers.

Only scalar and catalog load this module; every other subcommand reads the
averages it needs straight from pairmodel. The handlers import tables where
they print, so catalog list, which prints neither a table nor fields, loads
no tables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import EXIT_OK, InputError
from .pairmodel import (
    CATALOG, PolarisedPair, avg_scalar_s1, avg_scalar_sD, catalog_entry, multiplicity,
    sD_provenance, scalar_sbeta)


class ScalarReport(NamedTuple):
    """All scalar-curvature averages at one cone angle beta, for D in |mL|.

    SD is None when n = 1 (the divisor is zero-dimensional). Always satisfies
    Sbeta = S1 - m*n*(1 - beta) and mu = Sbeta / n.
    """

    S1: Fraction
    SD: Fraction | None
    Sbeta: Fraction
    mu: Fraction
    beta: Fraction


def avg_scalar_sbeta(pair: PolarisedPair, m: int, beta: Fraction) -> ScalarReport:
    """Scalar averages for D in |mL| and the cone angle 2*pi*beta; Sbeta is scalar_sbeta."""
    m, beta, n = multiplicity(m), Fraction(beta), pair.dimension
    s1 = avg_scalar_s1(pair)
    sD = avg_scalar_sD(pair, m) if n >= 2 else None
    sbeta = scalar_sbeta(pair, m, beta)
    return ScalarReport(S1=s1, SD=sD, Sbeta=sbeta, mu=sbeta / n, beta=beta)


def _cmd_scalar(ns) -> tuple[int, Iterable[str]]:
    from .tables import _table

    report = avg_scalar_sbeta(ns.source.pair, ns.m, ns.beta)
    rows = [
        ("beta", report.beta, "evaluation angle"),
        ("S_1", report.S1, "n*cX_L/L_top"),
        ("S_D", report.SD if report.SD is not None else "n/a",
         sD_provenance(ns.m) if report.SD is not None else "undefined for n = 1"),
        ("S_beta", report.Sbeta, "S_1 - m*n*(1-beta)"),
        ("mu", report.mu, "S_beta/n"),
    ]
    return EXIT_OK, [_table(rows)]


def _cmd_catalog(ns) -> tuple[int, Iterable[str]]:
    if ns.action == "list":
        if ns.name is not None:
            raise InputError(f"catalog list takes no pair name, got {ns.name!r}")
        return EXIT_OK, [f"{name}\n" for name in CATALOG]
    if ns.name is None:
        raise InputError("catalog show needs a pair name")
    entry = catalog_entry(ns.name)
    from .hilbert import CATALOG_MODELS
    from .tables import _fields

    pair, model = entry.pair, CATALOG_MODELS.get(ns.name)
    return EXIT_OK, [_fields([
        ("name", pair.name), ("dimension", pair.dimension), ("L_top", pair.L_top),
        ("cX_L", pair.cX_L),
        ("proportional_x", "none" if pair.proportional_x is None else pair.proportional_x),
        ("divisor multiplicity", entry.m),
        ("dimension model",
         "none (supply alphas and bounds by hand)" if model is None else model.kind),
    ])]
