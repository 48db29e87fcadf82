"""The df subcommand: the log Donaldson-Futaki invariant by both paths, the
closed form of closedform and the formula on the expansion coefficients of
expansion, which must agree exactly.

Only df loads this module; the oracle checks its coefficients against the
closed form without it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .closedform import DFReport, family
from .errors import EXIT_OK, InternalCheckError
from .exactnum import format_rational
from .expansion import NormalConeCoefficients, family_coefficients, json_record
from .pairmodel import PolarisedPair
from .tables import _table


def df_from_coefficients(coeffs: NormalConeCoefficients, beta: Fraction) -> Fraction:
    """DF = 2(a1 b0 - a0 b1)/a0 + (1-beta)(a0 b0_tilde - a0_tilde b0)/a0."""
    beta = Fraction(beta)
    main = 2 * (coeffs.a1 * coeffs.b0 - coeffs.a0 * coeffs.b1) / coeffs.a0
    log_term = (coeffs.a0 * coeffs.b0_tilde - coeffs.a0_tilde * coeffs.b0) / coeffs.a0
    return main + (1 - beta) * log_term


def df_checked(pair: PolarisedPair, c: Fraction, beta: Fraction
               ) -> tuple[NormalConeCoefficients, DFReport]:
    """The family's coefficients and closed-form DF report at (c, beta), once
    they equal field by field those read off the forward differences
    pair.riemann_roch() and df_from_coefficients gives the same DF
    (InternalCheckError otherwise)."""
    at_c = family(pair, c)
    coeffs, report = family_coefficients(at_c), at_c.df(beta)
    summed = NormalConeCoefficients.from_differences(*pair.riemann_roch(), at_c.c, at_c.n)
    if summed != coeffs:
        raise InternalCheckError(
            f"coefficient paths disagree: closed form {json_record(coeffs)}, "
            f"Riemann-Roch sums {json_record(summed)}")
    df_coeff_path = df_from_coefficients(coeffs, beta)
    if df_coeff_path != report.df:
        raise InternalCheckError(
            f"DF paths disagree: closed form {format_rational(report.df)}, "
            f"coefficient formula {format_rational(df_coeff_path)}")
    return coeffs, report


def _cmd_df(ns) -> tuple[int, Iterable[str]]:
    coeffs, report = df_checked(ns.source.pair, ns.c, ns.beta)
    rows = [
        ("a0", coeffs.a0, "leading dimension coefficient"),
        ("a1", coeffs.a1, "subleading dimension coefficient"),
        ("b0", coeffs.b0, "leading weight coefficient"),
        ("b1", coeffs.b1, "subleading weight coefficient"),
        ("a0_tilde", coeffs.a0_tilde, "divisor dimension leading coefficient"),
        ("b0_tilde", coeffs.b0_tilde, "divisor weight leading coefficient"),
        ("DF(closed form)", report.df, "prefactor * inner factor"),
        ("DF(coefficient formula)", report.df,
         "2(a1 b0 - a0 b1)/a0 + (1-beta)(a0 b0~ - a0~ b0)/a0"),
        ("inner_factor", report.inner_factor, "beta + (S_D/(n-1)) g(c)"),
        ("positive_prefactor", report.positive_prefactor, "n a0 (1-(1-c)^(n+1))/(n+1)"),
        ("J^NA", report.jna, "c - (1-(1-c)^(n+1))/(n+1) = -b0/a0"),
    ]
    return EXIT_OK, [_table(rows), "cross-check: both DF paths agree exactly\n"]
