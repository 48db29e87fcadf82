"""The coefficient path of the normal-cone family: the exact expansion
coefficients of its dimension and weight sums, and the log Donaldson-Futaki
invariant read off them, checked against the closed form of closedform.

This is df's second DF path and the closed form the oracle's recovered
coefficients must equal. Only df and oracle load it; the closed form
(closedform) and the searches and grid built on it do not need it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterable, NamedTuple

from .closedform import DFReport, Family, family
from .errors import EXIT_OK, InternalCheckError
from .exactnum import _table, format_rational, json_record
from .pairmodel import PolarisedPair


class NormalConeCoefficients(NamedTuple):
    """Leading expansion coefficients of dim/weight sums for the family at c.

    d_k ~ a0 k^n + a1 k^(n-1), w_k ~ b0 k^(n+1) + b1 k^n, and the same for
    the restriction to the divisor part (a0_tilde, b0_tilde).
    """

    a0: Fraction
    a1: Fraction
    b0: Fraction
    b1: Fraction
    a0_tilde: Fraction
    b0_tilde: Fraction
    c: Fraction
    n: int

    @classmethod
    def from_differences(cls, top: Fraction, below: Fraction, c: Fraction, n: int
                         ) -> NormalConeCoefficients:
        """The coefficients in dimension n at c of the sums of a count polynomial
        H = sum_i D_i C(x, i) of degree <= n, from its top two forward
        differences top = D_n and below = D_(n-1): as
        C(x, m) = (x^m - C(m, 2) x^(m-1))/m! + ..., they give the top two
        coefficients of d_k = H(k) and of G(x) = sum_i D_i C(x, i + 1), so of
        w_k = G(k) - G((1-c)k) - c k H(k); d~_k = H(k) - H(k-1) has a0~ = n a0,
        and w~_k = -c k d~_k has b0~ = -c a0~."""
        a0, u = top / factorial(n), 1 - c
        a1 = (n * below - comb(n, 2) * top) / factorial(n)
        g1 = ((n + 1) * below - comb(n + 1, 2) * top) / factorial(n + 1)  # G's top is a0/(n+1)
        return cls(a0=a0, a1=a1, b0=a0 / (n + 1) * (1 - u ** (n + 1)) - c * a0,
                   b1=g1 * (1 - u**n) - c * a1, a0_tilde=n * a0, b0_tilde=-c * n * a0, c=c, n=n)


def family_coefficients(at_c: Family) -> NormalConeCoefficients:
    """The coefficients of the family at_c in closed form: a0 = L^n/n!,
    a1 = (n/2) a0 (s + 1), and so on, from its n, a0, s and powers of 1 - c."""
    n, a0, s, c = at_c.n, at_c.a0, at_c.s, at_c.c
    return NormalConeCoefficients(
        a0=a0,
        a1=Fraction(n, 2) * a0 * (s + 1),
        b0=((1 - at_c.un1) / (n + 1) - c) * a0,
        b1=Fraction(n, 2) * a0 * (-c + s * ((1 - at_c.un) / n - c)),
        a0_tilde=n * a0,
        b0_tilde=-c * n * a0,
        c=c,
        n=n,
    )


def coefficients(pair: PolarisedPair, c: Fraction) -> NormalConeCoefficients:
    """Exact a0, a1, b0, b1, a0_tilde, b0_tilde for the family at parameter c."""
    return family_coefficients(family(pair, c))


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
