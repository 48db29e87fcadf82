"""Deformation to the normal cone of D in |L|: exact expansion coefficients
and the closed-form log Donaldson-Futaki invariant, each checked against a
second path.

The family blows up X x C along D x {0} and polarises by L - cP for a
rational blow-up parameter c in (0, 1). Everything here is for a divisor
D in |L| (multiplicity m = 1); callers refuse m > 1 rather than extrapolate.
The integer sign kernel lives in kernel, the searches built on it in
normalcone and the df-curve grid in curve; both read the closed form from
here.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .errors import InputError, InternalCheckError
from .exactnum import format_rational, json_record
from .pairmodel import PolarisedPair, avg_scalar_sD


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


class DFReport(NamedTuple):
    """Closed-form DF evaluation split into its certified-sign pieces.

    df = positive_prefactor * inner_factor exactly, with
    positive_prefactor > 0 for c in (0, 1); jna is the non-Archimedean
    J value of the same family.
    """

    df: Fraction
    inner_factor: Fraction
    positive_prefactor: Fraction
    jna: Fraction


def _require_c(c: Fraction) -> Fraction:
    c = Fraction(c)
    if not 0 < c.numerator < c.denominator:  # 0 < c < 1, on integers
        raise InputError(f"blow-up parameter must satisfy 0 < c < 1, got {format_rational(c)}")
    return c


class Family(NamedTuple):
    """The family of one pair at one c, validated: n >= 2 and 0 < c < 1.

    a0 = L^n/n!, s = S^D/(n-1), un = (1-c)^n and un1 = (1-c)^(n+1).
    """

    n: int
    a0: Fraction
    s: Fraction
    c: Fraction
    un: Fraction
    un1: Fraction

    def coefficients(self) -> NormalConeCoefficients:
        n, a0, s, c = self.n, self.a0, self.s, self.c
        return NormalConeCoefficients(
            a0=a0,
            a1=Fraction(n, 2) * a0 * (s + 1),
            b0=((1 - self.un1) / (n + 1) - c) * a0,
            b1=Fraction(n, 2) * a0 * (-c + s * ((1 - self.un) / n - c)),
            a0_tilde=n * a0,
            b0_tilde=-c * n * a0,
            c=c,
            n=n,
        )

    def inner(self, beta: Fraction) -> Fraction:
        """The closed-form DF's inner factor beta + s g(c), where
        g(c) = 1 - ((n+1)/n) * (1-(1-c)^n) / (1-(1-c)^(n+1)) is strictly
        decreasing on (0, 1) with range (-1/n, 0)."""
        n = self.n
        return Fraction(beta) + self.s * (1 - Fraction(n + 1, n) * (1 - self.un) / (1 - self.un1))

    def df(self, beta: Fraction) -> DFReport:
        """Closed-form DF: prefactor(c) * inner(beta), for any rational beta
        (angle-range semantics live in the thresholds module). It does not go
        through the coefficient formula, so the two paths check each other."""
        n = self.n
        prefactor = n * self.a0 * (1 - self.un1) / (n + 1)
        inner = self.inner(beta)
        return DFReport(
            df=prefactor * inner,
            inner_factor=inner,
            positive_prefactor=prefactor,
            jna=self.jna(),
        )

    def jna(self) -> Fraction:
        """J^NA = c - (1-(1-c)^(n+1))/(n+1), i.e. -b0/a0; positive on (0, 1)."""
        return self.c - (1 - self.un1) / (self.n + 1)


class _Pair(NamedTuple):
    """One pair's normal-cone constants: n, a0 = L^n/n! and s = S^D/(n-1).

    Each entry point builds it once (_pair_of), so S^D is computed, and
    n >= 2 checked, once per call.
    """

    n: int
    a0: Fraction
    s: Fraction

    def threshold(self) -> Fraction:
        return self.s / self.n

    def at(self, c: Fraction) -> Family:
        c = _require_c(c)
        u = 1 - c
        return Family(self.n, self.a0, self.s, c, u**self.n, u ** (self.n + 1))


def _pair_of(pair: PolarisedPair) -> _Pair:
    """The pair's constants, once n! a0 and n! a0 (s + n)/2, the top two forward
    differences of the coefficients a0 and a1 = (n/2) a0 (s + 1), equal
    pair.riemann_roch() (InternalCheckError otherwise); avg_scalar_sD refuses
    n < 2, where D is zero-dimensional."""
    n = pair.dimension
    constants = _Pair(n, pair.L_top / factorial(n), avg_scalar_sD(pair, 1) / (n - 1))
    top = factorial(n) * constants.a0
    ours, rr = (top, top * (constants.s + n) / 2), pair.riemann_roch()
    if ours != rr:
        raise InternalCheckError(f"pair constants disagree with Riemann-Roch: D_n, D_(n-1) = "
                                 f"{', '.join(map(format_rational, ours))}, Riemann-Roch gives "
                                 f"{', '.join(map(format_rational, rr))}")
    return constants


def family(pair: PolarisedPair, c: Fraction) -> Family:
    """The pair's family at c, validated once; coefficients(), df(beta) and jna() read it."""
    return _pair_of(pair).at(c)


def coefficients(pair: PolarisedPair, c: Fraction) -> NormalConeCoefficients:
    """Exact a0, a1, b0, b1, a0_tilde, b0_tilde for the family at parameter c."""
    return family(pair, c).coefficients()


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
    coeffs, report = at_c.coefficients(), at_c.df(beta)
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


def instability_threshold(pair: PolarisedPair) -> Fraction:
    """Angles strictly below S^D / (n(n-1)) are destabilised by this family."""
    return _pair_of(pair).threshold()
