"""Deformation to the normal cone of D in |L|: the closed-form log
Donaldson-Futaki invariant, its inner factor and J^NA, and the instability
threshold.

The family blows up X x C along D x {0} and polarises by L - cP for a
rational blow-up parameter c in (0, 1). Everything here is for a divisor
D in |L| (multiplicity m = 1); callers refuse m > 1 rather than extrapolate.
The integer sign kernel lives in kernel, the searches built on it in
normalcone and the df-curve grid in curve; both read the closed form from
here. The expansion coefficients, the oracle's closed form, live in
expansion, and df's second DF path, read off them, in df; none of those
routes loads either.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .errors import InputError, InternalCheckError
from .exactnum import format_rational
from .pairmodel import PolarisedPair, avg_scalar_sD


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
    """The pair's family at c, validated once; df(beta) and jna() read it, and
    expansion.family_coefficients."""
    return _pair_of(pair).at(c)


def instability_threshold(pair: PolarisedPair) -> Fraction:
    """Angles strictly below S^D / (n(n-1)) are destabilised by this family."""
    return _pair_of(pair).threshold()
