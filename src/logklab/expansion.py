"""The coefficient path of the normal-cone family: the exact expansion
coefficients of its dimension and weight sums, in closed form and from the
forward differences of a count polynomial, and json_record, the JSON form
of such a record.

These are the coefficients df reads its second DF path off (in df) and the
closed form the oracle's recovered coefficients must equal. Only df and
oracle load it; the closed form (closedform) and the searches and grid
built on it do not need it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .closedform import Family, family
from .exactnum import format_rational
from .pairmodel import PolarisedPair


def json_record(record: NamedTuple) -> dict[str, str | int]:
    """A NamedTuple's fields by name, for a JSON report: an int stays an int,
    every other value becomes its format_rational text."""
    return {name: value if type(value) is int else format_rational(value)
            for name, value in record._asdict().items()}


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
