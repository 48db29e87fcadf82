"""The integer sign kernel of the closed-form DF's inner factor, for one
pair at one beta: the one formula that normalcone's searches read signs
from and that curve's df-curve grid evaluates in batches.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    from .closedform import _Pair


class _Kernel(NamedTuple):
    """The inner factor's integer numerator for one pair at one beta.

    With u = 1 - c and s = S^D/(n-1), multiply the inner factor
    beta + s g(c) by n(1 - u^(n+1))/(1 - u) = n(1 + u + ... + u^n):

        Q(u) = n(beta+s) u^n + (n beta - s)(1 + u + ... + u^(n-1)).

    The multiplier is positive for u in (0, 1), so Q(u) and the inner factor
    have the same sign there. den clears the denominators of n(beta+s) and
    n beta - s, leaving the integers A and B. For c = a/d put b = d - a, so
    u = b/d and d^n (1 + ... + u^(n-1)) = d(d^n - b^n)/a. Then

        V(a, d) = (a A - B d) b^n + B d^(n+1) = a den d^n Q(b/d),

    an integer with the sign of the inner factor, and the whole closed form
    is V over integers (a0 = L^n/n!):

        inner factor = V / (den n (d^(n+1) - b^(n+1)))
        prefactor    = n a0 (d^(n+1) - b^(n+1)) / ((n+1) d^(n+1))
        DF           = a0 V / (den (n+1) d^(n+1))
        J^NA         = ((n+1) a d^n - (d^(n+1) - b^(n+1))) / ((n+1) d^(n+1)).

    curve's grid builds all but the prefactor from the values, the columns
    df-curve prints, as unreduced integers; df-curve makes no Fraction.
    """

    n: int
    a0: Fraction
    den: int
    A: int
    B: int

    def values(self, d: int, a_values: Sequence[int], b_ns: Sequence[int]) -> list[int]:
        """V(a, d) for each a of a_values, given b^n = (d - a)^n for each:
        B d and B d^(n+1) are computed once for them all."""
        A, Bd = self.A, self.B * d
        Bd_n1 = Bd * d**self.n
        return [(a * A - Bd) * b_n + Bd_n1 for a, b_n in zip(a_values, b_ns)]

    def sign(self, a: int, d: int) -> int:
        """Sign of the inner factor at c = a/d (0 < a < d): -1, 0 or 1."""
        (v,) = self.values(d, (a,), ((d - a) ** self.n,))
        return (v > 0) - (v < 0)


def _kernel(constants: _Pair, beta: Fraction) -> _Kernel:
    """The pair's _Kernel at beta: den, A and B from n(beta+s) and n beta - s."""
    n, s = constants.n, constants.s
    lead = n * (beta + s)
    tail = n * beta - s
    den = lcm(lead.denominator, tail.denominator)
    A = lead.numerator * (den // lead.denominator)
    B = tail.numerator * (den // tail.denominator)
    return _Kernel(n, constants.a0, den, A, B)
