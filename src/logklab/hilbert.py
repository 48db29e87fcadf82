"""The count polynomials: dimension models h_X(k) of a pair, held as their
integer forward differences (Newton series), with their values and sums
over 0 <= j < x, and the model of each catalog pair that has one.

A dimension model gives the section counts the oracle sums. An explicit
model's monomial coefficients must give integer forward differences when it
is built. Those differences, and the top two of the pair's two-term
Riemann-Roch polynomial, give the sums in closed form (newton_sums,
expansion.NormalConeCoefficients.from_differences).

Only the oracle, catalog show and a pair file with a hilbert block load
this module; every other route builds no model.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import InconsistentDataError, InputError
from .exactnum import format_rational
from .pairmodel import integer

if TYPE_CHECKING:
    from .pairmodel import PolarisedPair


def scaled_values(coefficients: list[Fraction | int], xs: Iterable[int]
                  ) -> tuple[int, Iterator[int]]:
    """(d, the integers d p(x) for x of xs, lazily) for the polynomial
    p(x) = sum_i coefficients[i] x**i and the least common denominator d of
    its coefficients, by integer Horner over the d a_i."""
    d = lcm(*(c.denominator for c in coefficients))
    scaled = [c.numerator * (d // c.denominator) for c in reversed(coefficients)]

    def values() -> Iterator[int]:
        for x in xs:
            acc = 0
            for a in scaled:
                acc = acc * x + a
            yield acc
    return d, values()


def forward_differences(coefficients: list[Fraction | int]) -> tuple[int, list[int]]:
    """(d, [d D_0, ..., d D_m]): the forward differences D_i = Δ^i p(0) of the
    polynomial p(x) = sum_i coefficients[i] x**i, times the least common
    denominator d of its coefficients, from scaled_values at 0..m. Newton's
    formula gives p(x) = sum_i D_i C(x, i), and summation on the upper index
    gives sum_{0<=j<x} p(j) = sum_i D_i C(x, i + 1) (newton_sums). The D_i
    are all integers exactly when p is integer-valued (Polya). The package
    converts monomial coefficients here and nowhere else."""
    d, values = scaled_values(coefficients, range(len(coefficients)))
    return d, leading_differences(list(values))


def leading_differences(values: list[int]) -> list[int]:
    """[Δ^0 v(0), Δ^1 v(0), ...] for the values v(0), v(1), ... of a
    sequence at consecutive integers: as many differences as values."""
    differences = []
    while values:
        differences.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return differences


def newton_sums(differences: list[int], x: int) -> tuple[int, int, int]:
    """(sum_i D_i C(x, i), sum_i D_i C(x - 1, i), sum_i D_i C(x, i + 1)) at an
    integer x for differences D: the values at x and at x - 1 and the sum
    over 0 <= j < x, in one pass over the C(x - 1, i), by
    C(x, i) = C(x - 1, i) + C(x - 1, i - 1). It is the package's one
    Newton-series function: the explicit model's counts, the oracle's walk
    and the sample check it is held to all evaluate through it."""
    y = x - 1
    below = rise = ahead = 0
    previous, binomial = 0, 1  # C(y, i - 1), C(y, i)
    for i, step in enumerate(differences):
        following = binomial * (y - i) // (i + 1)  # exact: it is C(y, i + 1)
        below += step * binomial
        rise += step * previous
        ahead += step * following
        previous, binomial = binomial, following
    return below + rise, below, below + ahead


KIND_PROJECTIVE_SPACE = "projective_space"
KIND_PRODUCT_P1P1 = "product_p1p1"
KIND_EXPLICIT = "explicit"
# Largest validity floor of an explicit model. The oracle's first sample
# needs k (1 - c) >= floor, so its levels start near floor/(1 - c), and the
# literal check of that sample sums about c floor/(1 - c) divisor counts,
# which weightoracle.ORACLE_LITERAL_LIMIT bounds. See the README for its cost.
HILBERT_FLOOR_LIMIT = 10000


class HilbertModel(NamedTuple):
    """Exact section-count model h_X(k) for (X, L), with the divisor counts
    h_D(j) = h_X(j) - h_X(j-1) of the restriction sequence (m = 1); the
    builtin kinds count h_D(j) on D itself (h_divisor).

    Every kind is an integer-valued polynomial in k for k >= 0, held as its
    integer forward differences at 0, D_i = differences[i], so that
    h_X(k) = sum_i D_i C(k, i); its degree is one less than their number, and
    h_D is of degree one less for j >= 1, which the oracle's walk relies on.
    The builtin kinds' rows are binomials, and they count by comb; the
    explicit kind converts its coefficients once (forward_differences),
    refusing them unless every D_i is an integer, and counts by
    newton_sums, which gives h_X(j) and h_X(j-1) together.
    It carries a validity floor below which the polynomial is not trusted to
    equal the true dimension.
    """

    kind: str
    differences: tuple[int, ...]
    floor: int = 0

    @classmethod
    def projective_space(cls, n: int) -> HilbertModel:
        """C(n + k, n), whose differences are C(n, i) (Vandermonde); n is an int >= 1."""
        integer(n, "dimension", 1)
        return cls(KIND_PROJECTIVE_SPACE, tuple(comb(n, i) for i in range(n + 1)))

    @classmethod
    def product_p1p1(cls) -> HilbertModel:
        """(k + 1)^2 = 1 + 3 C(k, 1) + 2 C(k, 2)."""
        return cls(KIND_PRODUCT_P1P1, (1, 3, 2))

    @classmethod
    def explicit(cls, coefficients: Sequence[Fraction | int], floor: int) -> HilbertModel:
        """sum_i coefficients[i] k**i, trailing zeros ignored, the coefficients
        coerced to Fraction and floor an int in 0..HILBERT_FLOOR_LIMIT. An
        InputError names its least non-integer value at k = floor..floor +
        degree, if any: integers there make it integer-valued, its D_i integers."""
        integer(floor, "hilbert 'floor'", 0, HILBERT_FLOOR_LIMIT)
        coefficients = [Fraction(a) for a in coefficients]
        while coefficients and coefficients[-1] == 0:
            coefficients.pop()
        # Integer values at degree + 1 consecutive k make h integer-valued, so
        # its D_i integers (Polya). They are checked one k at a time before
        # the conversion, whose cost grows with the square of the degree.
        ks = range(floor, floor + len(coefficients))
        den, values = scaled_values(coefficients, ks)
        for k, value in zip(ks, values):
            if value % den:
                raise _non_dimension(Fraction(value, den), k)
        den, row = forward_differences(coefficients)
        return cls(KIND_EXPLICIT, tuple(step // den for step in row), floor)

    def top_differences(self) -> tuple[Fraction, Fraction]:
        """(D_d, D_(d-1)) for d = max(degree, 1), zero past the degree: by
        Riemann-Roch, L^n and (c1(X).L^(n-1) + (n-1) L^n)/2 with n = d, as
        PolarisedPair.riemann_roch gives them for a pair."""
        d = max(self.degree, 1)  # a constant model already fails on its degree
        steps = [*self.differences, 0, 0]
        return Fraction(steps[d]), Fraction(steps[d - 1])

    def invariants(self) -> tuple[int, Fraction, Fraction]:
        """(n, L^n, c1(X).L^(n-1)) that the model fixes by Riemann-Roch,
        h(k) = (L^n/n!) k^n + (c1(X).L^(n-1)/(2(n-1)!)) k^(n-1) + ..., with n
        the degree of h in k (-1 for the zero explicit model), read off
        top_differences."""
        top, below = self.top_differences()
        return self.degree, top, 2 * below - (max(self.degree, 1) - 1) * top

    def check_against(self, pair: PolarisedPair) -> HilbertModel:
        """The model itself, if its invariants are the pair's; InconsistentDataError if not."""
        numbers, expected = self.invariants(), (pair.dimension, pair.L_top, pair.cX_L)
        if numbers != expected:
            got, want = (", ".join(format_rational(x) for x in t) for t in (numbers, expected))
            raise InconsistentDataError(
                f"hilbert kind {self.kind!r} gives (n, L^n, c1(X).L^(n-1)) = ({got}) by "
                f"Riemann-Roch, but the pair has ({want})")
        return self

    @property
    def degree(self) -> int:
        """Degree of h_X as a polynomial in k; -1 for the zero explicit model."""
        return len(self.differences) - 1

    def h_total(self, k: int) -> int:
        """dim H^0(X, L^k) for an int k >= 0; defined as 0 at k = -1."""
        if type(k) is not int:  # the integer rule, inline: the oracle counts through here
            integer(k, "k")
        if k == -1:
            return 0
        if k < 0:
            raise InputError(f"dimension function not defined for k = {k}")
        if self.kind == KIND_PROJECTIVE_SPACE:
            n = self.degree
            return comb(n + k, n)
        if self.kind == KIND_PRODUCT_P1P1:
            return (k + 1) ** 2
        return _explicit_count(newton_sums(self.differences, k)[0], k)

    def h_divisor(self, j: int) -> int:
        """dim H^0(D, L~^j), which must be >= 0. For j >= 0 the builtin kinds
        read the divisor's own count: C(n-1+j, n-1) for D = P^(n-1) in P^n,
        2j + 1 for the conic of P^1 x P^1 (P^1 with O(2)). An explicit model,
        and every kind below 0, takes h_X(j) - h_X(j-1) by the restriction
        sequence, an explicit one at j >= 1 with both counts from one series.
        j is an int."""
        if type(j) is not int:  # the integer rule, inline: the oracle's walk calls this per count
            integer(j, "j")
        if self.kind != KIND_EXPLICIT and j >= 0:
            if self.kind == KIND_PROJECTIVE_SPACE:
                r = self.degree - 1
                return comb(r + j, r)
            return 2 * j + 1
        if self.kind == KIND_EXPLICIT and j >= 1:
            at, below, _ = newton_sums(self.differences, j)
            value = _explicit_count(at, j) - _explicit_count(below, j - 1)
        else:
            value = self.h_total(j) - self.h_total(j - 1)
        if value < 0:
            raise InputError(f"divisor dimension negative at j = {j}; model invalid")
        return value


def _non_dimension(value: Fraction | int, k: int) -> InputError:
    return InputError(f"explicit model gives a non-dimension value {format_rational(value)} "
                      f"at k = {k}")


def _explicit_count(count: int, k: int) -> int:
    """An explicit model's count at k, once it is >= 0 (InputError otherwise)."""
    if count < 0:
        raise _non_dimension(count, k)
    return count


# The dimension model of each catalog pair that has one, by catalog name:
# cli.resolve_pair attaches it for oracle, and catalog show names its kind.
CATALOG_MODELS = {
    "P2-line": HilbertModel.projective_space(2),
    "P3-hyperplane": HilbertModel.projective_space(3),
    "P4-hyperplane": HilbertModel.projective_space(4),
    "P1xP1-diag": HilbertModel.product_p1p1(),
}
