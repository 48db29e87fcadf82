"""Polarised pairs, divisors, and the average scalar curvatures derived from them.

A pair is reduced to its intersection-number shadow: the dimension n, the
top self-intersection L^n, and c1(X).L^(n-1). Those three numbers determine
S_1, S^D and S_beta, which every stability criterion consumes. A pair may
also carry a dimension model h_X(k), the section counts the oracle sums,
held as its integer forward differences at 0, which an explicit model's
coefficients must give when it is built. Those differences, and the top
two of the pair's two-term Riemann-Roch polynomial, give the sums in closed
form (exactnum.newton_sums, closedform.NormalConeCoefficients.from_differences).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import InconsistentDataError, InputError
from .exactnum import format_rational, forward_differences, newton_sums, scaled_values

if TYPE_CHECKING:
    from .thresholds import PositivityData

FINDING_BOUND_VIOLATED = "ScalarBoundViolated"
FINDING_BOUND_SATURATED = "ScalarBoundSaturated"


# Largest dimension of a pair: on P^512 the oracle takes 0.25 s at c = 1/2
# and 1.73 s at c = 99/100, in process, growing about as n^3
# (scripts/oracle_sweep.py, 2-core x86-64 VM, Python 3.11); see the README.
DIMENSION_LIMIT = 512


class _PairFields(NamedTuple):
    name: str
    dimension: int
    L_top: Fraction
    cX_L: Fraction
    proportional_x: Fraction | None = None


class PolarisedPair(_PairFields):
    """Intersection data of ((X, L); D).

    L_top is L^n and cX_L is c1(X).L^(n-1) = (-K_X).L^(n-1). When c1(X) is an
    exact rational multiple x of c1(L) (e.g. projective spaces, Fano pairs
    with L = -K_X), proportional_x records that coefficient; it then doubles
    as both nef thresholds lambda and Lambda. Every construction coerces the
    rationals to Fraction and checks them: L is ample, so L^n > 0, and n
    is an int in 1..DIMENSION_LIMIT.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        pair = super().__new__(cls, *args, **kwargs)
        integer(pair.dimension, "dimension", 1, DIMENSION_LIMIT)
        L_top, cX_L, x = Fraction(pair.L_top), Fraction(pair.cX_L), pair.proportional_x
        if L_top <= 0:
            raise InputError(f"L_top must be > 0 (L is ample), got {format_rational(L_top)}")
        if x is not None:
            x = Fraction(x)
            if cX_L != x * L_top:
                raise InconsistentDataError(
                    f"proportional_x={format_rational(x)} requires "
                    f"cX_L = x*L_top = {format_rational(x * L_top)}, "
                    f"got {format_rational(cX_L)}"
                )
        return pair._replace(L_top=L_top, cX_L=cX_L, proportional_x=x)

    def riemann_roch(self) -> tuple[Fraction, Fraction]:
        """(D_n, D_(n-1)) = (L^n, (c1(X).L^(n-1) + (n-1) L^n)/2): the top two
        forward differences at 0 of the two leading Riemann-Roch terms of h_X(k),
        (L^n/n!) k^n + (c1(X).L^(n-1)/(2(n-1)!)) k^(n-1), as
        HilbertModel.top_differences gives them for a model."""
        return self.L_top, (self.cX_L + (self.dimension - 1) * self.L_top) / 2


def integer(value: int, what: str, low: int | None = None, high: int | None = None) -> int:
    """value, once it is an int in low..high (a bound of None is absent): the
    one rule for every integer the library takes. An InputError names it by
    what, refusing first any type but int itself, so a bool, and an integral
    float or Fraction, too."""
    if type(value) is not int:
        raise InputError(f"{what} must be an int, got {value!r} ({type(value).__name__})")
    if low is not None and value < low:
        raise InputError(f"{what} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise InputError(f"{what} must be at most {high}, got {value}")
    return value


def multiplicity(m: int) -> int:
    """m, once it is an int >= 1 as the multiplicity of the divisor D in |mL|."""
    return integer(m, "divisor multiplicity", 1)


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


def avg_scalar_s1(pair: PolarisedPair) -> Fraction:
    """Average scalar curvature of (X, L): n * cX_L / L_top."""
    return pair.dimension * pair.cX_L / pair.L_top


def avg_scalar_sD(pair: PolarisedPair, m: int) -> Fraction:
    """Average scalar curvature of the polarised divisor D in |mL|.

    Adjunction gives (n-1) * (S_1/n - m). The m = 1 case is the standard
    hypersurface formula; m > 1 is a derived extension and is labelled as
    such in reports.
    """
    m, n = multiplicity(m), pair.dimension
    if n < 2:
        raise InputError("S^D needs n >= 2; the divisor is zero-dimensional for n = 1")
    return (n - 1) * (avg_scalar_s1(pair) / n - m)


def scalar_sbeta(pair: PolarisedPair, m: int, beta: Fraction) -> Fraction:
    """S_beta = S_1 - m*n*(1-beta), for D in |mL| and the cone angle 2*pi*beta."""
    return avg_scalar_s1(pair) - m * pair.dimension * (1 - beta)


def avg_scalar_sbeta(pair: PolarisedPair, m: int, beta: Fraction) -> ScalarReport:
    """Scalar averages for D in |mL| and the cone angle 2*pi*beta; Sbeta is scalar_sbeta."""
    m, beta, n = multiplicity(m), Fraction(beta), pair.dimension
    s1 = avg_scalar_s1(pair)
    sD = avg_scalar_sD(pair, m) if n >= 2 else None
    sbeta = scalar_sbeta(pair, m, beta)
    return ScalarReport(S1=s1, SD=sD, Sbeta=sbeta, mu=sbeta / n, beta=beta)


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


def sD_provenance(m: int) -> str:
    """Report tag distinguishing the m = 1 formula from the derived extension."""
    if m == 1:
        return "adjunction, D in |L|"
    return f"derived extension (m={m})"


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
    explicit kind converts its coefficients once (exactnum.forward_differences),
    refusing them unless every D_i is an integer, and counts by
    exactnum.newton_sums, which gives h_X(j) and h_X(j-1) together.
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


class PairSource(NamedTuple):
    """A resolved pair: a catalog entry or a pair file, with the multiplicity
    m of its divisor D in |mL|, and its positivity data and dimension model,
    each None where the source gives none."""

    pair: PolarisedPair
    m: int
    positivity: PositivityData | None = None
    model: HilbertModel | None = None


# One row per PositivityData field, in --help order: (pair-file key, field,
# flag, metavar, help). The flag's dest is the field.
_POSITIVITY = (
    ("alpha_L", "alpha_L", "--alpha-L", "ALPHA_L",
     "alpha invariant of L (overrides the pair file)"),
    ("alpha_LD_restricted", "alpha_LD_restricted", "--alpha-LD", "ALPHA_LD",
     "alpha invariant of L_D restricted to D"),
    ("alpha_beta_override", "alpha_beta_override", "--alpha-beta", "ALPHA_BETA",
     "direct alpha_beta override"),
    ("lambda", "lam", "--lambda", "LAM", "nef threshold lambda"),
    ("Lambda", "Lambda_up", "--Lambda", "LAMBDA_UP", "nef threshold Lambda"),
    ("entropy_lower", "entropy_lower", "--entropy-lower", "ENTROPY_LOWER",
     "user lower bound for the entropy threshold"),
)


CATALOG: dict[str, PairSource] = {
    "P2-line": PairSource(
        pair=PolarisedPair("P2-line", 2, Fraction(1), Fraction(3), Fraction(3)),
        m=1,
        model=HilbertModel.projective_space(2),
    ),
    "P3-hyperplane": PairSource(
        pair=PolarisedPair("P3-hyperplane", 3, Fraction(1), Fraction(4), Fraction(4)),
        m=1,
        model=HilbertModel.projective_space(3),
    ),
    "P4-hyperplane": PairSource(
        pair=PolarisedPair("P4-hyperplane", 4, Fraction(1), Fraction(5), Fraction(5)),
        m=1,
        model=HilbertModel.projective_space(4),
    ),
    "P1xP1-diag": PairSource(
        pair=PolarisedPair("P1xP1-diag", 2, Fraction(2), Fraction(4), Fraction(2)),
        m=1,
        model=HilbertModel.product_p1p1(),
    ),
    # Normalised shape of any Fano pair with L = -K_X: lambda = Lambda = 1 and
    # S_1 = n. Alpha invariants must be supplied by the user.
    "Fano-template": PairSource(
        pair=PolarisedPair("Fano-template", 2, Fraction(1), Fraction(1), Fraction(1)),
        m=1,
    ),
}


def catalog_entry(name: str) -> PairSource:
    try:
        return CATALOG[name]
    except KeyError:
        raise InputError(
            f"unknown catalog pair {name!r}; available: {', '.join(CATALOG)}"
        ) from None
