"""Brute-force verification engine for the normal-cone family.

Dimensions and weights are obtained by literally summing the section counts
of the central-fibre decomposition, never through the closed forms they are
meant to check. Interpolation over finite-k samples then recovers the
expansion coefficients, which must agree with normalcone.coefficients
field-by-field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import (
    BelowValidityFloorError,
    DegreeMismatchError,
    InputError,
    NonIntegralCKError,
    ParameterOutOfRangeError,
)
from .exactnum import Polynomial, poly_interpolate
from .normalcone import NormalConeCoefficients, coefficients as closed_form_coefficients
from .pairmodel import PolarisedPair

KIND_PROJECTIVE_SPACE = "projective_space"
KIND_PRODUCT_P1P1 = "product_p1p1"
KIND_EXPLICIT = "explicit"


@dataclass(frozen=True)
class HilbertModel:
    """Exact section-count model h_X(k) for (X, L), with the divisor counts
    h_D(j) = h_X(j) - h_X(j-1) induced by the restriction sequence (m = 1).

    The explicit-polynomial kind carries a validity floor below which the
    polynomial is not trusted to equal the true dimension.
    """

    kind: str
    description: str
    n: int | None = None
    polynomial: Polynomial | None = None
    floor: int = 0

    @classmethod
    def projective_space(cls, n: int) -> "HilbertModel":
        if n < 1:
            raise InputError(f"projective space model needs n >= 1, got {n}")
        return cls(kind=KIND_PROJECTIVE_SPACE, description=f"P^{n} with O(1)", n=n)

    @classmethod
    def product_p1p1(cls) -> "HilbertModel":
        return cls(kind=KIND_PRODUCT_P1P1, description="P1 x P1 with O(1,1)", n=2)

    @classmethod
    def explicit(cls, polynomial: Polynomial, floor: int, description: str = "") -> "HilbertModel":
        if floor < 0:
            raise InputError(f"validity floor must be >= 0, got {floor}")
        return cls(
            kind=KIND_EXPLICIT,
            description=description or "explicit dimension polynomial",
            polynomial=polynomial,
            floor=floor,
        )

    def h_total(self, k: int) -> int:
        """dim H^0(X, L^k) for k >= 0; defined as 0 at k = -1."""
        if k == -1:
            return 0
        if k < 0:
            raise InputError(f"dimension function not defined for k = {k}")
        if self.kind == KIND_PROJECTIVE_SPACE:
            return comb(self.n + k, self.n)
        if self.kind == KIND_PRODUCT_P1P1:
            return (k + 1) ** 2
        value = self.polynomial(k)
        if value.denominator != 1 or value < 0:
            raise InputError(
                f"explicit model gives a non-dimension value {value} at k = {k}"
            )
        return int(value)

    def h_divisor(self, j: int) -> int:
        """dim H^0(D, L~^j) via the restriction sequence; must be >= 0."""
        value = self.h_total(j) - self.h_total(j - 1)
        if value < 0:
            raise InputError(f"divisor dimension negative at j = {j}; model invalid")
        return value


@dataclass(frozen=True)
class WeightSample:
    """Exact per-k dimension and total-weight data for the family at c."""

    k: int
    d_k: int
    w_k: Fraction
    d_tilde_k: int
    w_tilde_k: Fraction
    c: Fraction

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "d_k": self.d_k,
            "w_k": str(self.w_k),
            "d_tilde_k": self.d_tilde_k,
            "w_tilde_k": str(self.w_tilde_k),
            "c": str(self.c),
        }


def _check_admissible(model: HilbertModel, c: Fraction, k: int) -> int:
    """Return the integer ck after validating all preconditions."""
    c = Fraction(c)
    if not (0 < c < 1):
        raise ParameterOutOfRangeError(f"c must satisfy 0 < c < 1, got {c}")
    ck = c * k
    if ck.denominator != 1:
        raise NonIntegralCKError(f"c*k = {ck} is not an integer (c = {c}, k = {k})")
    ck = int(ck)
    if ck < 1:
        raise NonIntegralCKError(f"need c*k >= 1, got c*k = {ck}")
    if k < model.floor or k - ck < model.floor:
        raise BelowValidityFloorError(
            f"k = {k} gives arguments below the model's validity floor {model.floor}"
        )
    return ck


def dims_and_weights(model: HilbertModel, c: Fraction, k: int) -> WeightSample:
    """Literal sums over the central-fibre decomposition at level k.

    d_k counts h_X((1-c)k) plus the divisor blocks; each block t^(ck-i)
    carries weight -(ck-i), so w_k = -sum (ck-i) h_D(k-i). The divisor part
    contributes d~_k = h_D(k) in the single weight -ck.
    """
    c = Fraction(c)
    ck = _check_admissible(model, c, k)
    d = model.h_total(k - ck)
    w = 0
    for i in range(ck):
        block = model.h_divisor(k - i)
        d += block
        w -= (ck - i) * block
    d_tilde = model.h_divisor(k)
    return WeightSample(
        k=k,
        d_k=d,
        w_k=Fraction(w),
        d_tilde_k=d_tilde,
        w_tilde_k=Fraction(-ck * d_tilde),
        c=c,
    )


def admissible_ks(model: HilbertModel, c: Fraction, k_max: int) -> list[int]:
    """All k <= k_max satisfying the decomposition's preconditions."""
    c = Fraction(c)
    out = []
    for k in range(1, k_max + 1):
        try:
            _check_admissible(model, c, k)
        except (NonIntegralCKError, BelowValidityFloorError):
            continue
        out.append(k)
    return out


def flatness_check(model: HilbertModel, c: Fraction, k_max: int) -> bool:
    """True iff d_k = h_X(k) for every admissible k <= k_max.

    The restriction sequence telescopes the divisor blocks back onto
    h_X(k); any corruption of the divisor model breaks the equality.
    """
    for k in admissible_ks(model, c, k_max):
        if dims_and_weights(model, c, k).d_k != model.h_total(k):
            return False
    return True


def _sampling_ks(model: HilbertModel, c: Fraction, count: int) -> list[int]:
    """First `count` admissible multiples of denominator(c)."""
    q = Fraction(c).denominator
    ks: list[int] = []
    j = 1
    while len(ks) < count:
        k = j * q
        j += 1
        try:
            _check_admissible(model, c, k)
        except (NonIntegralCKError, BelowValidityFloorError):
            continue
        ks.append(k)
    return ks


def _interpolate_checked(
    ks: list[int], values: list[Fraction], held_out_k: int, held_out_value: Fraction,
    max_degree: int, label: str,
) -> Polynomial:
    poly = poly_interpolate(list(zip(ks, values)))
    if poly.degree > max_degree:
        raise DegreeMismatchError(
            f"{label} samples need degree {poly.degree} > expected {max_degree}; "
            "raise the validity floor"
        )
    if poly(held_out_k) != held_out_value:
        raise DegreeMismatchError(
            f"{label} interpolant disagrees with the held-out sample at k = {held_out_k}; "
            "the sums are not yet polynomial, raise the validity floor"
        )
    return poly


def _sample_and_recover(
    model: HilbertModel, c: Fraction, n: int
) -> tuple[list[WeightSample], NormalConeCoefficients]:
    """The n+4 samples and the coefficients interpolated from them."""
    samples = [dims_and_weights(model, c, k) for k in _sampling_ks(model, c, n + 4)]
    *fit, held = samples
    ks = [s.k for s in fit]
    w_poly = _interpolate_checked(
        ks, [s.w_k for s in fit], held.k, held.w_k, n + 1, "weight")
    d_poly = _interpolate_checked(
        ks, [Fraction(s.d_k) for s in fit], held.k, Fraction(held.d_k), n, "dimension")
    dt_poly = _interpolate_checked(
        ks, [Fraction(s.d_tilde_k) for s in fit], held.k,
        Fraction(held.d_tilde_k), n - 1, "divisor dimension")
    wt_poly = _interpolate_checked(
        ks, [s.w_tilde_k for s in fit], held.k, held.w_tilde_k, n, "divisor weight")
    return samples, NormalConeCoefficients(
        a0=d_poly.coefficient(n),
        a1=d_poly.coefficient(n - 1),
        b0=w_poly.coefficient(n + 1),
        b1=w_poly.coefficient(n),
        a0_tilde=dt_poly.coefficient(n - 1),
        b0_tilde=wt_poly.coefficient(n),
        c=c,
        n=n,
    )


def recover_coefficients(
    model: HilbertModel, c: Fraction, pair: PolarisedPair
) -> NormalConeCoefficients:
    """Recover a0, a1, b0, b1, a0_tilde, b0_tilde from finite-k samples.

    n+3 consecutive admissible multiples of denominator(c) are sampled plus
    one held-out; the held-out value must match each interpolant exactly,
    which certifies the sums are already polynomial over the sampled range.
    """
    return _sample_and_recover(model, Fraction(c), pair.dimension)[1]


def jna_finite_k(model: HilbertModel, c: Fraction, k: int) -> Fraction:
    """Finite-k normalised average weight J_k = -w_k / (k d_k).

    The maximal normalised weight of the decomposition is 0, so J_k is the
    gap between maximum and average; its interpolated limit is -b0/a0.
    """
    sample = dims_and_weights(model, c, k)
    return -sample.w_k / (k * sample.d_k)


def oracle_report(pair: PolarisedPair, model: HilbertModel, c: Fraction) -> dict:
    """Cross-check record: recovered coefficients vs closed forms.

    match is field-by-field exact equality; a correct build can never
    produce match = False. The closed form comes first, so a bad (pair, c)
    is refused before any sum runs.
    """
    c = Fraction(c)
    closed = closed_form_coefficients(pair, c)
    samples, recovered = _sample_and_recover(model, c, pair.dimension)
    return {
        "pair": pair.name,
        "c": str(c),
        "samples": [s.as_dict() for s in samples],
        "recovered": recovered.as_dict(),
        "closed_form": closed.as_dict(),
        "match": recovered == closed,
    }
