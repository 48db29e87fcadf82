from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logklab import pairmodel
from logklab.errors import InconsistentDataError, InputError
from logklab.exactnum import format_rational, leading_differences
from logklab.normalcone import curve_rows
from logklab.pairmodel import (
    CATALOG,
    FINDING_BOUND_SATURATED,
    FINDING_BOUND_VIOLATED,
    HilbertModel,
    PolarisedPair,
    avg_scalar_s1,
    avg_scalar_sD,
    avg_scalar_sbeta,
    catalog_entry,
    sD_provenance,
    validate_pair,
)
from logklab.thresholds import SingularCriteriaInput
from logklab.weightoracle import admissible_ks, dims_and_weights, oracle_report

betas = st.fractions(min_value=-4, max_value=4, max_denominator=64)


def test_s1_known_values(p2, p3, p1xp1):
    assert avg_scalar_s1(p2) == 6
    assert avg_scalar_s1(p1xp1) == 4
    assert avg_scalar_s1(p3) == 12


def test_sD_known_values(p2, p3, p1xp1):
    assert avg_scalar_sD(p2, 1) == 2
    assert avg_scalar_sD(p3, 1) == 6
    assert avg_scalar_sD(p1xp1, 1) == 1


def test_sD_matches_adjunction_formula():
    for entry in CATALOG.values():
        pair = entry.pair
        n = pair.dimension
        s1 = avg_scalar_s1(pair)
        assert avg_scalar_sD(pair, 1) == Fraction(n - 1, n) * s1 - (n - 1)


def test_sD_needs_surface():
    curve = PolarisedPair("elliptic-like", 1, Fraction(1), Fraction(0))
    with pytest.raises(InputError, match="^S\\^D needs n >= 2; "
                       "the divisor is zero-dimensional for n = 1$"):
        avg_scalar_sD(curve, 1)


def test_sD_derived_extension_label():
    assert sD_provenance(1) == "adjunction, D in |L|"
    assert sD_provenance(4) == "derived extension (m=4)"


def test_sbeta_known_values(p2, p1xp1):
    rep = avg_scalar_sbeta(p2, 4, Fraction(5, 16))
    assert rep.Sbeta == Fraction(1, 2)
    assert rep.mu == Fraction(1, 4)
    rep = avg_scalar_sbeta(p1xp1, 1, Fraction(1, 2))
    assert rep.Sbeta == 3
    assert rep.mu == Fraction(3, 2)


def test_sbeta_at_one_equals_s1():
    for entry in CATALOG.values():
        rep = avg_scalar_sbeta(entry.pair, 1, Fraction(1))
        assert rep.Sbeta == avg_scalar_s1(entry.pair)


@given(betas, betas, st.integers(min_value=1, max_value=6))
def test_sbeta_affine_with_slope_mn(beta1, beta2, m):
    pair = CATALOG["P1xP1-diag"].pair
    r1 = avg_scalar_sbeta(pair, m, beta1)
    r2 = avg_scalar_sbeta(pair, m, beta2)
    assert r2.Sbeta - r1.Sbeta == m * pair.dimension * (beta2 - beta1)
    assert r1.mu * pair.dimension == r1.Sbeta


def test_validate_pair_findings(p2, p1xp1):
    assert validate_pair(p2) == [FINDING_BOUND_SATURATED]
    assert validate_pair(p1xp1) == []
    fabricated = PolarisedPair("fabricated", 2, Fraction(1), Fraction(4))
    assert validate_pair(fabricated) == [FINDING_BOUND_VIOLATED]


def test_validate_pair_not_ample():
    # A pair whose L is not ample never reaches validate_pair: it is refused
    # where it is built.
    with pytest.raises(InputError, match=r"^L_top must be > 0 \(L is ample\), got -1$"):
        PolarisedPair("anti-ample", 2, Fraction(-1), Fraction(1))


@pytest.mark.parametrize("L_top, text", [(0, "0"), (-1, "-1"), (Fraction(-1, 3), "-1/3")])
def test_pair_refuses_a_nonpositive_L_top(L_top, text):
    with pytest.raises(InputError) as exc:
        PolarisedPair("not-ample", 2, L_top, Fraction(1))
    assert str(exc.value) == f"L_top must be > 0 (L is ample), got {text}"


def test_pair_dimension_limit(monkeypatch):
    assert pairmodel.DIMENSION_LIMIT == 512
    assert PolarisedPair("P512", 512, 1, 513).dimension == 512
    with pytest.raises(InputError) as exc:
        PolarisedPair("P513", 513, 1, 514)
    assert str(exc.value) == "dimension must be at most 512, got 513"
    monkeypatch.setattr(pairmodel, "DIMENSION_LIMIT", 3)
    assert PolarisedPair("P3", 3, 1, 4).dimension == 3
    with pytest.raises(InputError, match="^dimension must be at most 3, got 4$"):
        PolarisedPair("P4", 4, 1, 5)


def test_catalog_never_violates_scalar_bound():
    for entry in CATALOG.values():
        assert FINDING_BOUND_VIOLATED not in validate_pair(entry.pair)


def test_pair_construction_guards():
    with pytest.raises(InputError):
        PolarisedPair("flat", 0, Fraction(1), Fraction(1))
    with pytest.raises(InputError):
        PolarisedPair("degenerate", 2, Fraction(0), Fraction(1))
    with pytest.raises(InconsistentDataError):
        PolarisedPair("broken", 2, Fraction(1), Fraction(3), proportional_x=Fraction(2))
    with pytest.raises(InputError):
        pairmodel.multiplicity(0)


def test_pair_construction_coerces_rationals():
    pair = PolarisedPair("P2", 2, 1, "3", proportional_x=3)
    rationals = (pair.L_top, pair.cX_L, pair.proportional_x)
    assert rationals == (1, 3, 3)
    assert all(type(x) is Fraction for x in rationals)


def test_catalog_lookup():
    assert catalog_entry("P2-line").pair.dimension == 2
    with pytest.raises(InputError):
        catalog_entry("nope")


def test_fano_template_shape(fano):
    assert avg_scalar_s1(fano) == fano.dimension
    assert fano.proportional_x == 1


@pytest.mark.parametrize("floor, message", [
    (-1, "hilbert 'floor' must be >= 0, got -1"),
    (10001, "hilbert 'floor' must be at most 10000, got 10001"),
])
def test_explicit_model_floor_bounds(floor, message):
    # Both bounds hold for library callers as for pair files.
    counts = [1, Fraction(3, 2), Fraction(1, 2)]
    with pytest.raises(InputError) as exc:
        HilbertModel.explicit(counts, floor)
    assert str(exc.value) == message
    assert [HilbertModel.explicit(counts, f).floor for f in (0, 10000)] == [0, 10000]


def test_projective_space_model_needs_a_positive_dimension():
    with pytest.raises(InputError, match="^dimension must be >= 1, got 0$"):
        HilbertModel.projective_space(0)


def test_explicit_model_coerces_its_coefficients_to_fractions():
    # As a pair coerces its rationals: a float or a rational text is read, not crashed on.
    model = HilbertModel.explicit([1, Fraction(3, 2), Fraction(1, 2)], 0)
    assert HilbertModel.explicit([1.0, 1.5, 0.5], 0) == model
    assert HilbertModel.explicit(["1", "3/2", "1/2"], 0) == model


# Each site that takes an integer, called with the value, and the name its
# messages give it.
INTEGER_SITES = {
    "m": (pairmodel.multiplicity, "divisor multiplicity"),
    "pair-dimension": (lambda v: PolarisedPair("x", v, 1, 3), "dimension"),
    "criteria-n": (lambda v: SingularCriteriaInput(Sbeta=-3, alpha_beta=1, n=v), "dimension"),
    "explicit-floor": (lambda v: HilbertModel.explicit([1, 1], v), "hilbert 'floor'"),
    "projective-space-n": (HilbertModel.projective_space, "dimension"),
    "steps": (lambda v: curve_rows(CATALOG["P2-line"].pair, Fraction(1, 2), v), "steps"),
    "kmax": (lambda v: oracle_report(CATALOG["P2-line"].pair, HilbertModel.projective_space(2),
                                     Fraction(1, 2), v), "--kmax"),
    "k": (lambda v: dims_and_weights(HilbertModel.projective_space(2), Fraction(1, 2), v), "k"),
    "projective-h_total": (HilbertModel.projective_space(2).h_total, "k"),
    "projective-h_divisor": (HilbertModel.projective_space(2).h_divisor, "j"),
    "explicit-h_total": (HilbertModel.explicit([1, 1], 0).h_total, "k"),
    "explicit-h_divisor": (HilbertModel.explicit([1, 1], 0).h_divisor, "j"),
    "admissible_ks-kmax": (lambda v: admissible_ks(HilbertModel.projective_space(2),
                                                   Fraction(1, 2), v), "--kmax"),
}


@pytest.mark.parametrize("value, text", [
    (2.0, "2.0 (float)"), (True, "True (bool)"), (Fraction(2), "Fraction(2, 1) (Fraction)"),
], ids=["float", "bool", "Fraction"])
@pytest.mark.parametrize("site", INTEGER_SITES)
def test_every_integer_site_refuses_a_value_that_is_not_an_int(site, value, text):
    # One rule, pairmodel.integer, at every site: the type is checked before
    # any bound, so an integral float, a bool or a Fraction never gets in.
    call, what = INTEGER_SITES[site]
    with pytest.raises(InputError) as exc:
        call(value)
    assert str(exc.value) == f"{what} must be an int, got {text}"
    call(2)


def test_builtin_rows_are_the_forward_differences_of_their_counts():
    # The stored row against the comb path the counts take.
    for model in [*(HilbertModel.projective_space(n) for n in range(1, 41)),
                  HilbertModel.product_p1p1()]:
        values = [model.h_total(x) for x in range(model.degree + 1)]
        assert list(model.differences) == leading_differences(values)


def _value(coefficients, k):
    """sum_i coefficients[i] k**i, by Fraction Horner."""
    acc = Fraction(0)
    for a in reversed(coefficients):
        acc = acc * k + a
    return acc


def _non_dimension(value, k):
    return f"explicit model gives a non-dimension value {format_rational(value)} at k = {k}"


def _monomial(steps):
    """The coefficients in k of sum_i steps[i] C(k, i), an integer-valued polynomial."""
    coefficients, falling = [Fraction(0)] * len(steps), [1]
    for i, step in enumerate(steps):
        for m, a in enumerate(falling):
            coefficients[m] += Fraction(step * a, factorial(i))
        falling = [b - i * a for a, b in zip([*falling, 0], [0, *falling])]  # times (k - i)
    return coefficients


@settings(max_examples=300, deadline=None)
@given(st.one_of(
           st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=6), max_size=7),
           st.lists(st.integers(min_value=-50, max_value=50), max_size=7).map(_monomial)),
       st.integers(min_value=0, max_value=5))
@example([1, Fraction(3, 2), Fraction(1, 2)], 0)
@example([3, -4, 1], 0)  # (k - 1)(k - 3): -1 at k = 2
@example([Fraction(1, 2), Fraction(1, 2)], 1)  # (k + 1)/2: 3/2 at k = 2, not at k = 1
@example([0, Fraction(1, 2), Fraction(1, 2), 0, 0], 3)  # C(k + 1, 2), trailing zeros
def test_explicit_model_is_refused_unless_integer_valued(coefficients, floor):
    # Integer values at floor..floor + degree are checked once, when the model
    # is built; then every count is the polynomial's value, or negative.
    degree = max((i for i, a in enumerate(coefficients) if a), default=-1)
    values = {k: _value(coefficients, k) for k in range(floor, 51)}
    fractional = [k for k in range(floor, floor + degree + 1) if values[k].denominator != 1]
    if fractional:
        with pytest.raises(InputError) as exc:
            HilbertModel.explicit(coefficients, floor)
        assert str(exc.value) == _non_dimension(values[fractional[0]], fractional[0])
        return
    model = HilbertModel.explicit(coefficients, floor)
    assert model.degree == degree
    for k, value in values.items():
        if value >= 0:
            assert model.h_total(k) == value
            continue
        with pytest.raises(InputError) as exc:
            model.h_total(k)
        assert str(exc.value) == _non_dimension(value, k)


def _outcome(count, j):
    """count(j), or the message of the InputError it raises."""
    try:
        return count(j)
    except InputError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-30, max_value=30), max_size=6).map(_monomial))
@example(_monomial([5, -2, 0, 1]))  # h_X = 5, 3, 1, 0, 1, ...: h_D(1) = -2
@example(_monomial([2, -3, 2]))  # h_X = 2, -1, -2, -1, 2, ...: h_X(j-1) < 0 <= h_X(j) at j = 4
@example(_monomial([-1, 3]))  # h_X(0) = -1 < 0 < h_X(1)
def test_explicit_divisor_counts_follow_the_restriction_sequence(coefficients):
    # One series gives h_X(j) and h_X(j-1); the value, or the first error:
    # h_X(j), then h_X(j-1), then the sign of their difference.
    model = HilbertModel.explicit(coefficients, 0)

    def restricted(j):
        value = model.h_total(j) - model.h_total(j - 1)
        if value < 0:
            raise InputError(f"divisor dimension negative at j = {j}; model invalid")
        return value

    for j in range(-3, 20):
        assert _outcome(model.h_divisor, j) == _outcome(restricted, j)


def test_hilbert_model_invariants_are_checked_against_the_pair(p2, p3):
    # Riemann-Roch: (n, L^n, c1(X).L^(n-1)) from the top two coefficients.
    p3_counts = [1, Fraction(11, 6), 1, Fraction(1, 6)]  # binom(k+3, 3)
    assert HilbertModel.explicit(p3_counts, 0).invariants() == (3, 1, 4)
    assert HilbertModel.product_p1p1().invariants() == (2, 2, 4)
    model = HilbertModel.projective_space(2)
    assert model.invariants() == (2, 1, 3) and model.degree == 2
    assert model.check_against(p2) is model
    with pytest.raises(InconsistentDataError) as exc:
        model.check_against(p3)
    assert str(exc.value) == ("hilbert kind 'projective_space' gives (n, L^n, c1(X).L^(n-1)) "
                              "= (2, 1, 3) by Riemann-Roch, but the pair has (3, 1, 4)")
