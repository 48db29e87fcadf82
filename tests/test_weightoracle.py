import io
import json
import re
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logklab.errors import InconsistentDataError, InputError, InternalCheckError
from logklab.cli import run
from logklab.closedform import coefficients, df_checked, df_from_coefficients, family
from logklab.exactnum import format_rational, json_record, newton_sums
from logklab.pairmodel import CATALOG, PolarisedPair
from logklab.weightoracle import (
    ORACLE_KMAX_LIMIT,
    ORACLE_LITERAL_LIMIT,
    HilbertModel,
    _first_level,
    admissible_ks,
    dims_and_weights,
    oracle_report,
    sum_samples,
)

from conftest import (
    ORACLE_MODELS,
    TRIANGULATION_BETAS,
    TRIANGULATION_CS,
    TRIANGULATION_PAIRS,
    finite_k_jna,
    flat,
    model_for,
    recovered,
)


# ----------------------------- dimension models -----------------------------


def test_projective_space_counts(p2_model):
    assert [p2_model.h_total(k) for k in range(5)] == [1, 3, 6, 10, 15]
    assert p2_model.h_total(-1) == 0
    assert [p2_model.h_divisor(j) for j in range(1, 5)] == [2, 3, 4, 5]


def test_product_model_counts():
    model = HilbertModel.product_p1p1()
    assert [model.h_total(k) for k in range(4)] == [1, 4, 9, 16]
    assert [model.h_divisor(j) for j in range(1, 4)] == [3, 5, 7]


@pytest.mark.parametrize("model", [*(HilbertModel.projective_space(n) for n in range(1, 9)),
                                   HilbertModel.product_p1p1()])
def test_divisor_counts_satisfy_the_restriction_sequence(model):
    # The builtin kinds count on D itself; Pascal's rule ties them to h_X.
    for j in range(201):
        assert model.h_divisor(j) == model.h_total(j) - model.h_total(j - 1)
    with pytest.raises(InputError, match="^dimension function not defined for k = -2$"):
        model.h_divisor(-1)


def test_explicit_model_matches_builtin(p2_model):
    explicit = HilbertModel.explicit([1, Fraction(3, 2), Fraction(1, 2)], floor=0)
    for k in range(0, 12):
        assert explicit.h_total(k) == p2_model.h_total(k)


# ----------------------------- dims and weights -----------------------------


def test_dims_and_weights_known_values(p2_model):
    s = dims_and_weights(p2_model, Fraction(1, 2), 4)
    assert (s.d_k, s.w_k, s.d_tilde_k, s.w_tilde_k) == (15, -14, 5, -10)
    s = dims_and_weights(p2_model, Fraction(1, 2), 2)
    assert (s.d_k, s.w_k) == (6, -3)
    s = dims_and_weights(p2_model, Fraction(1, 2), 6)
    assert (s.d_k, s.w_k) == (28, -38)


def test_dims_and_weights_guards(p2_model):
    with pytest.raises(InputError, match="^c\\*k = 3/2 is not an integer \\(c = 1/2, k = 3\\)$"):
        dims_and_weights(p2_model, Fraction(1, 2), 3)
    with pytest.raises(InputError, match="^c\\*k = 2/3 is not an integer \\(c = 1/3, k = 2\\)$"):
        dims_and_weights(p2_model, Fraction(1, 3), 2)
    with pytest.raises(InputError, match="^need c\\*k >= 1, got c\\*k = 0$"):
        dims_and_weights(p2_model, Fraction(1, 2), 0)
    with pytest.raises(InputError, match="^blow-up parameter must satisfy 0 < c < 1, got 3/2$"):
        dims_and_weights(p2_model, Fraction(3, 2), 4)
    floored = HilbertModel.explicit([1, Fraction(3, 2), Fraction(1, 2)], floor=4)
    with pytest.raises(InputError, match="^k = 6 gives arguments below "
                                         "the model's validity floor 4$"):
        dims_and_weights(floored, Fraction(1, 2), 6)  # (1-c)k = 3 < floor


def test_weights_nonpositive_everywhere():
    for name, model in ORACLE_MODELS:
        for c in TRIANGULATION_CS:
            for k in admissible_ks(model, c, 30):
                s = dims_and_weights(model, c, k)
                assert s.w_k <= 0
                assert s.w_tilde_k <= 0
                assert s.d_k > 0


def test_weight_sum_against_power_sum_closed_form(p2_model):
    # On P^2 the divisor blocks have h_D(j) = j + 1, so the literal sum
    # -sum_{w=1..ck} w*((1-c)k + w + 1) splits into sums of powers, summed here
    # literally.
    for k in (2, 4, 6, 8, 10, 20):
        c = Fraction(1, 2)
        ck = int(c * k)
        base = (1 - c) * k + 1
        expected = -(base * sum(i for i in range(1, ck + 1))
                     + sum(i**2 for i in range(1, ck + 1)))
        assert dims_and_weights(p2_model, c, k).w_k == expected


# ----------------------------- flatness -----------------------------


def test_flatness_known_values(p2_model, p2, p1xp1):
    assert flat(p2, p2_model, Fraction(1, 2))
    assert flat(p1xp1, HilbertModel.product_p1p1(), Fraction(1, 3))


def test_flatness_all_catalog_models():
    for name, model in ORACLE_MODELS:
        for c in TRIANGULATION_CS:
            assert flat(CATALOG[name].pair, model, c), (name, c)


class _CorruptedModel(HilbertModel):
    """Deliberately wrong divisor counts: lag 2 instead of the restriction rule."""

    def h_divisor(self, j: int) -> int:
        return self.h_total(j) - self.h_total(j - 2) if j >= 2 else self.h_total(j)


def test_flatness_fails_for_corrupted_divisor_model(p2):
    corrupted = _CorruptedModel(*HilbertModel.projective_space(2))
    with pytest.raises(InternalCheckError, match="at k = 2: d_k = 8, polynomial 6$"):
        oracle_report(p2, corrupted, Fraction(1, 2), 60)


# ----------------------------- coefficient recovery -----------------------------


def test_recover_coefficients_p2(p2_model, p2):
    rec = recovered(p2, p2_model, Fraction(1, 2))
    assert (rec.a0, rec.a1) == (Fraction(1, 2), Fraction(3, 2))
    assert (rec.b0, rec.b1) == (Fraction(-5, 48), Fraction(-3, 8))
    assert (rec.a0_tilde, rec.b0_tilde) == (1, Fraction(-1, 2))


def test_recover_coefficients_p1xp1(p1xp1):
    rec = recovered(p1xp1, HilbertModel.product_p1p1(), Fraction(3, 4))
    assert rec == coefficients(p1xp1, Fraction(3, 4))


def test_recover_coefficients_checks_the_model_against_the_pair(p2):
    with pytest.raises(InconsistentDataError, match=r"= \(3, 1, 4\) by Riemann-Roch"):
        recovered(p2, HilbertModel.projective_space(3), Fraction(1, 2))
    with pytest.raises(InputError, match="^blow-up parameter must satisfy "  # c comes first
                                         "0 < c < 1, got 3/2$"):
        recovered(p2, HilbertModel.projective_space(3), Fraction(3, 2))


def test_oracle_report_checks_the_model_against_the_pair(p2):
    p3_model = HilbertModel.projective_space(3)
    with pytest.raises(InconsistentDataError,
                       match=r"= \(3, 1, 4\) by Riemann-Roch, but the pair has \(2, 1, 3\)"):
        oracle_report(p2, p3_model, Fraction(1, 2))
    # The earlier refusals keep their precedence.
    with pytest.raises(InputError, match="--kmax must be at most"):
        oracle_report(p2, p3_model, Fraction(1, 2), ORACLE_KMAX_LIMIT + 1)
    with pytest.raises(InputError, match="^blow-up parameter must satisfy 0 < c < 1, got 3/2$"):
        oracle_report(p2, p3_model, Fraction(3, 2))


def test_recover_coefficients_p3(p3):
    rec = recovered(p3, HilbertModel.projective_space(3), Fraction(1, 2))
    assert rec.a0 == Fraction(1, 6)
    assert rec.a0_tilde == Fraction(1, 2)
    assert rec.b0_tilde == Fraction(-1, 4)


def test_oracle_equality_full_grid():
    for name in TRIANGULATION_PAIRS:
        pair = CATALOG[name].pair
        model = model_for(name)
        for c in TRIANGULATION_CS:
            assert recovered(pair, model, c) == coefficients(pair, c), (name, c)


def test_df_triangulation():
    for name in TRIANGULATION_PAIRS:
        pair = CATALOG[name].pair
        model = model_for(name)
        for c in TRIANGULATION_CS:
            rec = recovered(pair, model, c)
            for beta in TRIANGULATION_BETAS:
                assert df_from_coefficients(rec, beta) == family(pair, c).df(beta).df


class _KinkedModel(HilbertModel):
    """Pre-asymptotic bump below k = 5; polynomial only from there on."""

    def h_total(self, k: int) -> int:
        base = super().h_total(k)
        return base + 1 if 0 <= k < 5 else base


def test_recovery_detects_pre_asymptotic_samples(p2):
    kinked = _KinkedModel(*HilbertModel.projective_space(2))
    with pytest.raises(InternalCheckError, match="k = 2: d_k = 7, polynomial 6"):
        oracle_report(p2, kinked, Fraction(1, 2))


class _OffByOneModel(HilbertModel):
    """One wrong divisor count, at j = 40, past the n + 4 levels a fit would read."""

    def h_divisor(self, j: int) -> int:
        return super().h_divisor(j) + (j == 40)


def test_oracle_report_checks_every_listed_sample(p2):
    model = _OffByOneModel(*HilbertModel.projective_space(2))
    with pytest.raises(InternalCheckError,
                       match="disagree at k = 40: d_k = 862, polynomial 861"):
        oracle_report(p2, model, Fraction(1, 2), 60)


def test_recovery_succeeds_above_raised_floor(p2):
    kinked = _KinkedModel(*HilbertModel.projective_space(2)._replace(floor=5))
    assert recovered(p2, kinked, Fraction(1, 2)) == coefficients(p2, Fraction(1, 2))


# ----------------------------- finite-k J -----------------------------


def test_jna_finite_k_examples(p2_model):
    assert finite_k_jna(p2_model, Fraction(1, 2), [4, 10]) == [Fraction(7, 30),
                                                               Fraction(29, 132)]


def test_jna_limit_matches_closed_form():
    for name in TRIANGULATION_PAIRS:
        pair = CATALOG[name].pair
        model = model_for(name)
        for c in TRIANGULATION_CS:
            rec = recovered(pair, model, c)
            assert -rec.b0 / rec.a0 == family(pair, c).jna()


def test_jna_gap_strictly_decreasing(p2_model, p2):
    limit = family(p2, Fraction(1, 2)).jna()
    gaps = [abs(jna_k - limit)
            for jna_k in finite_k_jna(p2_model, Fraction(1, 2), list(range(2, 22, 2)))]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_jna_gap_strictly_decreasing_all_catalog_models():
    for name, model in ORACLE_MODELS:
        pair = CATALOG[name].pair
        for c in TRIANGULATION_CS:
            q = c.denominator
            limit = family(pair, c).jna()
            gaps = [abs(jna_k - limit)
                    for jna_k in finite_k_jna(model, c, [j * q for j in range(1, 13)])]
            assert all(a > b for a, b in zip(gaps, gaps[1:])), (name, c)


# ----------------------------- report -----------------------------


def test_oracle_report_matches(p2, p2_model):
    report = oracle_report(p2, p2_model, Fraction(1, 2))
    assert report["match"] is True
    assert report["pair"] == "P2-line"
    assert report["c"] == "1/2"
    assert report["recovered"] == report["closed_form"]
    assert report["samples"], "samples must be present"
    assert set(report) == {"pair", "c", "samples", "recovered", "closed_form", "match"}


def test_oracle_report_raises_when_the_closed_form_differs(monkeypatch, p2, p2_model):
    import logklab.weightoracle as weightoracle

    real = weightoracle.closed_form_coefficients
    monkeypatch.setattr(weightoracle, "closed_form_coefficients",
                        lambda pair, c: real(pair, c)._replace(b1=real(pair, c).b1 + 1))
    with pytest.raises(InternalCheckError, match="differ from the closed form"):
        oracle_report(p2, p2_model, Fraction(1, 2))


@pytest.mark.parametrize("i", [0, 1, 2])
def test_oracle_exits_4_when_one_forward_difference_is_perturbed(monkeypatch, capsys, i):
    # D_0 never reaches the read-off of a0..b0~, so only the sample check can
    # refuse it. The row is perturbed past the model's check against the pair,
    # which reads D_1 and D_2; the builtin counts do not read the row.
    real = HilbertModel.check_against

    def perturbed(model, pair):
        steps = real(model, pair).differences
        return model._replace(differences=tuple(step + (j == i) for j, step in enumerate(steps)))

    monkeypatch.setattr(HilbertModel, "check_against", perturbed)
    assert run(["oracle", "catalog:P2-line", "--c", "1/2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "walked sample and sum polynomial disagree at k = 2: d_k = " in captured.err


def test_df_checked_and_oracle_report_on_p128_equal_the_closed_form():
    # The dimension knob, where the Riemann-Roch sums once cost O(n^3).
    n = 128
    pair = PolarisedPair(f"P{n}-hyperplane", n, 1, n + 1, n + 1)
    for c in (Fraction(1, 2), Fraction(1, 7)):
        coeffs, report = df_checked(pair, c, Fraction(1, 2))
        assert (coeffs, report) == (coefficients(pair, c), family(pair, c).df(Fraction(1, 2)))
    report = oracle_report(pair, HilbertModel.projective_space(n), Fraction(1, 2))
    assert report["recovered"] == json_record(coefficients(pair, Fraction(1, 2)))


def test_oracle_report_refuses_a_missing_model_then_a_large_k_max(p2, p2_model):
    missing = "pair 'P2-line' has no dimension model; supply a 'hilbert' block"
    for k_max in (None, 60, ORACLE_KMAX_LIMIT + 1):
        with pytest.raises(InputError) as exc:
            oracle_report(p2, None, Fraction(1, 2), k_max)
        assert str(exc.value) == missing
    with pytest.raises(InputError) as exc:
        oracle_report(p2, p2_model, Fraction(1, 2), ORACLE_KMAX_LIMIT + 1)
    assert str(exc.value) == "--kmax must be at most 10000, got 10001"
    report = oracle_report(p2, p2_model, Fraction(99, 100), ORACLE_KMAX_LIMIT)
    assert [s["k"] for s in report["samples"]] == list(range(100, 10001, 100))


def test_oracle_report_checks_c_a_few_times(monkeypatch, p2, p2_model):
    # Once per call that needs it, not once per level: the listing has 5000.
    import logklab.closedform as closedform
    import logklab.weightoracle as weightoracle

    calls, real = [], closedform._require_c
    for module in (closedform, weightoracle):
        monkeypatch.setattr(module, "_require_c", lambda c: calls.append(c) or real(c))
    report = oracle_report(p2, p2_model, Fraction(1, 2), k_max=ORACLE_KMAX_LIMIT)
    assert len(report["samples"]) == 5000
    assert 1 <= len(calls) <= 6


def test_oracle_report_refuses_a_literal_check_past_its_limit(monkeypatch, p2):
    # The first sample's c k divisor counts, summed one at a time, are
    # refused before any sum runs: here 10^9 - 1 of them.
    model, divisor_args, total_args = _recording(HilbertModel.projective_space(2))
    c = Fraction(10**9 - 1, 10**9)
    with pytest.raises(InputError) as exc:
        oracle_report(p2, model, c)
    assert str(exc.value) == (
        "the literal check of the first sample would sum c*k = 999999999 divisor counts "
        f"at k = 1000000000, more than the limit {ORACLE_LITERAL_LIMIT}")
    assert divisor_args == total_args == []
    # At floor 10000 and c = 99/100 the first level is 10^6, with 990000
    # counts: under the limit, and refused just past it.
    explicit = HilbertModel.explicit(P2_COUNTS, floor=10000)
    monkeypatch.setattr("logklab.weightoracle.ORACLE_LITERAL_LIMIT", 989999)
    with pytest.raises(InputError, match="c\\*k = 990000 divisor counts at k = 1000000,"):
        oracle_report(p2, explicit, Fraction(99, 100))
    monkeypatch.setattr("logklab.weightoracle.ORACLE_LITERAL_LIMIT", 4)
    assert oracle_report(p2, HilbertModel.projective_space(2), Fraction(4, 5))["match"]
    with pytest.raises(InputError, match="c\\*k = 5 divisor counts at k = 6,"):
        oracle_report(p2, HilbertModel.projective_space(2), Fraction(5, 6))


def _recording(model):
    """A copy of model that records every argument its counts are evaluated at."""
    divisor_args, total_args = [], []

    class Recording(HilbertModel):
        def h_divisor(self, j):
            divisor_args.append(j)
            return super().h_divisor(j)

        def h_total(self, k):
            total_args.append(k)
            return super().h_total(k)

    copy = Recording(*model)
    return copy, divisor_args, total_args


def _block_range(c, k):
    """The divisor arguments of the sample at level k: (k - ck, k]."""
    return range(k - int(c * k) + 1, k + 1)


def _literal_divisor_args(c, k):
    """h_divisor arguments of dims_and_weights at level k: the blocks, then d~."""
    return [*_block_range(c, k), k]


def test_oracle_report_sums_each_sample_once(p2):
    # Overlapping block ranges at 1/2 and 5/6, gaps between them at 1/7.
    for c in (Fraction(1, 2), Fraction(1, 7), Fraction(5, 6)):
        model, divisor_args, _ = _recording(HilbertModel.projective_space(2))
        report = oracle_report(p2, model, c)
        ks = [s["k"] for s in report["samples"]]
        assert ks == [j * c.denominator for j in range(1, p2.dimension + 5)]
        # The walk evaluates each j of the union of the block ranges once; the
        # literal cross-check of the first sample evaluates its own j's again.
        union = set().union(*(_block_range(c, k) for k in ks))
        assert Counter(divisor_args) == Counter(union) + Counter(_literal_divisor_args(c, ks[0]))
    # The closed form refuses an n = 1 pair before any sum runs.
    model, divisor_args, total_args = _recording(HilbertModel.projective_space(1))
    line = PolarisedPair("line", 1, Fraction(1), Fraction(2))
    with pytest.raises(InputError, match="^S\\^D needs n >= 2; "
                                         "the divisor is zero-dimensional for n = 1$"):
        oracle_report(line, model, Fraction(1, 2))
    assert divisor_args == total_args == []


P2_COUNTS = [1, Fraction(3, 2), Fraction(1, 2)]
SUM_MODELS = [
    *(HilbertModel.projective_space(n) for n in (*range(1, 6), 8, 16, 32)),
    HilbertModel.product_p1p1(),
    *(HilbertModel.explicit(P2_COUNTS, floor=floor) for floor in range(4)),
]


@settings(max_examples=300, deadline=None)
@given(
    model=st.sampled_from(SUM_MODELS),
    q=st.integers(min_value=2, max_value=60),
    data=st.data(),
)
def test_sum_samples_equals_literal_sums(model, q, data):
    # Small p leaves gaps between the block ranges, p near q overlaps them.
    c = Fraction(data.draw(st.integers(min_value=1, max_value=q - 1)), q)
    multiples = data.draw(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=8))
    admissible = set(admissible_ks(model, c, 12 * c.denominator))
    ks = [m * c.denominator for m in multiples if m * c.denominator in admissible]
    samples = sum_samples(model, c, ks)
    assert samples == [dims_and_weights(model, c, k) for k in ks]
    steps = model.differences

    def sums(k):  # d = H(k), w = G(k) - G((1-c)k) - c k H(k), d~ = H(k) - H(k-1)
        (h, _, g), ck = newton_sums(steps, k), int(c * k)
        return h, g - newton_sums(steps, k - ck)[2] - ck * h, h - newton_sums(steps, k - 1)[0]

    assert [(s.d_k, s.w_k, s.d_tilde_k) for s in samples] == [sums(k) for k in ks]


def _binomial_basis(degree):
    """binom(k, i) as coefficient lists in k, for i = 0..degree."""
    basis, falling = [], [1]
    for i in range(degree + 1):
        basis.append([Fraction(a, factorial(i)) for a in falling])
        falling = [b - i * a for a, b in zip([*falling, 0], [0, *falling])]  # times (k - i)
    return basis


def _assert_refuses_what_it_names(model, refusal):
    """The j or k that the walk's InputError names is itself refused by the
    model's count there: the walk stops at a real fault of the model."""
    count, at = re.search(r"at ([jk]) = (-?\d+)", str(refusal)).groups()
    with pytest.raises(InputError):
        (model.h_divisor if count == "j" else model.h_total)(int(at))


@settings(max_examples=150, deadline=None)
@given(
    coefficients=st.lists(st.integers(min_value=-3, max_value=12), min_size=1, max_size=6),
    leading=st.integers(min_value=1, max_value=4),
    floor=st.integers(min_value=0, max_value=5),
    q=st.integers(min_value=2, max_value=200),
    data=st.data(),
)
def test_forward_differences_equal_literal_sums(coefficients, leading, floor, q, data):
    # An integer-valued explicit model of degree 1..6: integer coefficients
    # in the binomial basis. Negative ones can make it invalid: then both
    # paths raise, each where it meets a bad count first.
    terms = [*coefficients, leading]
    h = [0] * len(terms)
    for a, binomial in zip(terms, _binomial_basis(len(coefficients))):
        for m, b in enumerate(binomial):
            h[m] += a * b
    model = HilbertModel.explicit(h, floor=floor)
    # Small p leaves gaps between the block ranges, p near q overlaps them.
    p = data.draw(st.one_of(st.integers(min_value=1, max_value=min(3, q - 1)),
                            st.integers(min_value=max(1, q - 3), max_value=q - 1)))
    c = Fraction(p, q)
    ks = admissible_ks(model, c, 6 * c.denominator)
    try:
        literal = [dims_and_weights(model, c, k) for k in ks]
    except InputError:
        with pytest.raises(InputError) as refusal:
            sum_samples(model, c, ks)
        _assert_refuses_what_it_names(model, refusal.value)
    else:
        assert sum_samples(model, c, ks) == literal


@pytest.mark.parametrize("c", [Fraction(1, 7), Fraction(2, 9), Fraction(3, 11),
                               Fraction(1, 2), Fraction(5, 6), Fraction(59, 60)])
@pytest.mark.parametrize("floor", [0, 3])
def test_sum_samples_evaluates_only_where_the_literal_sums_do(c, floor):
    explicit = HilbertModel.explicit(P2_COUNTS, floor=floor)
    ks = admissible_ks(explicit, c, 9 * c.denominator)
    model, divisor_args, total_args = _recording(explicit)
    samples = sum_samples(model, c, ks)
    walk_divisor, walk_total = list(divisor_args), set(total_args)
    divisor_args.clear()
    total_args.clear()
    assert samples == [dims_and_weights(model, c, k) for k in ks]
    # Each j once, at exactly the literal sums' arguments; h_total at no new k.
    assert sorted(walk_divisor) == sorted(set(divisor_args))
    assert walk_total <= set(total_args)


def test_flatness_check_calls_each_divisor_count_once(p2_model):
    model, divisor_args, _ = _recording(p2_model)
    samples = sum_samples(model, Fraction(1, 2), admissible_ks(model, Fraction(1, 2), 60))
    assert all(sample.d_k == model.h_total(sample.k) for sample in samples)
    assert sorted(divisor_args) == list(range(2, 61))


def _runs(c, ks):
    """The number of maximal contiguous runs of the union of the block ranges."""
    union = sorted(set().union(*(_block_range(c, k) for k in ks)))
    return 1 + sum(b != a + 1 for a, b in zip(union, union[1:]))


@pytest.mark.parametrize("c", [Fraction(9511, 10000), Fraction(95111, 100000), Fraction(1, 7)])
def test_walk_asks_a_few_counts_per_run(monkeypatch, c):
    # The seeds and the literal check of the last count, whatever q is.
    model = CATALOG["P4-hyperplane"].model
    # The first 8 admissible levels; at these q they lie past the listing
    # bound that admissible_ks holds k_max to.
    ks = [_first_level(model, c) + i * c.denominator for i in range(8)]
    # Counted on the class, so type(model) stays HilbertModel: the plain path.
    calls, real = [], HilbertModel.h_divisor
    monkeypatch.setattr(HilbertModel, "h_divisor", lambda self, j: calls.append(j) or real(self, j))
    samples = sum_samples(model, c, ks)
    assert len(calls) <= (model.degree + 1) * _runs(c, ks)
    calls.clear()
    assert samples[0] == dims_and_weights(model, c, ks[0])
    assert len(calls) == int(c * ks[0]) + 1  # one call per block, and d~


def test_oracle_exits_4_when_a_runs_last_count_is_off_by_one(monkeypatch, capsys):
    # P2 at c = 9/10 with the default --kmax 60: the block ranges of
    # k = 10..60 make one run, (1, 60], of 59 values and 11 records: jumped.
    real = HilbertModel.h_divisor
    monkeypatch.setattr(HilbertModel, "h_divisor", lambda self, j: real(self, j) + (j == 60))
    assert run(["oracle", "catalog:P2-line", "--c", "9/10"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "forward differences and the literal divisor count disagree at j = 60: 61 != 62" \
        in captured.err


def _binomial_off_at_2(differences, x):
    """exactnum.newton_sums with its running binomial C(x - 1, 2) one too large."""
    y, below, rise, ahead, previous, binomial = x - 1, 0, 0, 0, 0, 1
    for i, step in enumerate(differences):
        binomial += i == 2
        following = binomial * (y - i) // (i + 1)
        below += step * binomial
        rise += step * previous
        ahead += step * following
        previous, binomial = binomial, following
    return below + rise, below, below + ahead


def _sum_off_past_50(differences, x):
    at, below, ahead = newton_sums(differences, x)
    return at, below, ahead + (differences[-1] if x > 50 else 0)


def _below_off_past_30(differences, x):
    at, below, ahead = newton_sums(differences, x)
    return at, below + (x > 30), ahead


@pytest.mark.parametrize("mutant", [_binomial_off_at_2, _sum_off_past_50, _below_off_past_30])
def test_a_wrong_newton_series_exits_4_or_changes_nothing(monkeypatch, capsys, mutant):
    # The walk and the sample check both read exactnum.newton_sums, so a
    # fault there reaches both; the literal first sample (builtin counts by
    # comb) and the closed form must still refuse any output it would change.
    import logklab.pairmodel as pairmodel
    import logklab.weightoracle as weightoracle

    argvs = [["oracle", f"catalog:{name}", "--c", c]
             for name in ("P2-line", "P3-hyperplane", "P4-hyperplane", "P1xP1-diag")
             for c in ("1/2", "9/10", "9501/10000")]
    expected = []
    for argv in argvs:
        assert run(argv) == 0
        expected.append(capsys.readouterr().out)
    monkeypatch.setattr(weightoracle, "newton_sums", mutant)
    monkeypatch.setattr(pairmodel, "newton_sums", mutant)
    codes = []
    for argv, out in zip(argvs, expected):
        codes.append(run(argv))
        captured = capsys.readouterr()
        assert (codes[-1], captured.out) in ((4, ""), (0, out)), argv
    assert 4 in codes


# h_X(k) = 1 + sum_{1<=j<=k} ((j - 5)^2 + 1): every count is positive, but the
# forward differences of h_D at j < 5 are not all >= 0.
DIP_COUNTS = [1, Fraction(127, 6), Fraction(-9, 2), Fraction(1, 3)]


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(9, 10), Fraction(1, 7), Fraction(5, 6)])
def test_negative_forward_difference_counts_the_run(c):
    model = HilbertModel.explicit(DIP_COUNTS, floor=0)
    assert [model.h_divisor(j) for j in range(1, 12)] == [(j - 5) ** 2 + 1 for j in range(1, 12)]
    ks = admissible_ks(model, c, 12 * c.denominator)
    # The walk gives the samples, also where the first run starts at
    # Δh_D(j) = 2j - 9 < 0.
    assert sum_samples(model, c, ks) == [dims_and_weights(model, c, k) for k in ks]


def test_valley_model_reads_each_divisor_count_once(monkeypatch):
    import logklab.weightoracle as weightoracle

    model, c = HilbertModel.explicit(DIP_COUNTS, floor=0), Fraction(1, 2)
    ks = admissible_ks(model, c, 2000)
    # Counted on the class, so type(model) stays HilbertModel: the plain path.
    calls, literal_sums = [], []
    real_count, real_sum = HilbertModel.h_divisor, weightoracle.dims_and_weights
    monkeypatch.setattr(HilbertModel, "h_divisor",
                        lambda self, j: calls.append(j) or real_count(self, j))
    monkeypatch.setattr(weightoracle, "dims_and_weights",
                        lambda *args: literal_sums.append(args) or real_sum(*args))
    samples = sum_samples(model, c, ks)
    assert literal_sums == []
    assert sorted(calls) == sorted(set().union(*(_block_range(c, k) for k in ks)))
    assert samples[::100] == [real_sum(model, c, k) for k in ks[::100]]


def test_counted_run_limit(monkeypatch):
    # At c = 9/10 the first seven block ranges (t, 10 t] join into one run of
    # 69 counts from j = 2, which the walk counts.
    import logklab.weightoracle as weightoracle

    model, c = HilbertModel.explicit(DIP_COUNTS, floor=0), Fraction(9, 10)
    ks = admissible_ks(model, c, 70)
    monkeypatch.setattr(weightoracle, "ORACLE_LITERAL_LIMIT", 69)
    assert sum_samples(model, c, ks) == [dims_and_weights(model, c, k) for k in ks]
    monkeypatch.setattr(weightoracle, "ORACLE_LITERAL_LIMIT", 68)
    with pytest.raises(InputError, match="^the walk would count a run of 69 divisor counts "
                                         "from j = 2, more than the limit 68$"):
        sum_samples(model, c, ks)


def test_walk_refuses_a_bad_model_without_the_literal_path(monkeypatch):
    # h_D(j) < 0 for j = 14..22 only, past the first sample's range (1, 2] at
    # c = 1/2: the walk meets j = 14 first and refuses the model itself.
    import logklab.weightoracle as weightoracle

    model = HilbertModel.explicit(
        [0, Fraction(25213, 12), Fraction(-2437, 24), Fraction(5, 12), Fraction(1, 24)], floor=0)
    assert [j for j in range(1, 40) if _refuses(model, j)] == list(range(14, 23))

    def literal(*args):
        raise AssertionError("the literal path ran")

    monkeypatch.setattr(weightoracle, "dims_and_weights", literal)
    with pytest.raises(InputError, match="^divisor dimension negative at j = 14; model invalid$"):
        sum_samples(model, Fraction(1, 2), admissible_ks(model, Fraction(1, 2), 60))


def _refuses(model, j):
    try:
        model.h_divisor(j)
    except InputError:
        return True
    return False


def test_admissible_ks(p2_model):
    assert admissible_ks(p2_model, Fraction(1, 2), 10) == [2, 4, 6, 8, 10]
    assert admissible_ks(p2_model, Fraction(2, 3), 10) == [3, 6, 9]


def test_admissible_ks_holds_k_max_to_the_listing_bound(p2_model):
    # Its own bound, not only oracle_report's: a library caller's k_max of
    # 2 10^6 would build a list of 10^6 levels.
    assert admissible_ks(p2_model, Fraction(1, 2), ORACLE_KMAX_LIMIT)[-1] == ORACLE_KMAX_LIMIT
    with pytest.raises(InputError) as exc:
        admissible_ks(p2_model, Fraction(1, 2), 2 * 10**6)
    assert str(exc.value) == "--kmax must be at most 10000, got 2000000"


@settings(max_examples=200, deadline=None)
@given(
    c=st.fractions(min_value=0, max_value=1, max_denominator=30).filter(lambda c: 0 < c < 1),
    floor=st.integers(min_value=0, max_value=6),
    k_max=st.integers(min_value=-3, max_value=80),
)
def test_admissible_ks_keeps_every_k_the_checks_accept(c, floor, k_max):
    model = HilbertModel.explicit(P2_COUNTS, floor=floor)
    accepted = []
    for k in range(1, k_max + 1):
        try:
            dims_and_weights(model, c, k)
        except InputError as exc:  # the refusals of c k and of the floor only
            if not re.search(r"c\*k|validity floor", str(exc)):
                raise
            continue
        accepted.append(k)
    assert admissible_ks(model, c, k_max) == accepted


@settings(max_examples=60, deadline=None)
@given(
    c=st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda c: 0 < c < 1),
    floor=st.integers(min_value=0, max_value=6),
    k_max=st.integers(min_value=-3, max_value=120),
)
def test_oracle_levels_are_the_admissible_ks(c, floor, k_max):
    # The fit and the --kmax listing are both leading runs of the admissible
    # levels. At most `floor` multiples of q fall below the floor, so
    # (floor + n + 4) q reaches past the fitted n + 4.
    pair = CATALOG["P2-line"].pair
    n = pair.dimension
    model = HilbertModel.explicit(P2_COUNTS, floor=floor)
    report = oracle_report(pair, model, c)
    fitted = admissible_ks(model, c, (floor + n + 4) * c.denominator)[:n + 4]
    assert [s["k"] for s in report["samples"]] == fitted
    doc = {"name": "P2-explicit", "dimension": n, "L_top": "1", "cX_L": "3", "divisor": {"m": 1},
           "hilbert": {"kind": "explicit", "coefficients": ["1", "3/2", "1/2"], "floor": floor}}
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "pair.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with redirect_stdout(out):
            code = run(["oracle", str(path), "--c", format_rational(c), "--kmax", str(k_max)])
    assert code == 0
    listed = [s["k"] for s in json.loads(out.getvalue())["samples"]]
    assert listed == admissible_ks(model, c, k_max)
