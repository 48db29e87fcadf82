import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logklab.errors import InputError, InternalCheckError, PreconditionFailedError
from logklab.cli import run
from logklab.closedform import _pair_of, family, instability_threshold
from logklab.curve import _reports, curve_rows
from logklab.df import df_checked, df_from_coefficients
from logklab.expansion import NormalConeCoefficients, coefficients
from logklab.hilbert import forward_differences
from logklab.kernel import _Kernel, _kernel
from logklab.normalcone import (
    SIGN_BITS_LIMIT,
    CriticalBracket,
    _root_estimate,
    critical_c,
    find_destabilizer,
)
from logklab.pairmodel import CATALOG, DIMENSION_LIMIT, PolarisedPair

from conftest import (
    _kernel_at_half_beta, _kernel_claiming_root, corrupt_signs, g_values, true_signs)

C_GRID = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]
BETA_GRID = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
open_unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=10**4).filter(
    lambda q: 0 < q < 1
)
# L^n of a pair: L is ample.
positive_tops = st.fractions(min_value=0, max_value=100, max_denominator=1000).filter(
    lambda q: q > 0)


# ----------------------------- coefficients -----------------------------


def test_coefficients_p2_at_half(p2):
    co = coefficients(p2, Fraction(1, 2))
    assert (co.a0, co.a1, co.b0, co.b1) == (
        Fraction(1, 2), Fraction(3, 2), Fraction(-5, 48), Fraction(-3, 8))
    assert (co.a0_tilde, co.b0_tilde) == (Fraction(1), Fraction(-1, 2))


def test_coefficients_p1xp1_at_three_quarters(p1xp1):
    co = coefficients(p1xp1, Fraction(3, 4))
    assert co.a0 == 1
    assert co.a0_tilde == 2
    assert co.b0_tilde == Fraction(-3, 2)
    assert co.b0 == Fraction(63, 64) / 3 - Fraction(3, 4)  # = -27/64
    assert co.b0 == Fraction(-27, 64)


def test_coefficients_structural_identities():
    for name in ("P2-line", "P3-hyperplane", "P4-hyperplane", "P1xP1-diag"):
        pair = CATALOG[name].pair
        for c in C_GRID:
            co = coefficients(pair, c)
            assert co.a0 > 0
            assert co.b0 < 0
            assert co.a0_tilde == pair.dimension * co.a0
            assert co.b0_tilde == -c * pair.dimension * co.a0
            assert family(pair, c).df(Fraction(0)).positive_prefactor > 0


def test_coefficients_guards(p2):
    for c, text in ((Fraction(0), "0"), (Fraction(1), "1"), (Fraction(3, 2), "3/2")):
        with pytest.raises(InputError, match=f"^blow-up parameter must satisfy "
                                             f"0 < c < 1, got {text}$"):
            coefficients(p2, c)
    curve_pair = PolarisedPair("curve", 1, Fraction(2), Fraction(2))
    with pytest.raises(InputError, match="^S\\^D needs n >= 2; "
                                         "the divisor is zero-dimensional for n = 1$"):
        coefficients(curve_pair, Fraction(1, 2))


# ----------------------------- DF evaluation -----------------------------


def test_df_closed_worked_example(p2):
    rep = family(p2, Fraction(1, 2)).df(Fraction(1, 2))
    assert rep.df == Fraction(-1, 48)
    assert rep.inner_factor == Fraction(-1, 14)
    assert rep.positive_prefactor == Fraction(7, 24)
    assert rep.df == rep.positive_prefactor * rep.inner_factor


def test_df_closed_p1xp1(p1xp1):
    rep = family(p1xp1, Fraction(3, 4)).df(Fraction(1, 4))
    assert rep.df == Fraction(-15, 128)
    assert rep.inner_factor == Fraction(-5, 28)
    assert rep.positive_prefactor == Fraction(21, 32)


def test_df_zero_at_constructed_root(p2):
    # beta chosen as -(S_D/(n-1)) * g(1/2) = 2 * 2/7
    assert family(p2, Fraction(1, 2)).df(Fraction(4, 7)).df == 0


def test_df_from_coefficients_examples(p2):
    co = coefficients(p2, Fraction(1, 2))
    assert df_from_coefficients(co, Fraction(1, 2)) == Fraction(-1, 48)
    assert df_from_coefficients(co, Fraction(1)) == Fraction(1, 8)


def test_cross_path_identity_on_grid():
    for name in ("P2-line", "P3-hyperplane", "P4-hyperplane", "P1xP1-diag"):
        pair = CATALOG[name].pair
        for c in C_GRID:
            co = coefficients(pair, c)
            for beta in BETA_GRID:
                assert df_from_coefficients(co, beta) == family(pair, c).df(beta).df


@settings(deadline=None)
@given(
    st.fractions(min_value=-4, max_value=4, max_denominator=64),
    st.fractions(min_value=-4, max_value=4, max_denominator=64),
)
def test_df_affine_in_beta(beta1, beta2):
    pair = CATALOG["P3-hyperplane"].pair
    c = Fraction(2, 3)
    mid = (beta1 + beta2) / 2
    assert 2 * family(pair, c).df(mid).df == (
        family(pair, c).df(beta1).df + family(pair, c).df(beta2).df)


def test_df_slope_in_beta_is_prefactor(p2):
    c = Fraction(1, 3)
    rep0 = family(p2, c).df(Fraction(0))
    rep1 = family(p2, c).df(Fraction(1))
    assert rep1.df - rep0.df == rep0.positive_prefactor


# ----------------------------- g factor -----------------------------


def test_g_range_on_seeded_random_rationals():
    import random

    rng = random.Random(20260809)
    for n in range(2, 7):
        cs = []
        for _ in range(200):
            den = rng.randint(2, 10**6)
            cs.append(Fraction(rng.randint(1, den - 1), den))
        for g in g_values(n, cs):
            assert Fraction(-1, n) < g < 0


def test_g_strictly_decreasing():
    for n in (2, 3, 5):
        values = g_values(n, [Fraction(i, 64) for i in range(1, 64)])
        assert all(a > b for a, b in zip(values, values[1:]))


# ----------------------------- J^NA -----------------------------


def test_jna_known_values(p2, p1xp1):
    assert family(p2, Fraction(1, 2)).jna() == Fraction(5, 24)
    assert family(p1xp1, Fraction(3, 4)).jna() == Fraction(27, 64)


def test_jna_small_c_positive_and_small(p2):
    value = family(p2, Fraction(1, 1000)).jna()
    assert 0 < value < Fraction(1, 1000)


@settings(deadline=None)
@given(open_unit_fractions)
def test_jna_positive_on_open_interval(c):
    pair = CATALOG["P3-hyperplane"].pair
    assert family(pair, c).jna() > 0


def test_jna_equals_minus_b0_over_a0():
    for name in ("P2-line", "P3-hyperplane", "P1xP1-diag"):
        pair = CATALOG[name].pair
        for c in C_GRID:
            co = coefficients(pair, c)
            assert family(pair, c).jna() == -co.b0 / co.a0


# ----------------------------- threshold and search -----------------------------


def test_instability_threshold_examples(p2, p3, p1xp1):
    assert instability_threshold(p2) == 1
    assert instability_threshold(p3) == 1
    assert instability_threshold(p1xp1) == Fraction(1, 2)


def test_find_destabilizer_examples(p2, p1xp1):
    c, df = find_destabilizer(p1xp1, Fraction(1, 4))
    assert 0 < c < 1 and df < 0
    c, df = find_destabilizer(p2, Fraction(1, 2))
    assert family(p2, c).df(Fraction(1, 2)).df == df < 0
    # c = 1/2 itself qualifies; the dyadic schedule finds it immediately
    assert c == Fraction(1, 2)


def test_find_destabilizer_at_threshold_refuses(p2):
    with pytest.raises(PreconditionFailedError) as exc:
        find_destabilizer(p2, Fraction(1))
    assert str(exc.value) == ("beta = 1 is not below the instability threshold 1; "
                              "DF > 0 for every c in (0, 1)")


def test_positive_df_at_and_above_threshold(p2, p1xp1):
    for pair in (p2, p1xp1):
        thr = instability_threshold(pair)
        for c in C_GRID:
            assert family(pair, c).df(thr).df > 0
            assert family(pair, c).df(thr + Fraction(1, 7)).df > 0


def test_find_destabilizer_guards():
    # L^n = 1 and c1(X).L^(n-1) = 999/1000 in dimension 512: s < 0, and DF < 0
    # on (0, c*), with c* about 2^10 |beta|, 2^-13277 at beta = -10^-4000. The
    # search stops at the depth, 2^-584, after a few dozen signs.
    pair = PolarisedPair("small-s", 512, 1, Fraction(999, 1000))
    c, df = find_destabilizer(pair, Fraction(-1, 2**594))
    assert c == Fraction(1, 2**584) and df < 0
    for beta in (Fraction(-1, 2**595), Fraction(-1, 10**4000)):
        with pytest.raises(InputError, match="^finding a destabilising c needs a sign at "
                                             "c = a/2\\^j with j > 584, the search depth in "
                                             "dimension 512$"):
            find_destabilizer(pair, beta)


def test_tol_bits_limit():
    # critical_c's tol is held to 2^-depth, depth = SIGN_BITS_LIMIT // (n + 1):
    # P4 keeps the 60000 bits it had, above the 4096 the benchmark sends, and
    # one bit more is refused before any work.
    for n, depth in ((4, 60000), (512, 584)):
        assert SIGN_BITS_LIMIT // (n + 1) == depth
        pair = PolarisedPair(f"P{n}-hyperplane", n, 1, n + 1)
        with pytest.raises(InputError, match=f"^tol must be at least 2\\^-{depth}$"):
            critical_c(pair, Fraction(1, 2), Fraction(1, 2**(depth + 1)))


# ----------------------------- critical c -----------------------------


def test_critical_c_p2(p2):
    tol = Fraction(1, 1024)
    bracket = critical_c(p2, Fraction(1, 2), tol)
    assert not bracket.all_destabilizing
    assert bracket.hi - bracket.lo <= tol
    assert family(p2, bracket.lo).df(Fraction(1, 2)).inner_factor > 0
    assert family(p2, bracket.hi).df(Fraction(1, 2)).inner_factor < 0


def test_critical_c_p1xp1_sign_change(p1xp1):
    bracket = critical_c(p1xp1, Fraction(1, 4), Fraction(1, 4096))
    assert family(p1xp1, bracket.lo).df(Fraction(1, 4)).df > 0
    assert family(p1xp1, bracket.hi).df(Fraction(1, 4)).df < 0


def test_critical_c_loose_tolerance(p2):
    bracket = critical_c(p2, Fraction(1, 2), Fraction(1))
    assert 0 < bracket.lo <= bracket.hi < 1
    assert bracket.hi - bracket.lo <= 1


def test_critical_c_exact_rational_root(p2):
    bracket = critical_c(p2, Fraction(4, 7), Fraction(1, 10**9))
    assert bracket.lo == bracket.hi == Fraction(1, 2)


def test_critical_c_sentinel_for_nonpositive_beta(p2):
    bracket = critical_c(p2, Fraction(0), Fraction(1, 8))
    assert bracket.all_destabilizing
    assert (bracket.lo, bracket.hi) == (0, 0)
    bracket = critical_c(p2, Fraction(-3), Fraction(1, 8))
    assert bracket.all_destabilizing


def test_critical_c_refuses_at_threshold(p2):
    with pytest.raises(PreconditionFailedError,
                       match="^beta = 1 is not below the instability threshold 1$"):
        critical_c(p2, Fraction(1), Fraction(1, 8))


def test_critical_c_returns_the_closed_form_inner_factors(p2):
    beta = Fraction(1, 2)
    bracket = critical_c(p2, beta, Fraction(1, 1024))
    assert bracket.lo_inner == family(p2, bracket.lo).df(beta).inner_factor
    assert bracket.hi_inner == family(p2, bracket.hi).df(beta).inner_factor
    assert bracket.lo_inner > 0 > bracket.hi_inner
    root = critical_c(p2, Fraction(4, 7), Fraction(1, 1024))
    assert root == (Fraction(1, 2), Fraction(1, 2), False, 0, 0)
    sentinel = critical_c(p2, Fraction(0), Fraction(1, 8))
    assert (sentinel.lo_inner, sentinel.hi_inner) == (None, None)


@pytest.mark.parametrize("name", ["P2-line", "P4-hyperplane"])
def test_critical_c_end_checks_read_the_inner_factor_alone(monkeypatch, name):
    # The end checks need the closed form's inner factor only, not the DF,
    # prefactor and J^NA of a whole report.
    import logklab.closedform as closedform

    pair, beta, tol = CATALOG[name].pair, Fraction(1, 2), Fraction(1, 2**64)
    bracket = critical_c(pair, beta, tol)

    def refuse(self, beta):
        raise AssertionError("critical_c built a DF report")

    monkeypatch.setattr(closedform.Family, "df", refuse)
    assert critical_c(pair, beta, tol) == bracket


@pytest.mark.parametrize("corrupt", [_kernel_at_half_beta, _kernel_claiming_root])
def test_critical_c_raises_when_sign_kernel_disagrees(monkeypatch, p2, corrupt):
    # The signs come from another kernel than the estimate: either the
    # estimate's start lies right of the true root, or the probes confirm no
    # cell, or they confirm one that the closed form refuses.
    corrupt_signs(monkeypatch, corrupt, p2, Fraction(1, 2))
    with pytest.raises(InternalCheckError):
        critical_c(p2, Fraction(1, 2), Fraction(1, 1024))


def test_critical_c_raises_when_the_kernel_is_wrong(monkeypatch, p2):
    # One wrong kernel gives both the signs and the estimate: they agree on
    # the root for beta/2, and the closed form at the true beta refuses it.
    import logklab.normalcone as normalcone

    real = normalcone._kernel
    monkeypatch.setattr(normalcone, "_kernel",
                        lambda constants, beta: real(constants, beta / 2))
    beta = Fraction(1, 2)
    seeds = _seed_probes(monkeypatch, p2, beta)
    _counted_signs(monkeypatch, limit=seeds + 2)
    with pytest.raises(InternalCheckError, match="does not change sign across the bracket"):
        critical_c(p2, beta, Fraction(1, 2**512))


def _counted_signs(monkeypatch, limit=None, wrong=None):
    """Record each (a, d) that any _Kernel is asked the sign at, failing the
    test past limit calls rather than run on; answer with wrong's signs
    ((a, d) -> sign) if given, else with the kernel's own."""
    real, calls = _Kernel.sign, []

    def counted(kernel, a, d):
        calls.append((a, d))
        assert limit is None or len(calls) <= limit, f"more than {limit} signs"
        return real(kernel, a, d) if wrong is None else wrong(a, d)

    monkeypatch.setattr(_Kernel, "sign", counted)
    return calls


def _seed_probes(monkeypatch, pair, beta, wrong=None):
    """The signs the galloping seeds take: critical_c at tol 1 stops at the
    seed bracket, whose end check may refuse signs from wrong."""
    calls = _counted_signs(monkeypatch, wrong=wrong)
    try:
        critical_c(pair, beta, Fraction(1))
    except InternalCheckError:
        assert wrong is not None
    return len(calls)


def _halvings(pair, beta, tol):
    """K - k0: the halvings that take the seed bracket to width <= tol."""
    lo, hi = _reference_seeds(pair, beta)
    m = 0
    while hi - lo > tol * 2**m:
        m += 1
    return m


def _assert_bisection_cell(pair, beta, tol, bracket):
    """bracket is a cell of the bisection's last grid, the seed bracket cut
    into 2^(K - k0) equal cells, across which the closed form changes sign:
    so it is the bracket the bisection returns, without running it."""
    lo0, hi0 = _reference_seeds(pair, beta)
    cells = 2 ** _halvings(pair, beta, tol)
    assert (hi0 - lo0) / (bracket.hi - bracket.lo) == cells
    assert ((bracket.lo - lo0) * cells / (hi0 - lo0)).denominator == 1
    assert bracket.lo_inner > 0 > bracket.hi_inner


def test_critical_c_p4_at_4096_bits_takes_a_few_signs(monkeypatch):
    # The bisection makes one sign call per bit past the seeds here; the
    # estimate leaves the seeds and at most two probes.
    pair, beta, tol = CATALOG["P4-hyperplane"].pair, Fraction(1, 2), Fraction(1, 2**4096)
    seeds = _seed_probes(monkeypatch, pair, beta)
    calls = _counted_signs(monkeypatch)
    bracket = critical_c(pair, beta, tol)
    assert len(calls) <= seeds + 2 and seeds <= 8
    assert bracket.hi - bracket.lo <= tol and _halvings(pair, beta, tol) > 4000
    _assert_bisection_cell(pair, beta, tol, bracket)


@pytest.mark.parametrize("n", [16, 64])
def test_critical_c_on_projective_space_takes_a_few_signs(monkeypatch, n):
    # P^n with a hyperplane at 2^-512: the seeds, then at most two probes.
    pair, tol = PolarisedPair(f"P{n}-hyperplane", n, 1, n + 1), Fraction(1, 2**512)
    beta = Fraction(1, 2) * instability_threshold(pair)
    seeds = _seed_probes(monkeypatch, pair, beta)
    calls = _counted_signs(monkeypatch)
    bracket = critical_c(pair, beta, tol)
    assert len(calls) <= seeds + 2
    if n == 16:
        assert bracket == _reference_critical_c(pair, beta, tol)
    else:
        _assert_bisection_cell(pair, beta, tol, bracket)


def test_critical_c_seeds_gallop(monkeypatch):
    # c* lies within about 2^-1000 of 0: one sign per seed bit would take 1003.
    pair, beta, tol = CATALOG["P3-hyperplane"].pair, Fraction(1, 2**1000), Fraction(1, 2**10)
    _counted_signs(monkeypatch, limit=32)
    assert critical_c(pair, beta, tol) == _reference_critical_c(pair, beta, tol)


@pytest.mark.parametrize("estimate", [
    lambda kernel, u0, bits: (u0.numerator << bits) // u0.denominator,  # the start, unrefined
    lambda kernel, u0, bits: 0,
    lambda kernel, u0, bits: 1 << bits,
    lambda kernel, u0, bits: _root_estimate(kernel, u0, bits) + 3,  # off in the last bits
    lambda kernel, u0, bits: -(1 << (2 * bits)),
])
@pytest.mark.parametrize("name, share", [
    ("P2-line", Fraction(4, 7)),  # c* = 1/2, an exact root
    ("P2-line", Fraction(1, 2)),
    ("P4-hyperplane", Fraction(1, 2)),
    ("P1xP1-diag", Fraction(15, 16)),
])
def test_critical_c_certifies_a_wrong_root_estimate(monkeypatch, estimate, name, share):
    # The probes are only aimed by the estimate, and the signs certify: a
    # wrong one ends in the bisection's bracket, if its two probes confirm
    # that cell, or in InternalCheckError, never in another bracket.
    import logklab.normalcone as normalcone

    pair, tol = CATALOG[name].pair, Fraction(3, 2**300)
    beta = share * instability_threshold(pair)
    expected = _reference_critical_c(pair, beta, tol)
    assert critical_c(pair, beta, tol) == expected
    _counted_signs(monkeypatch, limit=_seed_probes(monkeypatch, pair, beta) + 2)
    monkeypatch.setattr(normalcone, "_root_estimate", estimate)
    try:
        found = critical_c(pair, beta, tol)
    except InternalCheckError as exc:
        assert "confirm no cell" in str(exc)
    else:
        assert found == expected


def _kernel_at_three_halves_beta(real, pair, beta):
    # Its root lies right of the true one, so the seeds still start the
    # estimate left of the true root, and the estimate aims the probes.
    return real(pair, beta * 3 / 2)


@pytest.mark.parametrize("corrupt", [
    _kernel_at_half_beta, _kernel_claiming_root, _kernel_at_three_halves_beta])
def test_critical_c_search_stays_bounded_when_sign_kernel_disagrees(monkeypatch, p2, corrupt):
    # The estimate follows beta, the signs another kernel: the search stops
    # after the seeds and two probes, on a grid of 2^4094 cells.
    beta = Fraction(1, 2)
    wrong = corrupt(true_signs, p2, beta)
    seeds = _seed_probes(monkeypatch, p2, beta, wrong=wrong)
    _counted_signs(monkeypatch, limit=seeds + 2, wrong=wrong)
    with pytest.raises(InternalCheckError):
        critical_c(p2, beta, Fraction(1, 2**4096))


def test_df_checked_returns_both_agreeing_paths(p2):
    c, beta = Fraction(1, 2), Fraction(1, 2)
    coeffs, report = df_checked(p2, c, beta)
    assert coeffs == coefficients(p2, c)
    assert report == family(p2, c).df(beta)
    assert df_from_coefficients(coeffs, beta) == report.df == Fraction(-1, 48)


def test_df_checked_raises_when_the_coefficient_formula_disagrees(monkeypatch, p2):
    import logklab.df as df

    monkeypatch.setattr(df, "df_from_coefficients", lambda coeffs, beta: Fraction(1))
    with pytest.raises(InternalCheckError, match="DF paths disagree: closed form -1/48, "
                                                 "coefficient formula 1"):
        df_checked(p2, Fraction(1, 2), Fraction(1, 2))


def test_df_checked_raises_when_s_is_wrong(monkeypatch, capsys, p2):
    # A wrong s moves the closed form and the coefficient formula together;
    # the Riemann-Roch sums read L^n and c1(X).L^(n-1) alone.
    import logklab.closedform as closedform

    real = closedform._pair_of
    monkeypatch.setattr(closedform, "_pair_of",
                        lambda pair: real(pair)._replace(s=real(pair).s + Fraction(1, 7)))
    with pytest.raises(InternalCheckError, match="coefficient paths disagree"):
        df_checked(p2, Fraction(1, 2), Fraction(1, 2))
    assert run(["df", "catalog:P2-line", "--c", "1/2", "--beta", "1/2"]) == 4
    assert capsys.readouterr().out == ""


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    L_top=positive_tops,
    cX_L=st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    c=open_unit_fractions,
)
@example(n=2, L_top=Fraction(1), cX_L=Fraction(-2), c=Fraction(1, 2))
def test_riemann_roch_sums_give_the_closed_form_coefficients(n, L_top, cX_L, c):
    # Any sign of s = c1(X).L^(n-1)/L^n - 1.
    pair = PolarisedPair("random", n, L_top, cX_L)
    summed = NormalConeCoefficients.from_differences(*pair.riemann_roch(), c, n)
    assert summed == coefficients(pair, c)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    L_top=positive_tops,
    cX_L=st.fractions(min_value=-100, max_value=100, max_denominator=1000),
)
def test_riemann_roch_gives_the_top_two_forward_differences(n, L_top, cX_L):
    # (L^n/n!) k^n + (c1(X).L^(n-1)/(2(n-1)!)) k^(n-1), converted by integer Horner.
    pair = PolarisedPair("random", n, L_top, cX_L)
    den, steps = forward_differences(
        [*[0] * (n - 1), cX_L / (2 * factorial(n - 1)), L_top / factorial(n)])
    assert pair.riemann_roch() == (Fraction(steps[n], den), Fraction(steps[n - 1], den))


# ----------------------------- integer sign kernel -----------------------------


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    L_top=positive_tops,
    cX_L=st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    beta=st.fractions(min_value=-10, max_value=10, max_denominator=1000),
    c=open_unit_fractions.filter(lambda q: q.denominator & (q.denominator - 1)),
)
@example(n=2, L_top=Fraction(1), cX_L=Fraction(3), beta=Fraction(7, 19), c=Fraction(1, 3))
def test_sign_kernel_matches_closed_form_inner_factor(n, L_top, cX_L, beta, c):
    pair = PolarisedPair("random", n, L_top, cX_L)
    inner = family(pair, c).df(beta).inner_factor
    sign = _kernel(_pair_of(pair), beta).sign
    assert sign(c.numerator, c.denominator) == (inner > 0) - (inner < 0)


# The Fraction bisection that critical_c and find_destabilizer ran before the
# integer sign kernel, kept as the reference their results must reproduce.


def _reference_seeds(pair, beta):
    """The seed bracket [2^-j, 1 - 2^-i], each end found one bit at a time."""
    lo = Fraction(1, 2)
    while family(pair, lo).df(beta).inner_factor <= 0:
        lo /= 2
    step = Fraction(1, 2)
    while family(pair, 1 - step).df(beta).inner_factor >= 0:
        step /= 2
    return lo, 1 - step


def _reference_critical_c(pair, beta, tol):
    def inner(c):
        return family(pair, c).df(beta).inner_factor

    lo, hi = _reference_seeds(pair, beta)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        v = inner(mid)
        if v > 0:
            lo = mid
        elif v < 0:
            hi = mid
        else:
            return CriticalBracket(mid, mid, lo_inner=v, hi_inner=v)
    return CriticalBracket(lo, hi, lo_inner=inner(lo), hi_inner=inner(hi))


def _reference_find_destabilizer(pair, beta, tol):
    """The first c = 1 - 2^-j with DF < 0 and 2^-j >= tol, and its DF; None if none."""
    step = Fraction(1, 2)
    while step >= tol:
        c = 1 - step
        report = family(pair, c).df(beta)
        if report.df < 0:
            return c, report.df
        step /= 2
    return None


CATALOG_PAIRS = ["P2-line", "P3-hyperplane", "P4-hyperplane", "P1xP1-diag"]
REGRESSION_TOLS = [Fraction(1, 2**64), Fraction(1, 2**512)]


@pytest.mark.parametrize("tol", REGRESSION_TOLS)
@pytest.mark.parametrize("name", CATALOG_PAIRS)
def test_critical_c_matches_fraction_bisection(name, tol):
    pair = CATALOG[name].pair
    threshold = instability_threshold(pair)
    # 18/43 of the threshold is an exact rational root on P2 and P1xP1;
    # 15/16 puts the root above 1/2, so the lo seed stays at 1/2.
    for share in (Fraction(8, 23), Fraction(18, 43), Fraction(15, 16)):
        beta = share * threshold
        assert critical_c(pair, beta, tol) == _reference_critical_c(pair, beta, tol)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    L_top=positive_tops,
    excess=st.fractions(min_value=0, max_value=100, max_denominator=1000).filter(lambda q: q > 0),
    share=st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda q: 0 < q < 1),
    root=st.one_of(st.none(), st.tuples(st.integers(1, 2**12 - 1), st.integers(1, 12))),
    bits=st.integers(min_value=0, max_value=2048),
    num=st.integers(min_value=1, max_value=10**6),
    den=st.integers(min_value=1, max_value=1000),
)
@example(n=2, L_top=Fraction(1), excess=Fraction(2), share=Fraction(1, 2), root=(1, 1),
         bits=0, num=1, den=10**9)
@example(n=4, L_top=Fraction(1), excess=Fraction(4), share=Fraction(1, 2), root=None,
         bits=2048, num=3, den=1)
# P2 and P4 within 2^-134 and 2^-266 of the threshold: c* lies within about
# 2^-67 of 1, so the root estimate starts at u0 = 2^-68, which its coarsest
# level must hold, or the estimate stays at 0 and the probes confirm no cell.
@example(n=2, L_top=Fraction(1), excess=Fraction(2), share=1 - Fraction(1, 2**134), root=None,
         bits=184, num=1, den=1)
@example(n=4, L_top=Fraction(1), excess=Fraction(4), share=1 - Fraction(1, 2**266), root=None,
         bits=184, num=1, den=1)
def test_critical_c_equals_fraction_bisection(n, L_top, excess, share, root, bits, num, den):
    # cX_L = L_top (1 + excess) makes s = excess > 0. With root = (a, e) the
    # angle beta = -s g(a/2^e) puts c* at the dyadic a/2^e, an exact root
    # the bisection hits when its tol reaches that level; P2 at beta 4/7,
    # c* = 1/2, is the first example.
    pair = PolarisedPair("random", n, L_top, L_top * (1 + excess))
    if root is None:
        beta = share * instability_threshold(pair)
    else:
        a, e = root
        c = Fraction(a % (1 << e) or 1, 1 << e)
        beta = -family(pair, c).df(Fraction(0)).inner_factor  # -s g(c)
    tol = Fraction(num, den << bits)
    assert critical_c(pair, beta, tol) == _reference_critical_c(pair, beta, tol)


@pytest.mark.parametrize("tol", REGRESSION_TOLS)
@pytest.mark.parametrize("name", CATALOG_PAIRS)
def test_find_destabilizer_matches_fraction_walk(name, tol):
    pair = CATALOG[name].pair
    threshold = instability_threshold(pair)
    for beta in (Fraction(-1), threshold / 2, threshold - Fraction(1, 2**20),
                 threshold - Fraction(1, 2**100)):
        assert find_destabilizer(pair, beta) == _reference_find_destabilizer(pair, beta, tol)


def test_find_destabilizer_matches_fraction_walk_for_negative_volume():
    # A pair with L^n < 0 is refused where it is built, so DF < 0 on (0, c*)
    # needs s < 0. With s = -3 and beta = -1/2 the inner factor is negative
    # only on (0, c*), c* < 1/2, which no c = 1 - 2^-j reaches.
    pair, tol = PolarisedPair("negative-s", 2, 1, -2), Fraction(1, 2**64)
    beta = Fraction(-1)
    assert find_destabilizer(pair, beta) == _reference_find_destabilizer(pair, beta, tol)
    assert find_destabilizer(pair, beta)[0] == Fraction(1, 2)
    beta = Fraction(-1, 2)
    assert _reference_find_destabilizer(pair, beta, tol) is None
    assert find_destabilizer(pair, beta) == _reference_scan(pair, beta, tol) == (
        Fraction(1, 4), Fraction(-7, 384))


@pytest.mark.parametrize("beta", [Fraction(-3, 2), Fraction(-2)])
def test_find_destabilizer_every_c_destabilises_for_negative_volume(beta):
    # The inner factor moves from beta to beta - threshold, so DF < 0 at
    # every c when both are <= 0 and not both 0. With s = -3 (threshold
    # -3/2) that is beta at or below the threshold, where the first schedule
    # point is the witness.
    pair = PolarisedPair("negative-s", 2, 1, -2)
    c, df = find_destabilizer(pair, beta)
    assert c == Fraction(1, 2) and df == family(pair, c).df(beta).df < 0
    assert all(family(pair, Fraction(i, 16)).df(beta).df < 0 for i in range(1, 16))


@pytest.mark.parametrize("L_top, cX_L, beta", [
    (1, -4, Fraction(-2)),  # s = -5: DF < 0 on (0, c*), c* > 1/2
    (1, -2, Fraction(-1)),  # s = -3: DF < 0 on (0, c*), c* > 1/2
])
def test_find_destabilizer_witness_where_s_is_negative(L_top, cX_L, beta):
    # beta is at or above the threshold s/n < 0, yet DF < 0 at c = 1/2.
    pair = PolarisedPair("s-negative", 2, L_top, cX_L)
    assert beta >= instability_threshold(pair)
    c, df = find_destabilizer(pair, beta)
    assert c == Fraction(1, 2) and df == family(pair, c).df(beta).df < 0
    assert family(pair, Fraction(1, 64)).df(beta).df < 0


def test_find_destabilizer_gallops_toward_0_for_negative_volume(monkeypatch):
    # With L^n > 0 the search walks c = 2^-j where DF < 0 on (0, c*): s < 0
    # and threshold < beta < 0. At s = -3 and beta = -1/2 the inner factor is
    # 5/14 at c = 1/2, and DF < 0 at c = 1/4 and 1/8.
    pair = PolarisedPair("negative-s", 2, 1, -2)
    real, steps = _Kernel.sign, []
    monkeypatch.setattr(_Kernel, "sign",
                        lambda kernel, a, d: steps.append((a, d)) or real(kernel, a, d))
    assert find_destabilizer(pair, Fraction(-1, 2)) == (Fraction(1, 4), Fraction(-7, 384))
    assert steps == [(1, 2), (1, 4)]
    assert family(pair, Fraction(1, 2)).df(Fraction(-1, 2)).inner_factor == Fraction(5, 14)
    assert family(pair, Fraction(1, 8)).df(Fraction(-1, 2)).df == Fraction(-103, 3072)
    with pytest.raises(PreconditionFailedError) as exc:  # beta = 0 >= threshold: DF > 0
        find_destabilizer(pair, Fraction(0))
    assert str(exc.value) == "beta = 0 is not below the instability threshold -3/2"


def _reference_scan(pair, beta, tol):
    """The first c with DF < 0 among 1 - 2^-j, then 2^-j, for j = 1, 2, ... with
    2^-j >= tol, and its DF; None if there is none."""
    step = Fraction(1, 2)
    while step >= tol:
        for c in (1 - step, step):
            df = family(pair, c).df(beta).df
            if df < 0:
                return c, df
        step /= 2
    return None


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    L_top=positive_tops,
    cX_L=st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    beta=st.one_of(st.none(), st.fractions(min_value=-10, max_value=10, max_denominator=1000)),
    bits=st.integers(min_value=0, max_value=64),
)
@example(n=2, L_top=Fraction(1), cX_L=Fraction(-2), beta=Fraction(-1), bits=60)
@example(n=2, L_top=Fraction(1), cX_L=Fraction(-2), beta=Fraction(-1, 2), bits=60)
@example(n=2, L_top=Fraction(1), cX_L=Fraction(-2), beta=Fraction(0), bits=60)
def test_find_destabilizer_equals_the_dyadic_scan(n, L_top, cX_L, beta, bits):
    # Any sign of s; beta = None stands for the threshold itself. The scan
    # stops at 2^-bits; a witness it does not reach lies closer to 0 or 1.
    pair = PolarisedPair("random", n, L_top, cX_L)
    beta = instability_threshold(pair) if beta is None else beta
    expected = _reference_scan(pair, beta, Fraction(1, 2**bits))
    try:
        found = find_destabilizer(pair, beta)
    except PreconditionFailedError as exc:
        assert expected is None
        dfs = [family(pair, Fraction(i, 97)).df(beta).df for i in range(1, 97)]
        assert min(dfs) >= 0 and ("DF > 0" not in str(exc) or min(dfs) > 0)
    else:
        if expected is None:
            c, df = found
            assert min(c, 1 - c) < Fraction(1, 2**bits) and df == family(pair, c).df(beta).df < 0
        else:
            assert found == expected


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=64),
    L_top=positive_tops,
    cX_L=st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    at_threshold=st.booleans(),
    side=st.sampled_from([-1, 1]),
    k=st.integers(min_value=1, max_value=6000),
    num=st.integers(min_value=1, max_value=3),
    bits=st.integers(min_value=0, max_value=8192),
)
# On P64 the depth is 4615. With s > 0 and beta = 2^-4500 the root is near
# 2^-4500: bracketed at tol 2^-64, past the depth at tol 2^-4600, where the
# level K is; at beta = 2^-6000 the seeds are past it. With s < 0 and
# beta = -2^-4500 the witness is near 2^-4500; at -2^-6000 it is past the depth.
@example(n=64, L_top=Fraction(1), cX_L=Fraction(65), at_threshold=False, side=1, k=4500,
         num=1, bits=64)
@example(n=64, L_top=Fraction(1), cX_L=Fraction(65), at_threshold=False, side=1, k=4500,
         num=1, bits=4600)
@example(n=64, L_top=Fraction(1), cX_L=Fraction(65), at_threshold=False, side=1, k=6000,
         num=1, bits=64)
@example(n=64, L_top=Fraction(1), cX_L=Fraction(-1), at_threshold=False, side=-1, k=4500,
         num=1, bits=64)
@example(n=64, L_top=Fraction(1), cX_L=Fraction(-1), at_threshold=False, side=-1, k=6000,
         num=1, bits=64)
def test_every_sign_stays_within_the_bit_budget(n, L_top, cX_L, at_threshold, side, k, num,
                                                bits):
    # Angles within 2^-k of 0 or of the threshold put the witness or the root
    # near 0 or 1, at about j = k / n or k; no sign either search takes has
    # d^(n+1) past SIGN_BITS_LIMIT bits, and each call ends in a witness, a
    # bracket, a beta not below the threshold, or the depth refusal. The
    # depth is at least the 60 bits of destabilize's old floor in every
    # dimension, so each witness that floor found comes back at the same j.
    assert SIGN_BITS_LIMIT // (DIMENSION_LIMIT + 1) >= 60

    pair = PolarisedPair("random", n, L_top, cX_L)
    threshold = instability_threshold(pair)
    beta = (threshold if at_threshold else 0) + Fraction(side, 2**k)
    depth = SIGN_BITS_LIMIT // (n + 1)
    refusals = (f"^tol must be at least 2\\^-{depth}$",
                f"needs a sign at c = a/2\\^j with j > {depth}, the search depth in "
                f"dimension {n}$")
    with pytest.MonkeyPatch.context() as mp:
        calls = _counted_signs(mp)
        for search, args in ((find_destabilizer, ()), (critical_c, (Fraction(num, 2**bits),))):
            try:
                found = search(pair, beta, *args)
            except PreconditionFailedError:
                assert beta >= threshold
            except InputError as exc:
                assert any(re.search(refusal, str(exc)) for refusal in refusals), exc
            else:
                if search is find_destabilizer:
                    assert found[1] == family(pair, found[0]).df(beta).df < 0
                else:
                    assert found.all_destabilizing or found.lo_inner >= 0 >= found.hi_inner
    assert all(d & (d - 1) == 0 and (n + 1) * (d.bit_length() - 1) <= SIGN_BITS_LIMIT
               for _, d in calls)


# ----------------------------- curve -----------------------------


def test_curve_grid(p2):
    rows = list(_reports(curve_rows(p2, Fraction(1, 2), 7)[1]))
    assert [row[0] for row in rows] == [Fraction(i, 8) for i in range(1, 8)]
    for c, *values in rows:
        closed = family(p2, c).df(Fraction(1, 2))
        assert values == [closed.df, closed.inner_factor, closed.jna]



@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    L_top=positive_tops,
    cX_L=st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    beta=st.fractions(min_value=-10, max_value=10, max_denominator=1000),
    steps=st.integers(min_value=1, max_value=40),
)
# A full batch of CURVE_BATCH points, then a short one.
@example(n=3, L_top=Fraction(1), cX_L=Fraction(4), beta=Fraction(1, 2), steps=300)
def test_curve_rows_equal_closed_form(n, L_top, cX_L, beta, steps):
    pair = PolarisedPair("random", n, L_top, cX_L)
    rows = list(_reports(curve_rows(pair, beta, steps)[1]))
    assert [row[0] for row in rows] == [Fraction(i, steps + 1) for i in range(1, steps + 1)]
    for c, *values in rows:
        closed = family(pair, c).df(beta)
        assert values == [closed.df, closed.inner_factor, closed.jna]
