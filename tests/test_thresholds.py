from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logklab.criteria import SingularCriteriaInput, singular_criteria
from logklab.errors import InconsistentDataError, InputError, PreconditionFailedError
from logklab.closedform import instability_threshold
from logklab.pairmodel import PolarisedPair, avg_scalar_sD
from logklab.scalar import avg_scalar_sbeta
from logklab.thresholds import (
    MODEL_PROPORTIONAL,
    MODEL_SANDWICH,
    AngleWindow,
    PositivityData,
    VerdictStatus,
    WindowClaim,
    alpha_beta_lower_bound,
    angle_window,
    beta_u,
    effective_nef_bounds,
    entropy_threshold_check,
    eta_feasibility,
    min_multiplicity_eta0,
)

P2_ALPHAS = PositivityData(alpha_L=Fraction(1, 3), alpha_LD_restricted=Fraction(1, 2))
FANO_ALPHAS = PositivityData(alpha_L=Fraction(2, 3), alpha_LD_restricted=Fraction(2, 3))


# ----------------------------- positivity data -----------------------------


def test_positivity_validation():
    with pytest.raises(InputError):
        PositivityData(alpha_L=Fraction(-1, 3))
    with pytest.raises(InconsistentDataError):
        PositivityData(lam=Fraction(3), Lambda_up=Fraction(2))


def test_checked_values_coerce_rationals():
    pos = PositivityData(alpha_L=1, lam="1/2", Lambda_up=2)
    rationals = (pos.alpha_L, pos.lam, pos.Lambda_up)
    assert rationals == (1, Fraction(1, 2), 2) and pos.entropy_lower is None
    data = SingularCriteriaInput(Sbeta=-3, alpha_beta="1/2", n=2, bullet1_eta=0)
    rationals += (data.Sbeta, data.alpha_beta, data.bullet1_eta)
    assert all(type(x) is Fraction for x in rationals)


def test_effective_bounds_proportional(p2):
    lam, Lam, model = effective_nef_bounds(p2, PositivityData())
    assert (lam, Lam, model) == (3, 3, MODEL_PROPORTIONAL)


def test_effective_bounds_conflict(p2):
    with pytest.raises(InconsistentDataError):
        effective_nef_bounds(p2, PositivityData(lam=Fraction(2), Lambda_up=Fraction(2)))


def test_effective_bounds_sandwich():
    pair = PolarisedPair("generic", 2, Fraction(2), Fraction(3))
    lam, Lam, model = effective_nef_bounds(
        pair, PositivityData(lam=Fraction(1), Lambda_up=Fraction(2)))
    assert (lam, Lam, model) == (1, 2, MODEL_SANDWICH)
    with pytest.raises(InputError, match="^need nef thresholds lambda and Lambda "
                       "\\(or an exact proportional_x on the pair\\)$"):
        effective_nef_bounds(pair, PositivityData())


# ----------------------------- alpha_beta and beta_u -----------------------------


def test_alpha_beta_lower_bound_examples():
    assert alpha_beta_lower_bound(P2_ALPHAS, 4, Fraction(5, 16)) == Fraction(1, 3)
    equal = PositivityData(alpha_L=Fraction(1, 3), alpha_LD_restricted=Fraction(1, 3))
    assert alpha_beta_lower_bound(equal, 1, Fraction(1)) == Fraction(1, 3)
    override = PositivityData(alpha_beta_override=Fraction(7, 10))
    assert alpha_beta_lower_bound(override, 1, Fraction(3, 4)) == Fraction(7, 10)
    assert alpha_beta_lower_bound(override, 1, Fraction(7, 10)) == Fraction(7, 10)


def test_alpha_beta_override_above_m_beta_is_refused():
    # D/m lies in |L|_Q, so the log alpha invariant is at most m*beta.
    override = PositivityData(alpha_beta_override=Fraction(7, 10))
    with pytest.raises(InconsistentDataError, match="exceeds m\\*beta = 1/2"):
        alpha_beta_lower_bound(override, 1, Fraction(1, 2))
    assert alpha_beta_lower_bound(override, 2, Fraction(1, 2)) == Fraction(7, 10)


def test_alpha_beta_requires_data(p2):
    with pytest.raises(InputError, match="^need alpha_L and alpha_LD_restricted "
                       "\\(or alpha_beta_override where accepted\\)$"):
        alpha_beta_lower_bound(PositivityData(), 1, Fraction(1, 2))


def test_beta_u_examples(p2, fano):
    assert beta_u(p2, P2_ALPHAS, 4) == Fraction(3, 8)
    assert beta_u(fano, FANO_ALPHAS, 1) == 1


def test_beta_u_zero_alphas_clamps(p2):
    zero = PositivityData(alpha_L=Fraction(0), alpha_LD_restricted=Fraction(0))
    # raw value 1 - S_1/(m n) = 1 - 6/4 < 0, clamped at 0
    assert beta_u(p2, zero, 2) == 0
    # with m = 4 the raw value 1 - 6/8 = 1/4 is returned untouched
    assert beta_u(p2, zero, 4) == Fraction(1, 4)


def test_beta_u_monotone_in_each_alpha(p2):
    previous = Fraction(0)
    for numerator in range(0, 9):
        pos = PositivityData(alpha_L=Fraction(numerator, 12),
                             alpha_LD_restricted=Fraction(1, 2))
        value = beta_u(p2, pos, 4)
        assert value >= previous
        previous = value
    previous = Fraction(0)
    for numerator in range(0, 9):
        pos = PositivityData(alpha_L=Fraction(1, 2),
                             alpha_LD_restricted=Fraction(numerator, 24))
        value = beta_u(p2, pos, 4)
        assert value >= previous
        previous = value


# ----------------------------- windows -----------------------------


def test_uniform_window_p2(p2):
    window = angle_window(p2, P2_ALPHAS, 4, "uniform")
    assert window.claim is WindowClaim.UNIFORM_LOG_K_STABLE
    assert (window.lower, window.upper) == (Fraction(1, 4), Fraction(3, 8))
    assert window.lower_inclusive and not window.upper_inclusive
    assert not window.empty
    assert window.render() == "[1/4, 3/8)"


def test_uniform_window_precondition_failures(p2):
    with pytest.raises(PreconditionFailedError, match="S_1"):
        angle_window(p2, P2_ALPHAS, 2, "uniform")


@pytest.mark.parametrize("m", [0, -1])
def test_a_multiplicity_below_1_is_refused(m):
    # One rule for every exported function that takes m, the multiplicity of
    # D in |mL|: a plain int, refused below 1 with one message. The window
    # case is the CLI's --case word, "large", "given" or "uniform".
    import inspect
    from importlib import import_module

    import logklab

    # c1(X) = L/2 on a surface: every hypothesis holds at m = 1 and m = 2.
    pair = PolarisedPair("half", 2, 1, Fraction(1, 2), Fraction(1, 2))
    half = Fraction(1, 2)
    calls = [
        ("avg_scalar_sD", lambda m: avg_scalar_sD(pair, m)),
        ("avg_scalar_sbeta", lambda m: avg_scalar_sbeta(pair, m, half)),
        ("alpha_beta_lower_bound", lambda m: alpha_beta_lower_bound(FANO_ALPHAS, m, half)),
        ("beta_u", lambda m: beta_u(pair, FANO_ALPHAS, m)),
        *(("angle_window", lambda m, case=case: angle_window(pair, FANO_ALPHAS, m, case))
          for case in ("large", "given", "uniform")),
        ("eta_feasibility", lambda m: eta_feasibility(pair, FANO_ALPHAS, m, half)),
        ("entropy_threshold_check", lambda m: entropy_threshold_check(pair, FANO_ALPHAS, m, half)),
    ]
    exported = ((module, name) for module, names in logklab._EXPORTS.items() for name in names)
    functions = {name: getattr(import_module(f"logklab.{module}"), name)
                 for module, name in exported}
    takes_m = {name for name, function in functions.items()
               if inspect.isfunction(function) and "m" in inspect.signature(function).parameters}
    assert takes_m == {name for name, _ in calls}
    for _, call in calls:
        with pytest.raises(InputError) as exc:
            call(m)
        assert str(exc.value) == f"divisor multiplicity must be >= 1, got {m}"
        call(1)
        call(2)
    with pytest.raises(InputError) as exc:
        angle_window(pair, FANO_ALPHAS, 2, "huge")
    assert str(exc.value) == "unknown window case 'huge'"


@pytest.mark.parametrize("call, text", [
    (lambda p2: avg_scalar_sD(p2, 1.5), "1.5 (float)"),
    (lambda p2: avg_scalar_sD(p2, True), "True (bool)"),
    (lambda p2: beta_u(p2, P2_ALPHAS, Fraction(9, 2)), "Fraction(9, 2) (Fraction)"),
    (lambda p2: angle_window(p2, P2_ALPHAS, 6.5, "large"), "6.5 (float)"),
], ids=["avg_scalar_sD-float", "avg_scalar_sD-bool", "beta_u-Fraction", "angle_window-float"])
def test_a_multiplicity_that_is_not_an_int_is_refused(p2, call, text):
    # A float, a bool or a Fraction m is refused as one, not computed with.
    with pytest.raises(InputError) as exc:
        call(p2)
    assert str(exc.value) == f"divisor multiplicity must be an int, got {text}"


def test_uniform_window_fano(fano):
    window = angle_window(fano, FANO_ALPHAS, 1, "uniform")
    assert (window.lower, window.upper) == (0, 1)
    assert window.render() == "[0, 1)"


def test_uniform_window_empty_when_alphas_vanish(p2):
    zero = PositivityData(alpha_L=Fraction(0), alpha_LD_restricted=Fraction(0))
    window = angle_window(p2, zero, 4, "uniform")  # [1/4, 1/4) collapses
    assert window.empty
    assert not window.contains(Fraction(1, 4))


def test_angle_windows_p2(p2):
    large = angle_window(p2, P2_ALPHAS, 4, "large")
    assert (large.lower, large.upper) == (0, Fraction(1, 4))
    assert not large.lower_inclusive and large.upper_inclusive
    given = angle_window(p2, P2_ALPHAS, 4, "given")
    assert (given.lower, given.upper) == (0, Fraction(3, 8))
    assert given.render() == "(0, 3/8]"


def test_angle_window_takes_every_case_word_of_the_cli(p2):
    # The words are read from the CLI's command table, so the --case choices
    # and the cases the library takes cannot drift apart.
    from logklab.cli import _COMMANDS

    arguments = next(row[4] for row in _COMMANDS if row[0] == "window")
    words = dict(arguments)["--case"]["choices"]
    existence, uniform = WindowClaim.EXISTENCE_CSCK_CONE, WindowClaim.UNIFORM_LOG_K_STABLE
    expected = {
        "large": AngleWindow(Fraction(0), False, Fraction(1, 4), True, existence),
        "given": AngleWindow(Fraction(0), False, Fraction(3, 8), True, existence),
        "uniform": AngleWindow(Fraction(1, 4), True, Fraction(3, 8), False, uniform),
    }
    assert sorted(words) == sorted(expected)
    for word in words:
        assert angle_window(p2, P2_ALPHAS, 4, word) == expected[word]
    with pytest.raises(InputError) as exc:
        angle_window(p2, P2_ALPHAS, 4, "huge")
    assert str(exc.value) == "unknown window case 'huge'"


def test_angle_window_large_m_boundary_strict(p2):
    with pytest.raises(PreconditionFailedError, match="Lambda"):
        angle_window(p2, P2_ALPHAS, 3, "large")
    # S_1 = m n + (n-1)lambda = 0 with Lambda = 0 < m = 1.
    pair = PolarisedPair("edge", 2, Fraction(1), Fraction(0), None)
    with pytest.raises(PreconditionFailedError, match=r"^S_1 = 0 not < m\*n \+ \(n-1\)\*lambda = 0$"):
        angle_window(pair, PositivityData(lam=Fraction(-2), Lambda_up=Fraction(0)), 1, "large")


# n = 2, S_1 = 6, S_1/n = 3, with no proportional x: lambda and Lambda are free
# on either side of 3.
SANDWICH = PolarisedPair("sandwich", 2, 1, 3)
WIDE_ALPHAS = dict(alpha_L=10, alpha_LD_restricted=10)  # beta_u = 1 at m = 3


@pytest.mark.parametrize("case, m, pos, text", [
    # large: S_1 < m n + (n-1) lambda, then Lambda < m
    ("large", 4, PositivityData(lam=-2, Lambda_up=3),
     "S_1 = 6 not < m*n + (n-1)*lambda = 6"),
    ("large", 3, PositivityData(lam=3, Lambda_up=3), "Lambda = 3 not < m = 3"),
    ("large", 3, PositivityData(lam=-2, Lambda_up=3),
     "S_1 = 6 not < m*n + (n-1)*lambda = 4"),
    # given: S_1 <= m n, then Lambda <= S_1/n, then S_1/n <= lambda + m(1 - beta_u)
    ("given", 2, PositivityData(lam=3, Lambda_up=3, **WIDE_ALPHAS), "S_1 = 6 > m*n = 4"),
    ("given", 3, PositivityData(lam=3, Lambda_up=4, **WIDE_ALPHAS),
     "Lambda = 4 not <= S_1/n = 3"),
    ("given", 3, PositivityData(lam=2, Lambda_up=3, **WIDE_ALPHAS),
     "S_1/n = 3 not <= lambda + m(1 - beta_u) = 2"),
    ("given", 3, PositivityData(lam=2, Lambda_up=4, **WIDE_ALPHAS),
     "Lambda = 4 not <= S_1/n = 3"),
    ("given", 2, PositivityData(lam=3, Lambda_up=4, **WIDE_ALPHAS), "S_1 = 6 > m*n = 4"),
    # S_1 <= m n is checked before beta_u, which needs the alphas.
    ("given", 2, PositivityData(lam=3, Lambda_up=3), "S_1 = 6 > m*n = 4"),
    # uniform: S_1 <= m n
    ("uniform", 2, PositivityData(lam=3, Lambda_up=3, **WIDE_ALPHAS), "S_1 = 6 > m*n = 4"),
], ids=["large-S1", "large-Lambda", "large-both", "given-S1", "given-Lambda", "given-beta_u",
        "given-Lambda-and-beta_u", "given-S1-and-Lambda", "given-S1-without-alphas",
        "uniform-S1"])
def test_each_window_hypothesis_is_reported_by_its_text(case, m, pos, text):
    # Each hypothesis false on its own gives its own text; with two false,
    # the first in the theorem's order is the one reported.
    with pytest.raises(PreconditionFailedError) as exc:
        angle_window(SANDWICH, pos, m, case)
    assert str(exc.value) == text


def test_angle_window_fano_given_m(fano):
    window = angle_window(fano, FANO_ALPHAS, 1, "given")
    assert window.render() == "(0, 1]"
    assert window.contains(Fraction(1)) and not window.contains(Fraction(0))


def test_window_invariant_guard():
    claim = WindowClaim.UNIFORM_LOG_K_STABLE
    with pytest.raises(InconsistentDataError, match=r"^window \[-1/4, 1/2\] escapes \[0, 1\]$"):
        AngleWindow(Fraction(-1, 4), True, Fraction(1, 2), False, claim)
    # Bounds in the wrong order make an empty window, which is never checked.
    assert AngleWindow(Fraction(1, 2), True, Fraction(1, 4), False, claim).empty


# ----------------------------- eta feasibility -----------------------------


def test_eta_feasibility_worked_examples(p2):
    verdict = eta_feasibility(p2, P2_ALPHAS, 4, Fraction(5, 16))
    assert verdict.status is VerdictStatus.CRITERION_SATISFIED
    assert verdict.eta_interval == (Fraction(1, 4), Fraction(1, 2))
    assert verdict.certificate == Fraction(3, 8)
    assert verdict.model == MODEL_PROPORTIONAL

    verdict = eta_feasibility(p2, P2_ALPHAS, 4, Fraction(1, 8))
    assert verdict.status is VerdictStatus.CRITERION_SATISFIED
    assert verdict.eta_interval == (Fraction(0), Fraction(1, 2))
    assert verdict.certificate == Fraction(1, 4)


def test_eta_feasibility_zero_alpha_inconclusive(p2):
    zero = PositivityData(alpha_beta_override=Fraction(0))
    verdict = eta_feasibility(p2, zero, 4, Fraction(7, 8))  # x - m(1-beta) = 5/2 >= 0
    assert verdict.status is VerdictStatus.INCONCLUSIVE
    assert "no eta" in verdict.violated


def test_window_coherence_with_eta(p2):
    window = angle_window(p2, P2_ALPHAS, 4, "uniform")
    inside = [Fraction(1, 4), Fraction(9, 32), Fraction(5, 16), Fraction(11, 32),
              Fraction(3, 8) - Fraction(1, 1024)]
    for beta in inside:
        assert window.contains(beta)
        assert eta_feasibility(p2, P2_ALPHAS, 4, beta).status is VerdictStatus.CRITERION_SATISFIED
    above = [window.upper + Fraction(1, 64), window.upper + Fraction(1, 1024),
             window.upper + Fraction(1, 3)]
    for beta in above:
        if beta > 1:
            continue
        assert eta_feasibility(p2, P2_ALPHAS, 4, beta).status is VerdictStatus.INCONCLUSIVE


def test_eta_feasibility_sandwich_model():
    pair = PolarisedPair("generic", 2, Fraction(2), Fraction(3))
    pos = PositivityData(alpha_L=Fraction(1, 2), alpha_LD_restricted=Fraction(1, 2),
                         lam=Fraction(1), Lambda_up=Fraction(2))
    verdict = eta_feasibility(pair, pos, 3, Fraction(1, 2))
    assert verdict.model == MODEL_SANDWICH
    # S_beta = 3 - 6*(1/2) = 0; bounds: ii -> 2 - 3/2 = 1/2, iii -> 0 - (1 - 3/2) = 1/2
    # cap (3/2)*min{3/2, 1/2, 3/2} = 3/4 > 1/2: feasible
    assert verdict.status is VerdictStatus.CRITERION_SATISFIED
    assert verdict.eta_interval == (Fraction(1, 2), Fraction(3, 4))


def test_eta_feasibility_angle_guard(p2):
    with pytest.raises(InputError):
        eta_feasibility(p2, P2_ALPHAS, 4, Fraction(0))
    with pytest.raises(InputError):
        eta_feasibility(p2, P2_ALPHAS, 4, Fraction(9, 8))


# ----------------------------- minimal multiplicity -----------------------------


def test_min_multiplicity_examples(p2, p1xp1):
    assert min_multiplicity_eta0(p2, PositivityData(), Fraction(1, 2)) == 7
    assert min_multiplicity_eta0(p1xp1, PositivityData(), Fraction(1, 2)) == 5


def test_min_multiplicity_monotone_toward_one(p2):
    values = [min_multiplicity_eta0(p2, PositivityData(), beta)
              for beta in (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10),
                           Fraction(99, 100), Fraction(999, 1000))]
    assert values == sorted(values)
    # growth like Lambda/(1-beta): strictly above 3/(1/1000)
    assert min_multiplicity_eta0(p2, PositivityData(), Fraction(999, 1000)) == 3001


def test_min_multiplicity_rejects_boundary(p2):
    with pytest.raises(InputError):
        min_multiplicity_eta0(p2, PositivityData(), Fraction(1))


# ----------------------------- entropy threshold -----------------------------


def test_entropy_threshold_examples(p2, fano):
    verdict = entropy_threshold_check(
        p2, PositivityData(alpha_L=Fraction(1, 3), alpha_LD_restricted=Fraction(1, 2)),
        4, Fraction(5, 16))
    assert verdict.status is VerdictStatus.INCONCLUSIVE

    fano_pos = PositivityData(alpha_beta_override=Fraction(3, 4))
    verdict = entropy_threshold_check(fano, fano_pos, 1, Fraction(3, 4))
    assert verdict.status is VerdictStatus.CRITERION_SATISFIED
    assert verdict.certificate == Fraction(9, 8)

    zero = PositivityData(entropy_lower=Fraction(0), alpha_beta_override=Fraction(1))
    verdict = entropy_threshold_check(p2, zero, 4, Fraction(1, 2))
    assert verdict.status is VerdictStatus.INCONCLUSIVE


def _fractions(low, high):
    return st.fractions(min_value=low, max_value=high, max_denominator=12)


# The paper's main theorem: a cscK cone metric at beta forces DF >= 0 on every
# test configuration, so no certificate may cover an angle the normal-cone
# family destabilises. Pairs have L ample (L^n > 0) and D in |L|; the nef
# bounds fit the pair (lambda <= S_1/n <= Lambda, or an exact proportional_x),
# as the loader requires; alpha_L and alpha_LD are any, entropy_lower is
# absent or any, and an alpha_beta override is absent or any: one above
# m*beta = beta is refused wherever the alpha_beta bound is read.
@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    L_top=_fractions(0, 10).filter(lambda q: q > 0),
    mean=_fractions(-2, 6),
    nef=st.none() | st.tuples(_fractions(0, 3), _fractions(0, 3)),
    alphas=st.tuples(_fractions(0, 4), _fractions(0, 4)),
    entropy_lower=st.none() | _fractions(0, 10),
    override=st.none() | _fractions(0, 4),
    beta=_fractions(0, 1).filter(lambda b: b > 0),
)
@example(n=2, L_top=Fraction(1), mean=Fraction(7, 3), nef=(Fraction(0), Fraction(0)),
         alphas=(Fraction(0), Fraction(0)), entropy_lower=Fraction(3), override=None,
         beta=Fraction(1, 2))
@example(n=2, L_top=Fraction(1), mean=Fraction(3), nef=None,
         alphas=(Fraction(1, 3), Fraction(1, 2)), entropy_lower=None, override=Fraction(100),
         beta=Fraction(1, 4))  # eta catalog:P2-line --beta 1/4 --alpha-beta 100
@example(n=2, L_top=Fraction(1), mean=Fraction(3), nef=None,
         alphas=(Fraction(1, 3), Fraction(1, 2)), entropy_lower=None, override=Fraction(1, 4),
         beta=Fraction(1, 4))
def test_no_certificate_below_the_instability_threshold(
        n, L_top, mean, nef, alphas, entropy_lower, override, beta):
    # mean is S_1/n = c1(X).L^(n-1)/L^n; nef None means proportional_x = mean.
    pair = PolarisedPair("random", n, L_top, mean * L_top, None if nef else mean)
    lam, Lam = (None, None) if nef is None else (mean - nef[0], mean + nef[1])
    pos = PositivityData(alpha_L=alphas[0], alpha_LD_restricted=alphas[1], lam=lam,
                         Lambda_up=Lam, alpha_beta_override=override, entropy_lower=entropy_lower)
    threshold = instability_threshold(pair)
    refused = override is not None and override > beta
    for case in ("large", "given", "uniform"):
        try:
            window = angle_window(pair, pos, 1, case)
        except (PreconditionFailedError, InputError):
            continue
        assert window.empty or window.lower >= threshold, window.render()
    try:
        verdict = eta_feasibility(pair, pos, 1, beta)
    except InconsistentDataError:
        assert refused
    else:
        assert not refused
        assert verdict.status is VerdictStatus.INCONCLUSIVE or beta >= threshold
    try:
        verdict = entropy_threshold_check(pair, pos, 1, beta)
    except InconsistentDataError as exc:
        if "m*beta" in str(exc):  # entropy_lower, when given, replaces the alpha_beta bound
            assert refused and entropy_lower is None
        else:
            assert beta < threshold
    else:
        assert not (refused and entropy_lower is None)
        assert verdict.status is VerdictStatus.INCONCLUSIVE or beta >= threshold


# The large-m theorem's two eta = 0 conditions, evaluated as stated rather than
# solved: the large-m window holds beta exactly where both are <= 0, and the
# least m is the least m where both are < 0. So beta lies in the window
# exactly when m >= the least m, except where m(1 - beta) equals
# T = max(Lambda, (S_1 - (n-1)lambda)/n): there the window admits beta and the
# least m does not (ROADMAP direction 26).
@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    L_top=_fractions(0, 10).filter(lambda q: q > 0),
    mean=_fractions(-3, 8),
    nef=st.none() | st.tuples(_fractions(0, 4), _fractions(0, 4)),
    m=st.integers(min_value=1, max_value=16),
    beta=_fractions(0, 1).filter(lambda b: 0 < b < 1),
)
@example(n=2, L_top=Fraction(1), mean=Fraction(3), nef=None, m=6,
         beta=Fraction(1, 2))  # P2-line: m(1 - beta) = T = 3, window (0, 1/2], least m 7
@example(n=2, L_top=Fraction(1), mean=Fraction(3), nef=(Fraction(1), Fraction(0)), m=7,
         beta=Fraction(1, 2))  # the sandwich pair of tests/test_cli.py: least m 7
def test_large_m_window_holds_beta_exactly_from_the_least_m(n, L_top, mean, nef, m, beta):
    # mean is S_1/n; nef None means proportional_x = mean.
    pair = PolarisedPair("random", n, L_top, mean * L_top, None if nef else mean)
    lam, Lam = (mean, mean) if nef is None else (mean - nef[0], mean + nef[1])
    pos = PositivityData() if nef is None else PositivityData(lam=lam, Lambda_up=Lam)
    s1 = n * mean
    conditions = (Lam - m * (1 - beta), s1 - m * n * (1 - beta) - (n - 1) * lam)
    try:
        in_window = angle_window(pair, pos, m, "large").contains(beta)
    except PreconditionFailedError:
        in_window = False
    least = min_multiplicity_eta0(pair, pos, beta)
    assert in_window == all(c <= 0 for c in conditions)
    assert (m >= least) == all(c < 0 for c in conditions)
    on_boundary = m * (1 - beta) == max(Lam, (s1 - (n - 1) * lam) / n)
    assert in_window == (m >= least) or on_boundary and in_window and m < least


# ----------------------------- singular criteria -----------------------------


def _base(**kwargs):
    defaults = dict(Sbeta=Fraction(0), alpha_beta=Fraction(0), n=2)
    defaults.update(kwargs)
    return SingularCriteriaInput(**defaults)


def test_log_cy_criterion():
    verdicts = singular_criteria(_base(is_logCY=True, is_klt=True, is_lc=True))
    assert len(verdicts) == 1
    assert verdicts[0].status is VerdictStatus.CRITERION_SATISFIED
    assert "uniformly log K-stable" in verdicts[0].claim
    assert verdicts[0].certificate_note == "no certificate needed"


def test_log_cy_without_klt_inconclusive():
    verdicts = singular_criteria(_base(is_logCY=True, is_lc=True))
    assert verdicts[0].status is VerdictStatus.INCONCLUSIVE


def test_bullet2_example():
    verdicts = singular_criteria(_base(
        Sbeta=Fraction(-3), alpha_beta=Fraction(0), is_lc=True, bullet2_nef=True))
    assert len(verdicts) == 1
    assert verdicts[0].status is VerdictStatus.CRITERION_SATISFIED


def test_bullet2_needs_strict_inequality():
    verdicts = singular_criteria(_base(
        Sbeta=Fraction(0), alpha_beta=Fraction(0), is_lc=True, bullet2_nef=True))
    assert verdicts[0].status is VerdictStatus.INCONCLUSIVE


def test_bullet1_full_hypotheses():
    verdicts = singular_criteria(_base(
        Sbeta=Fraction(-1), alpha_beta=Fraction(1, 2), is_lc=True,
        bullet1_eta=Fraction(1, 2), eta_class_ample=True, third_class_ample=True))
    assert verdicts[0].status is VerdictStatus.CRITERION_SATISFIED
    assert verdicts[0].certificate == Fraction(1, 2)


def test_bullet1_eta_out_of_range():
    verdicts = singular_criteria(_base(
        Sbeta=Fraction(-1), alpha_beta=Fraction(1, 2), is_lc=True,
        bullet1_eta=Fraction(2), eta_class_ample=True, third_class_ample=True))
    assert verdicts[0].status is VerdictStatus.INCONCLUSIVE
    assert "eta" in verdicts[0].violated


def test_corollary_path():
    verdicts = singular_criteria(_base(
        Sbeta=Fraction(-2), is_lc=True, corollary_neg=True, corollary_nef=True))
    assert verdicts[0].status is VerdictStatus.CRITERION_SATISFIED


def test_klt_inverse_example():
    verdicts = singular_criteria(_base(
        klt_inv_semistable=True, klt_inv_ample=True, klt_inv_nef=True))
    assert len(verdicts) == 1
    assert verdicts[0].status is VerdictStatus.CRITERION_SATISFIED
    assert "Kawamata log terminal" in verdicts[0].claim


def test_klt_inverse_partial_assertions():
    verdicts = singular_criteria(_base(klt_inv_semistable=True))
    assert verdicts[0].status is VerdictStatus.INCONCLUSIVE


def test_no_applicable_criteria():
    assert singular_criteria(_base()) == []


def test_inconsistent_assertions_rejected():
    with pytest.raises(InputError, match="^is_klt asserted without is_lc \\(klt implies lc\\)$"):
        _base(is_klt=True)


def test_no_verdict_ever_asserts_instability():
    inputs = [
        _base(is_logCY=True),
        _base(Sbeta=Fraction(5), is_lc=True, bullet2_nef=True),
        _base(klt_inv_semistable=True, klt_inv_nef=True),
        _base(corollary_neg=True),
    ]
    for data in inputs:
        for verdict in singular_criteria(data):
            assert verdict.status in (VerdictStatus.CRITERION_SATISFIED,
                                      VerdictStatus.INCONCLUSIVE)
            assert "unstable" not in verdict.claim
