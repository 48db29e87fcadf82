"""Cone-angle thresholds, stability/existence windows, eta-feasibility
certificates, and singular-pair criteria checkers.

Everything here is one-sided: a verdict certifies stability/existence or
reports Inconclusive; instability claims belong exclusively to the
closedform and normalcone modules. Positivity facts the criteria need
(alpha invariants, nef thresholds, klt/lc flags) are supplied by the
caller, never computed.

Every theorem hypothesis and criterion condition is a (holds, text) check,
read by one evaluator, _violated: a failed window hypothesis is raised by
_require as PreconditionFailedError, and a failed criterion condition makes
_verdict return Inconclusive.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple

from .errors import InconsistentDataError, InputError, PreconditionFailedError
from .exactnum import format_rational
from .pairmodel import PolarisedPair, avg_scalar_s1, integer, multiplicity, scalar_sbeta

MODEL_PROPORTIONAL = "proportional"  # c1(X) = x * c1(L) exactly
MODEL_SANDWICH = "sandwich"          # lambda * c1(L) <= c1(X) <= Lambda * c1(L)

NO_CERTIFICATE_NEEDED = "no certificate needed"


class _PositivityFields(NamedTuple):
    alpha_L: Fraction | None = None
    alpha_LD_restricted: Fraction | None = None
    lam: Fraction | None = None
    Lambda_up: Fraction | None = None
    alpha_beta_override: Fraction | None = None
    entropy_lower: Fraction | None = None


class PositivityData(_PositivityFields):
    """User-supplied positivity constants; the criteria treat them as known.

    lam/Lambda_up are the nef thresholds pinching c1(X) between multiples of
    c1(L). alpha_beta_override, when set, wins over the min-based lower bound.
    entropy_lower feeds the entropy-threshold comparison. Every construction
    coerces the given values to Fraction and checks them.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        pos = super().__new__(cls, *args, **kwargs)
        pos = pos._make(None if value is None else Fraction(value) for value in pos)
        for name in ("alpha_L", "alpha_LD_restricted", "alpha_beta_override"):
            value = getattr(pos, name)
            if value is not None and value < 0:
                raise InputError(f"{name} must be >= 0, got {format_rational(value)}")
        if pos.lam is not None and pos.Lambda_up is not None and pos.lam > pos.Lambda_up:
            raise InconsistentDataError(f"lambda = {format_rational(pos.lam)} exceeds "
                                        f"Lambda = {format_rational(pos.Lambda_up)}")
        return pos


class VerdictStatus(enum.Enum):
    """A failed theorem hypothesis is no status: it is raised as PreconditionFailedError."""

    CRITERION_SATISFIED = "CriterionSatisfied"
    INCONCLUSIVE = "Inconclusive"


class Verdict(NamedTuple):
    """Outcome of one sufficient criterion, with its certificate.

    CriterionSatisfied always carries either a numeric certificate or the
    explicit no-certificate-needed marker; Inconclusive never asserts
    instability. facts echoes every caller-asserted positivity fact the
    criterion consumed.
    """

    status: VerdictStatus
    claim: str
    certificate: Fraction | None = None
    certificate_note: str | None = None
    violated: str | None = None
    facts: tuple[str, ...] = ()
    model: str | None = None
    eta_interval: tuple[Fraction, Fraction] | None = None


def _violated(checks: tuple[tuple[bool, str], ...]) -> str | None:
    """The text of the first (holds, text) check that fails, in order, or None."""
    return next((text for holds, text in checks if not holds), None)


def _require(*checks: tuple[bool, str]) -> None:
    """Theorem hypotheses as (holds, text) checks: the first that fails is
    raised as PreconditionFailedError, the only place this module raises it."""
    violated = _violated(checks)
    if violated is not None:
        raise PreconditionFailedError(violated)


def _verdict(claim: str, facts: tuple[str, ...], checks: tuple[tuple[bool, str], ...],
             model: str | None = None, certificate_note: str = NO_CERTIFICATE_NEEDED,
             **certified) -> Verdict:
    """Inconclusive at the first (holds, violated-text) check that fails;
    CriterionSatisfied with the certified fields when every check holds."""
    violated = _violated(checks)
    if violated is not None:
        return Verdict(VerdictStatus.INCONCLUSIVE, claim, violated=violated, facts=facts,
                       model=model)
    return Verdict(VerdictStatus.CRITERION_SATISFIED, claim, facts=facts, model=model,
                   certificate_note=certificate_note, **certified)


class WindowClaim(enum.Enum):
    EXISTENCE_CSCK_CONE = "ExistenceCscKCone"
    UNIFORM_LOG_K_STABLE = "UniformLogKStable"


class _WindowFields(NamedTuple):
    lower: Fraction
    lower_inclusive: bool
    upper: Fraction
    upper_inclusive: bool
    claim: WindowClaim


class AngleWindow(_WindowFields):
    """Certified cone-angle interval; endpoint strictness follows the
    theorem statements exactly. It is empty unless lower < upper, or the
    bounds are equal and both inclusive. Every construction checks that a
    nonempty window lies in [0, 1]."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        window = super().__new__(cls, *args, **kwargs)
        if not window.empty and not (0 <= window.lower and window.upper <= 1):
            raise InconsistentDataError(f"window [{window._bounds()}] escapes [0, 1]")
        return window

    @property
    def empty(self) -> bool:
        return not (self.lower < self.upper or self.lower == self.upper
                    and self.lower_inclusive and self.upper_inclusive)

    def contains(self, beta: Fraction) -> bool:
        if self.empty:
            return False
        beta = Fraction(beta)
        above = beta >= self.lower if self.lower_inclusive else beta > self.lower
        below = beta <= self.upper if self.upper_inclusive else beta < self.upper
        return above and below

    def render(self) -> str:
        if self.empty:
            return "(empty)"
        left = "[" if self.lower_inclusive else "("
        right = "]" if self.upper_inclusive else ")"
        return f"{left}{self._bounds()}{right}"

    def _bounds(self) -> str:
        return f"{format_rational(self.lower)}, {format_rational(self.upper)}"


def effective_nef_bounds(pair: PolarisedPair, pos: PositivityData) -> tuple[Fraction, Fraction, str]:
    """(lambda, Lambda, model) actually in force for this pair.

    An exact proportionality coefficient x gives lambda = Lambda = x; a
    supplied lambda/Lambda pair must then agree with it. Otherwise, L being
    ample, intersecting lambda c1(L) <= c1(X) <= Lambda c1(L) with L^(n-1)
    gives lambda <= S_1/n <= Lambda, and data outside it is refused.
    """
    if pair.proportional_x is not None:
        x = pair.proportional_x
        for name, value in (("lambda", pos.lam), ("Lambda", pos.Lambda_up)):
            if value is not None and value != x:
                raise InconsistentDataError(
                    f"pair is exactly proportional with x = {format_rational(x)} but "
                    f"{name} = {format_rational(value)} was supplied"
                )
        return x, x, MODEL_PROPORTIONAL
    if pos.lam is None or pos.Lambda_up is None:
        raise InputError(
            "need nef thresholds lambda and Lambda (or an exact proportional_x on the pair)")
    mean = avg_scalar_s1(pair) / pair.dimension
    if not pos.lam <= mean <= pos.Lambda_up:
        raise InconsistentDataError(
            f"nef thresholds need lambda <= S_1/n <= Lambda, but S_1/n = "
            f"{format_rational(mean)} lies outside [{format_rational(pos.lam)}, "
            f"{format_rational(pos.Lambda_up)}]"
        )
    return pos.lam, pos.Lambda_up, MODEL_SANDWICH


def _require_angle(beta: Fraction, allow_one: bool = True) -> Fraction:
    beta = Fraction(beta)
    high_ok = beta <= 1 if allow_one else beta < 1
    if not (beta > 0 and high_ok):
        raise InputError(
            f"cone angle parameter beta = {format_rational(beta)} outside the admissible range")
    return beta


def _min_alpha(pos: PositivityData, m: int) -> Fraction:
    if pos.alpha_L is None or pos.alpha_LD_restricted is None:
        raise InputError(
            "need alpha_L and alpha_LD_restricted (or alpha_beta_override where accepted)")
    return min(pos.alpha_L, m * pos.alpha_LD_restricted)


def alpha_beta_lower_bound(pos: PositivityData, m: int, beta: Fraction) -> Fraction:
    """Lower bound min{m*beta, alpha_L, m*alpha_LD_restricted} for the log
    alpha invariant; a direct alpha_beta_override wins when present. The
    invariant of (X, (1-beta)D) with D in |mL| is at most m*beta, as D/m lies
    in |L|_Q, so an override above m*beta is an InconsistentDataError."""
    m, beta = multiplicity(m), _require_angle(beta)
    if pos.alpha_beta_override is None:
        return min(m * beta, _min_alpha(pos, m))
    if pos.alpha_beta_override > m * beta:
        raise InconsistentDataError(
            f"alpha_beta override {format_rational(pos.alpha_beta_override)} exceeds "
            f"m*beta = {format_rational(m * beta)}, which bounds the log alpha invariant "
            "of (X, (1-beta)D) for D in |mL|")
    return pos.alpha_beta_override


def beta_u(pair: PolarisedPair, pos: PositivityData, m: int) -> Fraction:
    """Critical cone angle
    min{1, (n+1)/n * min{alpha_L, m*alpha_LD}/m + 1 - S_1/(m n)}, clamped at 0."""
    m, n = multiplicity(m), pair.dimension
    s1 = avg_scalar_s1(pair)
    raw = Fraction(n + 1, n) * _min_alpha(pos, m) / m + 1 - s1 / (m * n)
    return max(Fraction(0), min(Fraction(1), raw))


def _eta0_bound(
    pair: PolarisedPair, pos: PositivityData
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """T = max(Lambda, (S_1 - (n-1)lambda)/n), the large-m existence theorem's
    eta = 0 bound: its two conditions, Lambda - m(1-beta) < 0 and
    S_1 - m n (1-beta) - (n-1)lambda < 0, both read m(1-beta) > T.
    Returns T with the S_1, lambda and Lambda it is made of.
    """
    lam, Lam, _ = effective_nef_bounds(pair, pos)
    n, s1 = pair.dimension, avg_scalar_s1(pair)
    return max(Lam, (s1 - (n - 1) * lam) / n), s1, lam, Lam


def angle_window(pair: PolarisedPair, pos: PositivityData, m: int, case: str) -> AngleWindow:
    """Certified cone-angle window for the case "large", "given" or "uniform",
    the words of window --case; any other case is an InputError.

    Large-m existence: needs both terms of T = max(Lambda, (S_1 - (n-1)lambda)/n)
    below m, S_1 < m n + (n-1)lambda and Lambda < m (strict);
    (0, min{1, 1 - T/m}], so beta is in the window exactly when
    m(1-beta) >= T (see _eta0_bound and min_multiplicity_eta0).
    The other two cases need S_1 <= m n, checked before beta_u.
    Uniform log K-stability: [1 - ((n+1)lambda - S_1)/m, beta_u). With
    lambda <= S_1/n, which effective_nef_bounds holds the data to, S_1 <= m n
    gives (n+1)lambda <= S_1 + m, which makes the lower endpoint >= 0.
    Given-m existence: needs also Lambda <= S_1/n <= lambda + m(1 - beta_u);
    (0, beta_u].
    """
    m, n = multiplicity(m), pair.dimension
    if case not in ("large", "given", "uniform"):
        raise InputError(f"unknown window case {case!r}")
    bound, s1, lam, Lam = _eta0_bound(pair, pos)
    if case == "large":
        _require((s1 < m * n + (n - 1) * lam, f"S_1 = {format_rational(s1)} not < "
                  f"m*n + (n-1)*lambda = {format_rational(m * n + (n - 1) * lam)}"),
                 (Lam < m, f"Lambda = {format_rational(Lam)} not < m = {format_rational(m)}"))
        upper = min(Fraction(1), 1 - bound / m)
        return AngleWindow(Fraction(0), False, upper, True, WindowClaim.EXISTENCE_CSCK_CONE)
    # Before beta_u, which needs the alphas.
    _require((s1 <= m * n, f"S_1 = {format_rational(s1)} > m*n = {format_rational(m * n)}"))
    upper = beta_u(pair, pos, m)
    if case == "uniform":
        lower = 1 - ((n + 1) * lam - s1) / m
        return AngleWindow(lower, True, upper, False, WindowClaim.UNIFORM_LOG_K_STABLE)
    mu_bar, cap = s1 / n, lam + m * (1 - upper)
    _require((Lam <= mu_bar, f"Lambda = {format_rational(Lam)} not <= "
                             f"S_1/n = {format_rational(mu_bar)}"),
             (mu_bar <= cap, f"S_1/n = {format_rational(mu_bar)} not <= "
                             f"lambda + m(1 - beta_u) = {format_rational(cap)}"))
    return AngleWindow(Fraction(0), False, upper, True, WindowClaim.EXISTENCE_CSCK_CONE)


def eta_feasibility(
    pair: PolarisedPair, pos: PositivityData, m: int, beta: Fraction
) -> Verdict:
    """Feasibility of the coercivity constant eta at angle beta.

    The three conditions reduce to linear bounds on eta: eta >= 0,
    eta > up_c1 - m(1-beta)              (c1(X, D) below eta*c1(L)),
    eta > S_beta - (n-1)(lo_c1 - m(1-beta))   (third condition),
    eta < (n+1) alpha_beta / n.
    In the exact proportional model lo_c1 = up_c1 = x; otherwise the
    conservative lambda/Lambda sandwich bounds are used. The certificate is
    the midpoint of the feasible interval.

    At eta = 0 the third condition is stronger than the second eta = 0
    condition of min_multiplicity_eta0, S_1 - m n (1-beta) - (n-1)lambda < 0,
    by (n-1)m(1-beta), so an m that row gives need not admit eta = 0 here;
    the two agree when lambda = Lambda = S_1/n.
    """
    m, beta = multiplicity(m), _require_angle(beta)
    lo_c1, up_c1, model = effective_nef_bounds(pair, pos)
    alpha_beta = alpha_beta_lower_bound(pos, m, beta)
    n = pair.dimension
    s_beta = scalar_sbeta(pair, m, beta)

    bound_ii = up_c1 - m * (1 - beta)
    bound_iii = s_beta - (n - 1) * (lo_c1 - m * (1 - beta))
    upper = Fraction(n + 1, n) * alpha_beta
    strict_lower = max(bound_ii, bound_iii)
    facts = (
        f"alpha_beta >= {format_rational(alpha_beta)}",
        f"c1 bounds: [{format_rational(lo_c1)}, {format_rational(up_c1)}] ({model})",
        f"S_beta = {format_rational(s_beta)}",
    )
    source = "c1(X,D) bound" if bound_ii >= bound_iii else "third condition bound"
    interval_lo = max(Fraction(0), strict_lower)
    return _verdict(
        "log K-energy coercive: cscK cone metric exists and pair is uniformly log K-stable",
        facts,
        ((upper > 0, f"eta upper bound (n+1)*alpha_beta/n = {format_rational(upper)} "
                     "admits no eta >= 0"),
         (strict_lower < upper, f"required eta > {format_rational(strict_lower)} (from {source}) "
                                f"meets the cap eta < {format_rational(upper)}: empty interval")),
        model=model,
        certificate=(interval_lo + upper) / 2,
        certificate_note=(f"midpoint of feasible eta interval "
                          f"({format_rational(interval_lo)}, {format_rational(upper)})"),
        eta_interval=(interval_lo, upper),
    )


def min_multiplicity_eta0(pair: PolarisedPair, pos: PositivityData, beta: Fraction) -> int:
    """Least m >= 1 making both of the large-m theorem's eta = 0 conditions
    strict, Lambda - m(1-beta) < 0 and S_1 - m n (1-beta) - (n-1)lambda < 0:
    the least m with m(1-beta) > T (_eta0_bound).

    This is not the least m at which eta_feasibility admits eta = 0. Its
    third condition at eta = 0, S_beta - (n-1)(lambda - m(1-beta)) < 0, is
    stronger than the second one here by (n-1)m(1-beta); the two give the
    same least m when lambda = Lambda = S_1/n, as on every catalog pair.
    On a sandwich pair with n = 2, S_1 = 6, lambda = 2, Lambda = 3, alphas
    10, the least m at beta = 1/2 is 7, and eta at m = 7 certifies only
    eta in (1/2, 21/4).
    """
    beta = _require_angle(beta, allow_one=False)
    bound = _eta0_bound(pair, pos)[0]
    # Strict, where angle_window("large") admits m(1-beta) = T: open, ROADMAP direction 26.
    return max(1, bound // (1 - beta) + 1)


def entropy_threshold_check(
    pair: PolarisedPair, pos: PositivityData, m: int, beta: Fraction
) -> Verdict:
    """Entropy/J-threshold comparison: coercive if e > max{Lambda, S_beta - (n-1)lambda}.

    The default lower bound for the entropy threshold is (n+1) alpha_beta / n;
    pos.entropy_lower overrides it when supplied. A cscK cone metric forces
    DF >= 0, so for D in |L| (m = 1) and n >= 2, a satisfied verdict
    at a beta below closedform.instability_threshold, where the normal-cone
    family destabilises, is an InconsistentDataError.
    """
    m, beta = multiplicity(m), _require_angle(beta)
    lam, Lam, model = effective_nef_bounds(pair, pos)
    n = pair.dimension
    s_beta = scalar_sbeta(pair, m, beta)
    if pos.entropy_lower is not None:
        e_lower = pos.entropy_lower
        e_source = "user entropy_lower"
    else:
        e_lower = Fraction(n + 1, n) * alpha_beta_lower_bound(pos, m, beta)
        e_source = "(n+1)*alpha_beta/n"
    rhs = max(Lam, s_beta - (n - 1) * lam)
    facts = (f"e >= {format_rational(e_lower)} ({e_source})",
             f"max{{Lambda, S_beta - (n-1)*lambda}} = {format_rational(rhs)}")
    verdict = _verdict(
        "log K-energy coercive via entropy threshold; cscK cone metric exists",
        facts,
        ((e_lower > rhs,
          f"entropy lower bound {format_rational(e_lower)} not > {format_rational(rhs)}"),),
        model=model,
        certificate=e_lower,
        certificate_note="entropy lower bound exceeding the J-threshold bound",
    )
    if verdict.status is VerdictStatus.CRITERION_SATISFIED and m == 1 and n >= 2:
        from .closedform import instability_threshold  # only here: --m 2 loads no closedform

        threshold = instability_threshold(pair)
        if beta < threshold:
            raise InconsistentDataError(
                f"entropy certificate at beta = {format_rational(beta)} contradicts the pair: "
                f"angles below the instability threshold {format_rational(threshold)} are "
                "destabilised by the normal-cone family (see destabilize)")
    return verdict


class _CriteriaFields(NamedTuple):
    Sbeta: Fraction
    alpha_beta: Fraction
    n: int
    is_lc: bool = False
    is_klt: bool = False
    is_logCY: bool = False
    bullet1_eta: Fraction | None = None
    eta_class_ample: bool = False
    third_class_ample: bool = False
    bullet2_nef: bool = False
    corollary_neg: bool = False
    corollary_nef: bool = False
    klt_inv_semistable: bool = False
    klt_inv_ample: bool = False
    klt_inv_nef: bool = False


class SingularCriteriaInput(_CriteriaFields):
    """Caller-asserted facts about a (possibly singular) pair (X, (1-beta)*Delta).

    Boolean fields are assertions the caller takes responsibility for; they
    are echoed verbatim into the verdict's facts. A criterion is evaluated
    only when its distinguishing assertion is present. Every construction
    coerces the rationals to Fraction and checks the fields.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        data = super().__new__(cls, *args, **kwargs)
        data = data._replace(Sbeta=Fraction(data.Sbeta), alpha_beta=Fraction(data.alpha_beta))
        if data.alpha_beta < 0:
            raise InputError(f"alpha_beta must be >= 0, got {format_rational(data.alpha_beta)}")
        integer(data.n, "dimension", 1)
        if data.bullet1_eta is not None:
            data = data._replace(bullet1_eta=Fraction(data.bullet1_eta))
        if data.is_klt and not data.is_lc:
            raise InputError("is_klt asserted without is_lc (klt implies lc)")
        return data


UNIFORM_STABLE = "(X, L; Delta) is uniformly log K-stable with angle 2*pi*beta"
KLT_CONCLUSION = "(X, (1-beta)*Delta) is Kawamata log terminal"


def singular_criteria(data: SingularCriteriaInput) -> list[Verdict]:
    """Evaluate every applicable sufficient criterion for the singular pair.

    One verdict per criterion whose distinguishing assertion is present;
    each CriterionSatisfied names the criterion and echoes the asserted
    facts it consumed. Never asserts instability.
    """
    n = data.n
    s_beta = format_rational(data.Sbeta)
    # The eta row applies only when an eta is given; 0 keeps its checks defined.
    eta = Fraction(0) if data.bullet1_eta is None else data.bullet1_eta
    eta_cap = Fraction(n + 1, n) * data.alpha_beta
    nef_cap = format_rational((n + 1) * data.alpha_beta)
    lc_fact = f"asserted: lc = {data.is_lc}"
    lc = (data.is_lc, "lc not asserted")
    table = [
        (data.is_logCY, _verdict(
            f"{UNIFORM_STABLE} [via log Calabi-Yau criterion]",
            ("asserted: K_X + (1-beta)*Delta numerically trivial",
             f"asserted: klt = {data.is_klt}"),
            ((data.is_klt, "klt not asserted"),),
        )),
        (data.bullet1_eta is not None, _verdict(
            f"{UNIFORM_STABLE} [via negative-S_beta eta criterion]",
            (lc_fact,
             f"eta = {format_rational(eta)}",
             f"asserted: eta*L + K_X + (1-beta)*Delta ample = {data.eta_class_ample}",
             "asserted: -(n-1)(K_X + (1-beta)*Delta) - (S_beta - eta)*L ample = "
             f"{data.third_class_ample}"),
            (lc,
             (data.Sbeta < 0, f"S_beta = {s_beta} not < 0"),
             (0 <= eta < eta_cap, f"eta = {format_rational(eta)} not in "
                                  f"[0, (n+1)*alpha_beta/n = {format_rational(eta_cap)})"),
             (data.eta_class_ample, "eta-class ampleness not asserted"),
             (data.third_class_ample, "third-class ampleness not asserted")),
            certificate=eta, certificate_note="feasible eta supplied by caller",
        )),
        (data.bullet2_nef, _verdict(
            f"{UNIFORM_STABLE} [via nef comparison criterion]",
            (lc_fact,
             "asserted: -S_beta*L - (n+1)(K_X + (1-beta)*Delta) nef",
             f"S_beta = {s_beta}, (n+1)*alpha_beta = {nef_cap}"),
            (lc,
             (data.Sbeta < (n + 1) * data.alpha_beta,
              f"S_beta = {s_beta} not < (n+1)*alpha_beta = {nef_cap}")),
        )),
        (data.corollary_neg or data.corollary_nef, _verdict(
            f"{UNIFORM_STABLE} [via negative first-Chern-class corollary]",
            (lc_fact,
             f"asserted: c1(X, Delta) < 0 = {data.corollary_neg}",
             f"asserted: -S_beta*L + n*c1(X, Delta) nef = {data.corollary_nef}"),
            ((data.corollary_neg, "c1(X, Delta) < 0 not asserted"),
             (data.corollary_nef, "nef combination not asserted"),
             lc),
        )),
        (data.klt_inv_semistable or data.klt_inv_ample or data.klt_inv_nef, _verdict(
            f"{KLT_CONCLUSION} [via klt from semistability criterion]",
            (f"asserted: log K-semistable with angle 2*pi*beta = {data.klt_inv_semistable}",
             f"asserted: c1(X, Delta) > 0 = {data.klt_inv_ample}",
             "asserted: stated nef combination of S_beta*L and c1(X, Delta) = "
             f"{data.klt_inv_nef}"),
            ((data.klt_inv_semistable, "log K-semistability not asserted"),
             (data.klt_inv_ample, "c1(X, Delta) > 0 not asserted"),
             (data.klt_inv_nef, "nef combination not asserted")),
        )),
    ]
    return [verdict for applies, verdict in table if applies]
