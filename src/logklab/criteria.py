"""Singular-pair criteria: sufficient conditions for uniform log K-stability
and for klt, evaluated on caller-asserted facts, with the criteria handler.

Each criterion is a Verdict through the verdict form it shares with
thresholds (verdict._verdict): Inconclusive at the first condition that
fails, never an instability claim. Only the criteria subcommand loads this
module, and it loads no thresholds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import EXIT_INCONCLUSIVE, EXIT_OK, InputError
from .exactnum import format_rational
from .pairmodel import integer
from .tables import _fields
from .verdict import Verdict, VerdictStatus, _verdict, _verdict_fields


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


def _cmd_criteria(ns) -> tuple[int, Iterable[str]]:
    from . import inputs

    data = inputs._parse_criteria_file(ns.file)
    verdicts = singular_criteria(data)
    if not verdicts:
        return EXIT_INCONCLUSIVE, ["no criterion applicable: no distinguishing assertion present\n"]
    satisfied = any(v.status is VerdictStatus.CRITERION_SATISFIED for v in verdicts)
    return EXIT_OK if satisfied else EXIT_INCONCLUSIVE, [
        "\n".join(_fields(_verdict_fields(v)) for v in verdicts)]
