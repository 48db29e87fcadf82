"""The verdict form of a sufficient criterion, shared by thresholds (eta
and entropy) and criteria: a Verdict, the one evaluator of (holds, text)
checks, _violated, and the fields a verdict prints as.

A verdict certifies or reports Inconclusive; it never asserts instability.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple

NO_CERTIFICATE_NEEDED = "no certificate needed"


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


def _verdict_fields(v: Verdict) -> list:
    return [
        ("status", v.status.value), ("claim", v.claim), ("positivity model", v.model),
        ("eta interval", v.eta_interval), ("certificate", v.certificate),
        ("certificate note", v.certificate_note), ("violated", v.violated),
        *(("fact", fact) for fact in v.facts),
    ]
