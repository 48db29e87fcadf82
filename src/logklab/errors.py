"""Exception hierarchy shared by all logklab modules.

The CLI maps these onto process exit codes: InputError -> 3,
PreconditionFailedError -> 2, InternalCheckError -> 4.
"""

from __future__ import annotations


class LogKLabError(Exception):
    """Base class for every error raised by this package."""


class InputError(LogKLabError):
    """Malformed or inconsistent user-supplied data."""


class DimensionTooSmallError(InputError):
    """Operation needs dimension n >= 2 (divisor quantities undefined for n = 1)."""


class ParameterOutOfRangeError(InputError):
    """Blow-up parameter c outside the open interval (0, 1), or similar."""


class MissingAlphaDataError(InputError):
    """alpha(L) and alpha(L_D|_D) (or a direct alpha_beta override) are required."""


class MissingPositivityDataError(InputError):
    """lambda/Lambda bounds (or an exact proportionality coefficient) are required."""


class InconsistentDataError(InputError):
    """Supplied fields contradict each other (e.g. proportionality vs intersection numbers)."""


class InconsistentAssertionsError(InputError):
    """Caller-asserted geometric facts contradict each other (e.g. klt without lc)."""


class NonIntegralCKError(InputError):
    """The weight decomposition needs c*k to be a positive integer."""


class BelowValidityFloorError(InputError):
    """Requested k is below the dimension model's validity floor."""


class PreconditionFailedError(LogKLabError):
    """A theorem hypothesis fails for the given data; its message is the violated inequality."""


class NotBelowThresholdError(PreconditionFailedError):
    """beta is not below the instability threshold, so no destabilising c exists."""


class SearchExhaustedError(LogKLabError):
    """Search hit its resolution floor before finding a witness (tol too coarse)."""


class InternalCheckError(LogKLabError):
    """Two independent computation paths disagreed; must never happen on a correct build."""
