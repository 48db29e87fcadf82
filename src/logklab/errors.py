"""Exception hierarchy shared by all logklab modules: one class per outcome.

cli.run maps each class onto an exit code, the stream that takes its
message, and the prefix the message follows:

- LogKLabError: exit 3, stderr, "error: ", as does any subclass not listed here.
- InputError: exit 3, stderr, "input error: ".
- InconsistentDataError: exit 3, stderr, "input error: "; _cmd_thresholds catches it.
- PreconditionFailedError: exit 2, stdout, "PreconditionFailed: ".
- InternalCheckError: exit 4, stderr, "internal cross-check failure: ".
"""

from __future__ import annotations


class LogKLabError(Exception):
    """Base class for every error raised by this package."""


class InputError(LogKLabError):
    """Malformed or inconsistent user-supplied data."""


class InconsistentDataError(InputError):
    """Supplied fields contradict each other (e.g. proportionality vs intersection numbers)."""


class PreconditionFailedError(LogKLabError):
    """A theorem hypothesis fails for the given data; its message is the violated inequality."""


class InternalCheckError(LogKLabError):
    """Two independent computation paths disagreed; must never happen on a correct build."""
