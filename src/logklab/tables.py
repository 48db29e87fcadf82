"""The text of the handlers' reports: a table of (label, value, provenance)
rows with a decimal column, and `label: value` fields.

Only the subcommands that print a table or fields load this module:
info, scalar, catalog show, thresholds, window, eta, entropy, df,
destabilize, critical-c and criteria. df-curve writes its rows, and oracle
its JSON report, without it.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import decimal_string, format_rational


def _field_text(value) -> str:
    """A field value as text: every rational exact through format_rational,
    a tuple as (a, b) and a list as [a, b]."""
    if isinstance(value, Fraction) or type(value) is int:
        return format_rational(value)
    if isinstance(value, (tuple, list)):
        inner = ", ".join(map(_field_text, value))
        return f"({inner})" if isinstance(value, tuple) else f"[{inner}]"
    return str(value)


def _table(rows) -> str:
    """(label, value, provenance) rows as a table with a decimal column; a
    str value, such as "n/a", has no decimal."""
    header = f"{'quantity':<34} {'exact':>20}  {'decimal':<18} {'provenance'}"
    lines = [header, "-" * len(header)]
    for label, value, provenance in rows:
        dec = "" if isinstance(value, str) else decimal_string(value)
        lines.append(f"{label:<34} {_field_text(value):>20}  {dec:<18} {provenance}")
    return "".join(f"{line}\n" for line in lines)


def _fields(fields) -> str:
    """One `label: value` line per (label, value) field, skipping None values."""
    return "".join(f"{label}: {_field_text(value)}\n" for label, value in fields
                   if value is not None)
