"""Exact rational arithmetic and its text: parsing, format_rational and
decimals. The handlers' tables and fields are written by tables.

format_rational is the one writer of a rational's text: it writes the
terms of the reduced Fraction it is given, and past the int->str digit
limit it is the package's only writer of an integer (_int_to_str).

Every quantity in the package is a fractions.Fraction; floating point is
banned from the computation path (decimals are derived for display only).
The Newton series of the count polynomials live in hilbert.
"""

from __future__ import annotations

import re
import sys
from decimal import Context
from fractions import Fraction

from .errors import InputError

# [0-9], not \d, which also matches the digits of other scripts.
_RATIONAL_RE = re.compile(r"^([+-]?[0-9]+)(?:/([1-9][0-9]*))?$")

def _int_to_str(value: int) -> str:
    """str(value), also past the interpreter's int->str digit limit.

    A value str() refuses is split at a power of ten about half its length
    and the halves are converted recursively; the limit itself is never
    changed.
    """
    try:
        return str(value)
    except ValueError:
        if value < 0:
            return "-" + _int_to_str(-value)
        half = value.bit_length() * 3 // 20  # log10(2) > 0.3, so high is nonzero
        high, low = divmod(value, 10**half)
        return _int_to_str(high) + _int_to_str(low).zfill(half)


def _str_to_int(digits: str) -> int:
    """int(digits) for an optionally signed digit string, also past the limit."""
    try:
        return int(digits)
    except ValueError:  # the digit limit: parse_rational admits only digits
        if digits[0] in "+-":
            magnitude = _str_to_int(digits[1:])
            return -magnitude if digits[0] == "-" else magnitude
        half = len(digits) // 2
        return _str_to_int(digits[:-half]) * 10**half + _str_to_int(digits[-half:])


def parse_rational(text: str) -> Fraction:
    """Parse the wire format "p/q" or a bare integer string, exactly.

    Also parses integers past the interpreter's int<->str digit limit, so
    every format_rational output parses back; the work grows with the
    length of text.
    """
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise InputError(f"not a rational: {text!r} (expected 'p/q' or an integer string)")
    num = _str_to_int(m.group(1))
    den = _str_to_int(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)


def _input_rational(value) -> Fraction:
    """parse_rational for a value from the command line or an input file.

    Each integer is held to the interpreter's int->str digit limit (4300 by
    default). The limit only bounds the parsing work: every report renders
    rationals through format_rational, which is exact past it.
    """
    text = str(value)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # absent before 3.10.7
    if limit and any(len(part.strip().lstrip("+-")) > limit for part in text.split("/")):
        raise InputError(f"rational input has an integer of more than {limit} digits")
    return parse_rational(text)


def format_rational(value: Fraction | int) -> str:
    """Render as "p/q", or a bare integer string when the denominator is 1.

    Equal to str() of the Fraction, also past the interpreter's int<->str
    digit limit. A Fraction is already reduced, so its terms are written as
    they are.
    """
    num, den = value.numerator, value.denominator
    try:
        return f"{num}/{den}" if den != 1 else str(num)
    except ValueError:  # the digit limit
        return _int_to_str(num) + ("" if den == 1 else "/" + _int_to_str(den))


def decimal_string(value: Fraction | int, digits: int = 12) -> str:
    """Correctly rounded decimal with the given number of significant digits.

    For plotting/report columns only; never re-ingested.
    """
    return str(Context(prec=digits).divide(value.numerator, value.denominator))
