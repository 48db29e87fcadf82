"""Exact rational arithmetic, and polynomials held as their integer forward
differences (Newton series), with their values and sums over 0 <= j < x.

Every quantity in the package is a fractions.Fraction; floating point is
banned from the computation path (decimals are derived for display only).
"""

from __future__ import annotations

import re
import sys
from decimal import Context
from fractions import Fraction
from math import gcd, lcm
from operator import floordiv
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    digit limit.
    """
    return ratio_texts([value.numerator], [value.denominator])[0][0]


def json_record(record: NamedTuple) -> dict[str, str | int]:
    """A NamedTuple's fields by name, for a JSON report: an int stays an int,
    every other value becomes its format_rational text."""
    return {name: value if type(value) is int else format_rational(value)
            for name, value in record._asdict().items()}


def ratio_texts(nums: Sequence[int], dens: Sequence[int], digits: int = 0
                ) -> tuple[list[str], list[str]]:
    """(texts, decimals): the text format_rational(Fraction(nums[i], dens[i]))
    of each i (dens[i] > 0) and, if digits > 0, each
    decimal_string(Fraction(nums[i], dens[i]), digits), else no decimals,
    with no Fraction: gcd, the divisions and Context.divide each run once
    over the lists. Exact also past the int->str digit limit."""
    gcds = list(map(gcd, nums, dens))
    nums, dens = list(map(floordiv, nums, gcds)), list(map(floordiv, dens, gcds))
    try:
        texts = [f"{num}/{den}" if den != 1 else str(num) for num, den in zip(nums, dens)]
    except ValueError:  # the digit limit
        texts = [_int_to_str(num) + ("" if den == 1 else "/" + _int_to_str(den))
                 for num, den in zip(nums, dens)]
    decimals = map(Context(prec=digits).divide, nums, dens) if digits > 0 else ()
    return texts, list(map(str, decimals))


def decimal_string(value: Fraction | int, digits: int = 12) -> str:
    """Correctly rounded decimal with the given number of significant digits.

    For plotting/report columns only; never re-ingested.
    """
    return str(Context(prec=digits).divide(value.numerator, value.denominator))


def scaled_values(coefficients: list[Fraction | int], xs: Iterable[int]
                  ) -> tuple[int, Iterator[int]]:
    """(d, the integers d p(x) for x of xs, lazily) for the polynomial
    p(x) = sum_i coefficients[i] x**i and the least common denominator d of
    its coefficients, by integer Horner over the d a_i."""
    d = lcm(*(c.denominator for c in coefficients))
    scaled = [c.numerator * (d // c.denominator) for c in reversed(coefficients)]

    def values() -> Iterator[int]:
        for x in xs:
            acc = 0
            for a in scaled:
                acc = acc * x + a
            yield acc
    return d, values()


def forward_differences(coefficients: list[Fraction | int]) -> tuple[int, list[int]]:
    """(d, [d D_0, ..., d D_m]): the forward differences D_i = Δ^i p(0) of the
    polynomial p(x) = sum_i coefficients[i] x**i, times the least common
    denominator d of its coefficients, from scaled_values at 0..m. Newton's
    formula gives p(x) = sum_i D_i C(x, i), and summation on the upper index
    gives sum_{0<=j<x} p(j) = sum_i D_i C(x, i + 1) (newton_sums). The D_i
    are all integers exactly when p is integer-valued (Polya). The package
    converts monomial coefficients here and nowhere else."""
    d, values = scaled_values(coefficients, range(len(coefficients)))
    return d, leading_differences(list(values))


def leading_differences(values: list[int]) -> list[int]:
    """[Δ^0 v(0), Δ^1 v(0), ...] for the values v(0), v(1), ... of a
    sequence at consecutive integers: as many differences as values."""
    differences = []
    while values:
        differences.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return differences


def newton_sums(differences: list[int], x: int) -> tuple[int, int, int]:
    """(sum_i D_i C(x, i), sum_i D_i C(x - 1, i), sum_i D_i C(x, i + 1)) at an
    integer x for differences D: the values at x and at x - 1 and the sum
    over 0 <= j < x, in one pass over the C(x - 1, i), by
    C(x, i) = C(x - 1, i) + C(x - 1, i - 1). It is the package's one
    Newton-series function: the explicit model's counts, the oracle's walk
    and the sample check it is held to all evaluate through it."""
    y = x - 1
    below = rise = ahead = 0
    previous, binomial = 0, 1  # C(y, i - 1), C(y, i)
    for i, step in enumerate(differences):
        following = binomial * (y - i) // (i + 1)  # exact: it is C(y, i + 1)
        below += step * binomial
        rise += step * previous
        ahead += step * following
        previous, binomial = binomial, following
    return below + rise, below, below + ahead
