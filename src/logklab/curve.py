"""The df-curve grid: the closed-form DF's columns at c = i/(steps+1), built
from the sign kernel's integer values, and their CSV or JSON text.

Both ends of the grid are checked against the Fraction closed form of
closedform, and the texts of both end rows against format_rational and
decimal_string of those Fractions (_fraction_row), before any row is
returned. A batch with an integer past the int->str digit limit is written
by _fraction_row too, so exactnum alone writes such an integer. This module
holds no root search: df-curve loads closedform, kernel and this module,
destabilize and critical-c load kernel and normalcone. The df-curve handler
lives here.
"""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction
from functools import partial
from itertools import repeat
from math import gcd
from operator import floordiv
from typing import Iterable, Iterator, Sequence

from .closedform import _pair_of
from .errors import EXIT_OK, InternalCheckError
from .exactnum import decimal_string, format_rational
from .kernel import _Kernel, _kernel
from .pairmodel import PolarisedPair, integer

# Largest --steps of df-curve: 10^5 rows of P2-line take 0.45 s per process
# and 16 MB of CSV (2-core x86-64 VM, Python 3.11); see the README.
CURVE_STEPS_LIMIT = 10**5
# Points of one batch of curve_rows, so rows per write call of df-curve.
CURVE_BATCH = 256
# The fields of a batch, in their order: df-curve's columns.
GRID_FIELDS = ("c", "df", "inner_factor", "jna")
# The GRID_FIELDS with one denominator per grid (d, or a constant times
# d^(n+1)); the inner factor's varies with the point.
_SHARED_DENOMINATOR = ("c", "df", "jna")
# A batch: a (numerators, denominators) column pair per field of
# GRID_FIELDS, in its order, the integers unreduced.
_Batch = list[tuple[Sequence[int], list[int]]]


def _columns(kernel: _Kernel, d: int, a_values: Sequence[int]) -> _Batch:
    """The _Batch of the points c = a/d, a of a_values (0 < a < d): the
    columns of c, DF, the inner factor and J^NA.

    The powers of d and the constants of the denominators are computed once
    per batch; each point needs b^n, V and d^(n+1) - b^(n+1), and no tuple.
    """
    n, a0_num = kernel.n, kernel.a0.numerator
    d_n = d**n
    d_n1 = d_n * d
    inner_den = kernel.den * n
    jna_lead = (n + 1) * d_n
    jna_den = (n + 1) * d_n1
    df_den = kernel.a0.denominator * jna_den * kernel.den
    k = len(a_values)
    bs = [d - a for a in a_values]
    b_ns = [b**n for b in bs]
    vs = kernel.values(d, a_values, b_ns)
    gaps = [d_n1 - b_n * b for b_n, b in zip(b_ns, bs)]  # d^(n+1) - b^(n+1) > 0
    return [(a_values, [d] * k), ([a0_num * v for v in vs], [df_den] * k),
            (vs, [inner_den * gap for gap in gaps]),
            ([jna_lead * a - gap for a, gap in zip(a_values, gaps)], [jna_den] * k)]


def _reports(batches: Iterable[_Batch]) -> Iterator[tuple[Fraction, ...]]:
    """The points of the batches as tuples of their GRID_FIELDS, in Fractions."""
    for columns in batches:
        yield from zip(*(map(Fraction, nums, dens) for nums, dens in columns))


def curve_rows(pair: PolarisedPair, beta: Fraction, steps: int
               ) -> tuple[_Batch, Iterator[_Batch]]:
    """(the batch of the end points c = 1/(steps+1) and 1 - 1/(steps+1),
    the batches of CURVE_BATCH points c = i/(steps+1), i = 1..steps, the
    last one shorter, computed lazily).

    The Fraction closed form at both ends is the independent second path:
    a DF, inner factor or J^NA that differs from it raises InternalCheckError
    before the batches are returned. A steps that is not an int in
    1..CURVE_STEPS_LIMIT is an InputError.
    """
    integer(steps, "steps", 1, CURVE_STEPS_LIMIT)
    beta = Fraction(beta)
    constants = _pair_of(pair)
    kernel, d = _kernel(constants, beta), steps + 1
    ends = _columns(kernel, d, (1, d - 1))
    for c, df, inner, jna in _reports([ends]):
        closed = constants.at(c).df(beta)
        if (df, inner, jna) != (closed.df, closed.inner_factor, closed.jna):
            raise InternalCheckError(
                f"df-curve grid and closed form disagree at c = {format_rational(c)}: "
                f"DF {format_rational(df)} against {format_rational(closed.df)}"
            )
    return ends, (_columns(kernel, d, range(start, min(start + CURVE_BATCH, d)))
                  for start in range(1, d, CURVE_BATCH))


# df-curve's formats: (head, row template, separator, tail, decimal digits).
# A template holds "%s%s" per field, its reduced numerator and its "/q"
# suffix ("" where q = 1), then, for CSV, "%s" per field decimal.
_FORMATS = {
    # No field needs CSV quoting: rationals and decimals hold no comma,
    # quote or newline.
    "csv": (",".join([*GRID_FIELDS, *(f"{name}_decimal" for name in GRID_FIELDS)]) + "\n",
            ",".join(["%s%s"] * len(GRID_FIELDS) + ["%s"] * len(GRID_FIELDS)) + "\n",
            "", "", 12),
    # The bytes of json.dumps(rows, indent=2): the keys are fixed and every
    # value is [-0-9/] text, so nothing needs escaping.
    "json": ("[\n  ", "{\n%s\n  }" % ",\n".join(f'    "{name}": "%s%s"' for name in GRID_FIELDS),
             ",\n  ", "\n]\n", 0),
}


class _Suffixes(dict):
    """The suffix "/q" of one grid denominator den reduced by each gcd g met,
    q = den/g, or "" where q = 1: built once per distinct g. divisor is den
    as a Decimal, for the column's decimals."""

    def __init__(self, den: int):
        super().__init__()
        self.den, self.divisor = den, Decimal(den)

    def __missing__(self, g: int) -> str:
        q = self.den // g
        suffix = self[g] = f"/{q}" if q != 1 else ""
        return suffix


def _row_texts(row: str, digits: int, tables: dict[str, _Suffixes], batch: _Batch) -> list[str]:
    """The rows of batch through the template row, one % per row over the
    reduced numerators, their suffixes and, if digits, their decimals.

    A field of _SHARED_DENOMINATOR reads its suffixes from its _Suffixes in
    tables and divides its numerators by that table's Decimal divisor; the
    inner factor's denominators are reduced and formatted per point. A
    batch with an integer past the int->str digit limit is written by
    _fraction_row instead.
    """
    divide = Context(prec=digits).divide if digits else None
    fields, decimals = [], []
    try:
        for name, (nums, dens) in zip(GRID_FIELDS, batch):
            if name in tables:
                suffixes = tables[name]
                gcds = list(map(gcd, nums, repeat(suffixes.den)))
                fields += (map(floordiv, nums, gcds), list(map(suffixes.__getitem__, gcds)))
                divisors = repeat(suffixes.divisor)
            else:
                gcds = list(map(gcd, nums, dens))
                nums, divisors = list(map(floordiv, nums, gcds)), list(map(floordiv, dens, gcds))
                fields += (nums, [f"/{q}" if q != 1 else "" for q in divisors])
            if divide:
                decimals.append(map(divide, nums, divisors))
        return list(map(row.__mod__, zip(*fields, *decimals)))
    except ValueError:  # the digit limit
        return [_fraction_row(row, digits, values) for values in _reports([batch])]


def _fraction_row(row: str, digits: int, values: tuple[Fraction, ...]) -> str:
    """The template row filled with format_rational and, if digits,
    decimal_string of each value: the reference writer of a row."""
    fields = [field for value in values for field in (format_rational(value), "")]
    return row % (*fields, *(decimal_string(value, digits) for value in values if digits))


def curve_text(pair: PolarisedPair, beta: Fraction, steps: int, fmt: str) -> Iterator[str]:
    """df-curve's output in fmt, "csv" or "json", as lazily computed pieces:
    the head with the first batch's rows, then one piece per further batch,
    then the tail.

    Before it returns, curve_rows checks both ends against the closed form,
    and the texts of both end rows must equal _fraction_row of their
    Fractions: the row template filled with format_rational and, for CSV,
    decimal_string (InternalCheckError otherwise).
    """
    ends, batches = curve_rows(pair, beta, steps)
    head, row, between, tail, digits = _FORMATS[fmt]
    tables = {name: _Suffixes(dens[0])
              for name, (_, dens) in zip(GRID_FIELDS, ends) if name in _SHARED_DENOMINATOR}
    texts = partial(_row_texts, row, digits, tables)
    for text, values in zip(texts(ends), _reports([ends])):
        if text != _fraction_row(row, digits, values):
            raise InternalCheckError(f"df-curve text and the Fraction writers disagree at "
                                     f"c = {format_rational(values[0])}")

    # One piece, so one write, per batch of rows, not per row: with
    # PYTHONUNBUFFERED set, each write is a system call. Memory stays
    # bounded by the batch.
    def pieces() -> Iterator[str]:
        lead = head
        for batch in batches:
            yield lead + between.join(texts(batch))
            lead = between
        yield tail

    return pieces()


def _cmd_df_curve(ns) -> tuple[int, Iterable[str]]:
    return EXIT_OK, curve_text(ns.source.pair, ns.beta, ns.steps, ns.format)
