from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logklab.errors import InputError
from logklab.exactnum import (
    decimal_string,
    format_rational,
    parse_rational,
)
from logklab.hilbert import forward_differences, newton_sums

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


# ----------------------------- parsing / formatting -----------------------------


@pytest.mark.parametrize("text, expected", [
    ("5/24", Fraction(5, 24)),
    ("-5/24", Fraction(-5, 24)),
    ("7", Fraction(7)),
    ("-7", Fraction(-7)),
    ("0", Fraction(0)),
    (" 3/4 ", Fraction(3, 4)),
])
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("bad", ["", "1/0", "1/-2", "0.5", "1e3", "a/b", "1 / 2", "--3", "1_0",
                                 "\u0663/4", "3/1\u0664", "\uff11"])  # Arabic-Indic, fullwidth
def test_parse_rational_rejects(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


@given(rationals)
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_format_bare_integer_when_denominator_one():
    assert format_rational(Fraction(14, 2)) == "7"
    assert format_rational(Fraction(5, 24)) == "5/24"


@given(st.fractions(max_denominator=2**200))
def test_format_rational_equals_str_below_digit_limit(q):
    assert format_rational(q) == str(q)


# Past the interpreter's int<->str digit limit (4300 by default): str() raises.
@pytest.mark.parametrize("q", [
    Fraction(1, 2**16385),
    Fraction(-(3**9000) + 1, 7**6000),
    Fraction(10**6000),
    Fraction(-(10**6000) + 1),
    Fraction(3**9001 - 1, 10**5000 + 1),
])
def test_format_rational_past_digit_limit_round_trips(q):
    text = format_rational(q)
    assert len(text) > 4300
    assert parse_rational(text) == q
    num, _, den = text.partition("/")
    assert num.lstrip("-")[0] != "0" and (not den or den[0] != "0")


def test_decimal_string_rounding():
    assert decimal_string(Fraction(5, 24)) == "0.208333333333"
    assert decimal_string(Fraction(-1, 48)) == "-0.0208333333333"
    assert decimal_string(Fraction(6)) == "6"


@settings(max_examples=300, deadline=None)
@given(
    q=st.fractions(max_denominator=10**30).map(lambda x: x * 10 ** 40)
    | st.fractions(max_denominator=10**30),
    digits=st.integers(min_value=1, max_value=40),
)
def test_decimal_string_matches_a_local_context_division(q, digits):
    # Reference: the same division in the current context at prec = digits.
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = digits
        expected = str(Decimal(q.numerator) / Decimal(q.denominator))
    assert decimal_string(q, digits) == expected


# Factors that put an integer past the int->str digit limit, or leave it.
_SCALES = st.sampled_from([1, 1, 3**9001, 10**4400 + 1])


@st.composite
def _ratio_terms(draw):
    """(num, den), den > 0: a negative num, a den that divides num and terms
    past the digit limit among them."""
    den = draw(st.integers(min_value=1, max_value=10**20)) * draw(_SCALES)
    if draw(st.booleans()):
        return den * draw(st.integers(min_value=-10**6, max_value=10**6)), den
    return draw(st.integers(min_value=-10**30, max_value=10**30)) * draw(_SCALES), den


@settings(max_examples=300, deadline=None)
@given(terms=_ratio_terms())
def test_format_rational_writes_every_reduced_fraction(terms):
    q = Fraction(*terms)
    text = format_rational(q)
    assert parse_rational(text) == q
    try:
        expected = str(q)
    except ValueError:  # the digit limit: only the round trip holds
        return
    assert text == expected


# ----------------------------- field laws / canonical form -----------------------------


@given(rationals, rationals, rationals)
def test_rational_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(rationals, rationals)
def test_rational_canonical_form_preserved(a, b):
    import math
    for value in (a + b, a - b, a * b) + ((a / b,) if b != 0 else ()):
        assert value.denominator > 0
        assert math.gcd(abs(value.numerator), value.denominator) == 1


# ----------------------------- Newton series -----------------------------


def _binomial(i):
    """C(x, i) as its coefficient list in x: x (x - 1) ... (x - i + 1) / i!."""
    falling = [1]
    for j in range(i):  # times (x - j)
        falling = [b - j * a for a, b in zip([*falling, 0], [0, *falling])]
    return [Fraction(a, factorial(i)) for a in falling]


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=9),
       x=st.integers(min_value=0, max_value=60))
def test_newton_sums_equal_literal_sums(steps, x):
    # An integer-valued H = sum_i steps[i] C(x, i) of degree <= 8.
    coefficients = [0] * len(steps)
    for i, step in enumerate(steps):
        for m, a in enumerate(_binomial(i)):
            coefficients[m] += step * a
    def h(x):  # Fraction Horner over the coefficient list
        acc = Fraction(0)
        for a in reversed(coefficients):
            acc = acc * x + a
        return acc

    den, differences = forward_differences(coefficients)
    differences += [0, 0]  # zero past the degree
    assert [Fraction(d, den) for d in differences] == [*steps, 0, 0]
    assert newton_sums(differences, x) == (
        den * h(x), den * h(x - 1), den * sum(h(j) for j in range(x)))

