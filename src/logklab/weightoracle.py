"""Brute-force verification engine for the normal-cone family.

Dimensions and weights are obtained by literally summing the section counts
of the central-fibre decomposition, never through the closed forms they are
meant to check. Every sample must equal the sums at its level of the
model's stored integer forward differences (exactnum.newton_sums), and the
coefficients read off their top two must agree with normalcone.coefficients
exactly.

The sample at level k sums the divisor counts h_D(j) over the block range
(k - ck, k]. sum_samples serves every sample of one (model, c) from a single
ascending walk over the union of those ranges, which records the running
sums S0 = sum h_D(j) and S1 = sum j h_D(j) at each range end, so each
sample is a difference of two records. Each contiguous run of the union
starts with a few literal h_divisor calls. On a plain HilbertModel, whose
h_D is a polynomial in j, their integer forward differences fix the whole
run. A run of more than twice as many values as it has records, whose
differences are all >= 0, is jumped: each record is two
exactnum.newton_sums series, the model's counts and their product with j,
so its cost does not grow with the denominator of c, and the run's last
count is checked against a literal call. Any other run, and every run of
another model, is counted, each h_D(j) read once, and a count of more than
ORACLE_LITERAL_LIMIT values is refused (InputError) before it starts. An
invalid model is refused (InputError) at the first bad count the walk
meets. dims_and_weights is the literal per-sample sum, kept as the
reference the walk is checked against: every report recomputes its first
sample that way (InternalCheckError on any difference), and refuses one of
more than ORACLE_LITERAL_LIMIT divisor counts (InputError) before any sum
runs.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .errors import InputError, InternalCheckError
from .exactnum import format_rational, json_record, leading_differences, newton_sums
from .normalcone import (
    NormalConeCoefficients, _require_c, coefficients as closed_form_coefficients)
from .pairmodel import HilbertModel, PolarisedPair, integer


class WeightSample(NamedTuple):
    """Exact per-k dimension and total-weight data for the family at c."""

    k: int
    d_k: int
    w_k: Fraction
    d_tilde_k: int
    w_tilde_k: Fraction
    c: Fraction


def _check_admissible(model: HilbertModel, c: Fraction, k: int) -> int:
    """Return the integer ck after validating the preconditions at level k,
    an int, c being already checked to lie in (0, 1)."""
    ck, rest = divmod(c.numerator * integer(k, "k"), c.denominator)  # on integers: once per sample
    if rest:
        raise InputError(f"c*k = {format_rational(c * k)} is not an integer "
                         f"(c = {format_rational(c)}, k = {k})")
    if ck < 1:
        raise InputError(f"need c*k >= 1, got c*k = {ck}")
    if k < model.floor or k - ck < model.floor:
        raise InputError(f"k = {k} gives arguments below the model's validity floor {model.floor}")
    return ck


def dims_and_weights(model: HilbertModel, c: Fraction, k: int) -> WeightSample:
    """Literal sums over the central-fibre decomposition at level k.

    d_k counts h_X((1-c)k) plus the divisor blocks; each block t^(ck-i)
    carries weight -(ck-i), so w_k = -sum (ck-i) h_D(k-i). The divisor part
    contributes d~_k = h_D(k) in the single weight -ck.

    This is the reference path: sum_samples computes the same samples from
    one shared walk, and is checked against this function.
    """
    c = _require_c(c)
    ck = _check_admissible(model, c, k)
    d = model.h_total(k - ck)
    w = 0
    for i in range(ck):
        block = model.h_divisor(k - i)
        d += block
        w -= (ck - i) * block
    d_tilde = model.h_divisor(k)
    return WeightSample(
        k=k,
        d_k=d,
        w_k=Fraction(w),
        d_tilde_k=d_tilde,
        w_tilde_k=Fraction(-ck * d_tilde),
        c=c,
    )


def sum_samples(model: HilbertModel, c: Fraction, ks: list[int]) -> list[WeightSample]:
    """[dims_and_weights(model, c, k) for k in ks] on a valid model, from one shared walk.

    The walk goes ascending over the union of the block ranges (k - ck, k]
    and records the running sums S0 = sum h_D(j) and S1 = sum j h_D(j) at
    every range end. Each range lies inside the union, so differences of
    the records are exact even where the ranges leave gaps. With
    base = k - ck and the differences dS0, dS1 across (base, k]:

        d_k = h_X(base) + dS0,   w_k = -(dS1 - base dS0),   d~_k = h_D(k).

    The records of each maximal contiguous run of the union come from one
    jump or one count (_record_run), so a model is counted or jumped over in
    one pass, linear in the union at worst. A run too long to count, and a
    model fault such as a negative count, is refused (InputError) where the
    walk meets it first. c is checked once, when ks is not empty.
    """
    c = _require_c(c) if ks else Fraction(c)
    bases = [k - _check_admissible(model, c, k) for k in ks]
    # Ranges opening minus ranges closing at each end point.
    depth_change: dict[int, int] = {}
    for k, base in zip(ks, bases):
        depth_change[base] = depth_change.get(base, 0) + 1
        depth_change[k] = depth_change.get(k, 0) - 1
    records: dict[int, tuple[int, int, int]] = {}  # end point -> (S0, S1, last h_D)
    points: list[int] = []
    depth = 0
    for x in sorted(depth_change):
        points.append(x)
        depth += depth_change[x]
        if not depth:  # a maximal run of the union ends at x
            _record_run(model, points, records)
            points = []
    samples = []
    for k, base in zip(ks, bases):
        s0_base, s1_base, _ = records[base]
        s0_k, s1_k, d_tilde = records[k]
        count = s0_k - s0_base
        samples.append(WeightSample(
            k=k,
            d_k=model.h_total(base) + count,
            w_k=Fraction(base * count - (s1_k - s1_base)),
            d_tilde_k=d_tilde,
            w_tilde_k=Fraction((base - k) * d_tilde),
            c=c,
        ))
    return samples


def _record_run(
    model: HilbertModel, points: list[int], records: dict[int, tuple[int, int, int]]
) -> None:
    """Record (S0, S1, h_D(x)) at each end point x of the run (points[0], points[-1]].

    The sums start at 0 on each run: every block range lies inside one run.
    The run's first max(degree(h_X), 1) counts from lo = points[0] + 1 are
    read literally. On a plain HilbertModel, h_D(j) for j >= 1 is a
    polynomial of degree below that, so these seeds fix its forward
    differences D_i at lo, and with t = x - lo + 1

        h_D(x) = sum_i D_i C(t-1, i),   S0(x) = sum_i D_i C(t, i+1),
        S1(x) = sum_i E_i C(t, i+1),    E_i = lo D_i + i (D_(i-1) + D_i),

    E being the differences of j h_D(j) (the product rule): h_D(x) and S0(x)
    are the second and third values of newton_sums(D, t), S1(x) the third of
    newton_sums(E, t). A run is counted when that is cheaper: when it holds
    at most twice as many values as it has records, since a jump costs two
    Newton series per record and a count one h_divisor call per value. Any
    longer run jumps if every D_i >= 0, which makes every count >= 0: its
    records cost O(records x degree) whatever its length, and its last count
    must equal a literal h_divisor call (InternalCheckError otherwise). Any
    other run, and every run of another model, is counted: each
    h_divisor(j) past the seeds is read once, and a run of more than
    ORACLE_LITERAL_LIMIT counts is refused first (InputError), as is a
    negative count (HilbertModel.h_divisor).
    """
    lo, ends, last = points[0] + 1, points[1:], points[-1]
    length = last - lo + 1
    records[points[0]] = (0, 0, 0)  # a run starts at a base, never at a k: no h_D read
    h_divisor = model.h_divisor
    seeds = [h_divisor(j) for j in range(lo, min(lo + max(model.degree, 1), last + 1))]
    steps = leading_differences(seeds)
    if type(model) is not HilbertModel or length <= 2 * len(ends) or min(steps) < 0:
        if length > ORACLE_LITERAL_LIMIT:
            raise InputError(
                f"the walk would count a run of {length} divisor counts from j = {lo}, "
                f"more than the limit {ORACLE_LITERAL_LIMIT}")
        s0 = s1 = 0
        for x in ends:
            counts, seeds = seeds[:x + 1 - lo], seeds[x + 1 - lo:]
            counts += map(h_divisor, range(lo + len(counts), x + 1))
            s0 += sum(counts)
            s1 += sum(map(mul, range(lo, x + 1), counts))
            records[x] = (s0, s1, counts[-1])
            lo = x + 1
        return
    steps.append(0)  # j h_D(j) has one forward difference more
    products = [lo * d + i * (below + d) for i, (below, d) in enumerate(zip([0, *steps], steps))]
    for x in ends:
        _, h, s0 = newton_sums(steps, x - lo + 1)
        records[x] = (s0, newton_sums(products, x - lo + 1)[2], h)
    literal = h_divisor(last)
    if literal != h:
        raise InternalCheckError(
            f"forward differences and the literal divisor count disagree at j = {last}: "
            f"{h} != {literal}"
        )


def _first_level(model: HilbertModel, c: Fraction) -> int:
    """The least admissible k; the admissible k are it and every q-th after.

    With c = p/q in lowest terms, c k is an integer exactly at k = t q. There
    c k = t p is >= 1 iff t >= 1, and k - c k = t (q - p) <= k, so the floor
    binds on t (q - p) alone: t >= max(1, ceil(floor / (q - p))).
    """
    c = _require_c(c)
    q = c.denominator
    return q * max(1, -(-model.floor // (q - c.numerator)))


def admissible_ks(model: HilbertModel, c: Fraction, k_max: int) -> list[int]:
    """All k <= k_max, an int, satisfying the decomposition's preconditions.

    When k_max < denominator(c) there is none, and c is not checked.
    """
    c = Fraction(c)
    if integer(k_max, "--kmax") < c.denominator:
        return []
    return list(range(_first_level(model, c), k_max + 1, c.denominator))


def _check_samples(steps: tuple[int, ...], c: Fraction, samples: list[WeightSample]) -> None:
    """InternalCheckError unless each sample's d_k, w_k, d~_k is H(k),
    G(k) - G((1-c)k) - c k H(k) and H(k) - H(k-1), over the integer forward
    differences steps of H, G(x) the sum of H(j) over 0 <= j < x: H(k), H(k-1)
    and G(k) from one newton_sums pass, G((1-c)k) from another."""
    for sample in samples:
        k, ck = sample.k, int(c * sample.k)
        h_k, h_below, g_k = newton_sums(steps, k)
        for name, value, summed in (
                ("d_k", sample.d_k, h_k),
                ("w_k", sample.w_k, g_k - newton_sums(steps, k - ck)[2] - ck * h_k),
                ("d_tilde_k", sample.d_tilde_k, h_k - h_below)):
            if value != summed:
                raise InternalCheckError(
                    f"walked sample and sum polynomial disagree at k = {k}: {name} = "
                    f"{format_rational(value)}, polynomial {format_rational(summed)}")


# Largest k_max of the oracle listing (the CLI's --kmax); see the README for its cost.
ORACLE_KMAX_LIMIT = 10000
# Most divisor counts the literal reference sums at the first admissible level,
# c k there: about 0.8 s for a builtin model and 4 s for an explicit one
# (2-core x86-64 VM, Python 3.11); see the README. The walk holds each run it
# counts, rather than jumps over, to the same limit.
ORACLE_LITERAL_LIMIT = 10**6


def oracle_report(
    pair: PolarisedPair, model: HilbertModel | None, c: Fraction, k_max: int | None = None
) -> dict:
    """Cross-check record: recovered coefficients vs closed forms.

    samples lists the samples at admissible_ks(model, c, k_max), by default at
    the first n+4. One walk (sum_samples) sums the first max(n + 4, listed)
    admissible levels, a leading run that holds them; every walked sample
    must equal its sums over the model's stored row (_check_samples), and
    the first, the cheapest, its literal sum (dims_and_weights). The
    coefficients read off the model's top two forward differences must then
    equal the closed form field by field. Any difference is an
    InternalCheckError, so match is always true.

    The refusals come before any sum runs, in this order: a missing model,
    a k_max that is not an int at most ORACLE_KMAX_LIMIT, a bad c
    (admissible_ks), the closed form's own checks (n >= 2, and c), a model
    whose invariants are not the pair's (InconsistentDataError), and a first
    sample of more than ORACLE_LITERAL_LIMIT divisor counts; each is an
    InputError. A run the walk would count past the same limit is refused
    before it is counted.
    """
    if model is None:
        raise InputError(f"pair {pair.name!r} has no dimension model; supply a 'hilbert' block")
    if k_max is not None:
        integer(k_max, "--kmax", high=ORACLE_KMAX_LIMIT)
    c = Fraction(c)
    n = pair.dimension
    listed = n + 4 if k_max is None else len(admissible_ks(model, c, k_max))
    closed = closed_form_coefficients(pair, c)
    model = model.check_against(pair)
    first, q = _first_level(model, c), c.denominator
    counts = first // q * c.numerator
    if counts > ORACLE_LITERAL_LIMIT:
        raise InputError(
            f"the literal check of the first sample would sum c*k = {counts} divisor counts "
            f"at k = {first}, more than the limit {ORACLE_LITERAL_LIMIT}")
    samples = sum_samples(model, c, list(range(first, first + max(n + 4, listed) * q, q)))
    reference = dims_and_weights(model, c, first)
    if samples[0] != reference:
        raise InternalCheckError(
            f"shared walk and literal sum disagree at k = {first}: "
            f"{json_record(samples[0])} != {json_record(reference)}"
        )
    _check_samples(model.differences, c, samples)
    recovered = NormalConeCoefficients.from_differences(*model.top_differences(), c, n)
    if recovered != closed:
        raise InternalCheckError(f"recovered coefficients {json_record(recovered)} differ "
                                 f"from the closed form {json_record(closed)}")
    return {
        "pair": pair.name,
        "c": format_rational(c),
        "samples": [json_record(s) for s in samples[:listed]],
        "recovered": json_record(recovered),
        "closed_form": json_record(closed),
        "match": True,
    }
