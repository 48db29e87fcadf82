#!/usr/bin/env python3
"""Exercise the brute-force oracle against the closed forms on a c-grid.

Prints coefficient-recovery matches for every catalog model and a finite-k
convergence table for J_k -> J^NA. A mismatch (which a correct build never
produces) ends the run with oracle_report's InternalCheckError.

    python3 scripts/oracle_sweep.py --denominators 100 1000 10000

prints instead the cost of the denominator knob: one row per catalog model
and q, at c = p/q with p the integer nearest 0.95 q prime to q, giving
oracle_report's in-process seconds (best of 3), the h_divisor calls of its
walk and those of its literal check of the first sample.

    python3 scripts/oracle_sweep.py --dimensions 128 256 512

prints the cost of the dimension knob: one row per N, oracle_report on
P^N (the hyperplane pair with a projective_space model) at c = 1/2 and at
c = 99/100, in-process seconds (best of 3) with the log-log slope from the
previous row, and a hash of both reports, so that two trees can be
compared.
"""

import argparse
import hashlib
import json
import time
from fractions import Fraction
from math import gcd, log

from logklab.closedform import family
from logklab.exactnum import decimal_string, format_rational
from logklab.hilbert import CATALOG_MODELS, HilbertModel
from logklab.pairmodel import CATALOG, DIMENSION_LIMIT, PolarisedPair
from logklab.weightoracle import dims_and_weights, oracle_report, sum_samples


def _near_095(q: int) -> Fraction:
    """p/q in lowest terms with p the integer nearest 0.95 q that is prime to q."""
    return Fraction(min((p for p in range(1, q) if gcd(p, q) == 1),
                        key=lambda p: abs(20 * p - 19 * q)), q)


def _best_of_3(compute) -> tuple[float, object]:
    """compute()'s least in-process seconds over three calls, and its result."""
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        result = compute()
        seconds.append(time.perf_counter() - start)
    return min(seconds), result


def _divisor_calls(compute) -> int:
    """The HilbertModel.h_divisor calls compute() makes, counted on the class
    so that every model keeps its plain type."""
    real, calls = HilbertModel.h_divisor, [0]

    def counted(self, j):
        calls[0] += 1
        return real(self, j)

    HilbertModel.h_divisor = counted
    try:
        compute()
    finally:
        HilbertModel.h_divisor = real
    return calls[0]


def denominator_table(denominators: list[int]) -> None:
    print(f"{'pair':<16} {'c':>14} {'seconds':>9} {'walk calls':>10} {'literal calls':>13}")
    for name, model in CATALOG_MODELS.items():
        pair = CATALOG[name].pair
        for q in denominators:
            c = _near_095(q)
            seconds, report = _best_of_3(lambda: oracle_report(pair, model, c))
            first = report["samples"][0]["k"]
            literal = _divisor_calls(lambda: dims_and_weights(model, c, first))
            total = _divisor_calls(lambda: oracle_report(pair, model, c))
            print(f"{name:<16} {format_rational(c):>14} {seconds:>9.4f} "
                  f"{total - literal:>10} {literal:>13}")


DIMENSION_CS = (Fraction(1, 2), Fraction(99, 100))


def dimension_table(dimensions: list[int]) -> None:
    print(f"{'N':>6} " + " ".join(f"{'s c=' + format_rational(c):>11} {'slope':>6}"
                                  for c in DIMENSION_CS) + f" {'reports sha256':>14}")
    previous = None
    for n in dimensions:
        pair, model = PolarisedPair(f"P{n}", n, 1, n + 1, n + 1), HilbertModel.projective_space(n)
        timed = [_best_of_3(lambda: oracle_report(pair, model, c)) for c in DIMENSION_CS]
        seconds = [t for t, _ in timed]
        slopes = [""] * len(seconds) if previous is None else [
            f"{log(t / p) / log(n / previous[0]):.2f}" for t, p in zip(seconds, previous[1])]
        digest = hashlib.sha256(json.dumps([report for _, report in timed]).encode()).hexdigest()
        print(f"{n:>6} " + " ".join(f"{t:>11.4f} {slope:>6}" for t, slope in zip(seconds, slopes))
              + f" {digest[:14]:>14}")
        previous = n, seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cs", nargs="*", type=Fraction,
                        default=[Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)])
    parser.add_argument("--convergence-k", type=int, default=24,
                        help="largest k in the J_k convergence table")
    parser.add_argument("--denominators", nargs="+", type=int, metavar="Q",
                        help="print the cost table at these denominators of c instead")
    parser.add_argument("--dimensions", nargs="+", type=int, metavar="N",
                        help="print the cost table at these dimensions of P^N instead")
    args = parser.parse_args()
    for n in args.dimensions or ():
        if not 2 <= n <= DIMENSION_LIMIT:
            parser.error(f"--dimensions: N must be in 2..{DIMENSION_LIMIT}, got {n}")
    for q in args.denominators or ():
        if q < 2:
            parser.error(f"--denominators: Q must be at least 2, got {q}")
    if args.denominators:
        denominator_table(args.denominators)
        return
    if args.dimensions:
        dimension_table(args.dimensions)
        return

    for name, model in CATALOG_MODELS.items():
        for c in args.cs:
            oracle_report(CATALOG[name].pair, model, c)
            print(f"{name:<16} c = {format_rational(c):>5}  recovery ok")

    print()
    pair, model = CATALOG["P2-line"].pair, CATALOG_MODELS["P2-line"]
    c = Fraction(1, 2)
    limit = family(pair, c).jna()
    print(f"J^NA(P2-line, c=1/2) = {format_rational(limit)} = {decimal_string(limit)}")
    # J_k = -w_k/(k d_k), the gap between the maximal weight 0 and the average.
    for sample in sum_samples(model, c, list(range(2, args.convergence_k + 1, 2))):
        k, jk = sample.k, -sample.w_k / (sample.k * sample.d_k)
        gap = jk - limit
        print(f"  k = {k:>3}: J_k = {format_rational(jk):>10} ({decimal_string(jk)}), "
              f"gap = {decimal_string(gap)}")


if __name__ == "__main__":
    main()
