#!/usr/bin/env python3
"""Sweep the DF landscape of the catalog pairs.

For each pair with a unit divisor: the instability threshold, destabilising
witnesses at a ladder of angles below it, and the critical-c bracket where
the DF changes sign. Exact values printed as p/q with decimal companions.
"""

import argparse
from fractions import Fraction

from logklab.exactnum import decimal_string, format_rational
from logklab.normalcone import critical_c, df_closed, find_destabilizer, instability_threshold
from logklab.pairmodel import CATALOG


def sweep(pair_name: str, rungs: int, tol: Fraction) -> None:
    pair = CATALOG[pair_name].pair
    threshold = instability_threshold(pair)
    print(f"== {pair_name} (n={pair.dimension})")
    print(f"   instability threshold: {format_rational(threshold)} = {decimal_string(threshold)}")
    if threshold <= 0:
        print("   no angle beta > 0 is below the threshold: the family destabilises none")
        return
    for i in range(1, rungs + 1):
        beta = threshold * Fraction(i, rungs + 1)
        c, df = find_destabilizer(pair, beta)
        bracket = critical_c(pair, beta, tol)
        print(f"   beta = {format_rational(beta):>8}  witness c = {format_rational(c):>8}  "
              f"DF = {format_rational(df):>12} ({decimal_string(df)})"
              f"  root in [{format_rational(bracket.lo)}, {format_rational(bracket.hi)}]")
    mid = threshold / 2
    grid = [Fraction(i, 8) for i in range(1, 8)]
    values = ", ".join(format_rational(df_closed(pair, c, mid).df) for c in grid)
    print(f"   DF at beta = {format_rational(mid)} over c = i/8: {values}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rungs", type=int, default=3,
                        help="angles tested per pair, evenly below the threshold")
    parser.add_argument("--tol", type=Fraction, default=Fraction(1, 4096),
                        help="bracket width for the critical-c isolation")
    parser.add_argument("--pairs", nargs="*", default=None,
                        help="catalog names (default: all with a unit divisor)")
    args = parser.parse_args()
    names = args.pairs or [name for name, entry in CATALOG.items()
                           if entry.divisor.m == 1 and entry.pair.dimension >= 2]
    for name in names:
        sweep(name, args.rungs, args.tol)


if __name__ == "__main__":
    main()
