#!/usr/bin/env python3
"""Exercise the brute-force oracle against the closed forms on a c-grid.

Prints coefficient-recovery matches for every catalog model and a finite-k
convergence table for J_k -> J^NA. A mismatch (which a correct build never
produces) ends the run with oracle_report's InternalCheckError.
"""

import argparse
from fractions import Fraction

from logklab.exactnum import decimal_string, format_rational
from logklab.normalcone import jna_normal_cone
from logklab.pairmodel import CATALOG
from logklab.weightoracle import jna_finite_k, oracle_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cs", nargs="*", type=Fraction,
                        default=[Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)])
    parser.add_argument("--convergence-k", type=int, default=24,
                        help="largest k in the J_k convergence table")
    args = parser.parse_args()

    for name, entry in CATALOG.items():
        if entry.model is None:
            continue
        for c in args.cs:
            oracle_report(entry.pair, entry.model, c)
            print(f"{name:<16} c = {format_rational(c):>5}  recovery ok")

    print()
    pair, model = CATALOG["P2-line"].pair, CATALOG["P2-line"].model
    c = Fraction(1, 2)
    limit = jna_normal_cone(pair, c)
    print(f"J^NA(P2-line, c=1/2) = {format_rational(limit)} = {decimal_string(limit)}")
    for k in range(2, args.convergence_k + 1, 2):
        jk = jna_finite_k(model, c, k)
        gap = jk - limit
        print(f"  k = {k:>3}: J_k = {format_rational(jk):>10} ({decimal_string(jk)}), "
              f"gap = {decimal_string(gap)}")


if __name__ == "__main__":
    main()
