#!/usr/bin/env python3
"""Brute-force stability survey at small orders.

Tabulates the exact minimum distance between distinct group tables on
{0..n-1} for n <= 7, split by scope, and the per-group values at order 8.
"""

import argparse

from cayleydist import (
    brute_delta,
    distinct_table_counts,
    groups_of_order,
    is_prime,
    kind_stability,
)


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    for n in range(2, 8):
        counts = distinct_table_counts(n)
        delta, _ = brute_delta(n)
        line = f"n={n}  tables={sum(counts.values())} {counts}  delta={delta}"
        if not is_prime(n):
            line += f"  mu={brute_delta(n, 'mu')[0]}  nu={brute_delta(n, 'nu')[0]}"
        print(line)

    print(f"n=8  tables={sum(distinct_table_counts(8).values())}")
    for kind in groups_of_order(8):
        mu, _ = kind_stability(kind, "mu")
        nu, _ = kind_stability(kind, "nu")
        print(f"  {kind.label():20s} mu={mu:3d}  nu={nu:3d}  delta={min(mu, nu)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
