#!/usr/bin/env python3
"""Run the prime-stability verification sweep (11 <= p <= 37), then
cross-check the analytic exclusions above 31 from the other side.

Prints one summary line per prime.  From p = 37 up the bounds exclude
every m, so verify searches nothing there; the cross-check runs the
fixed-row pattern search for m = 3 and 4 at p = 37 ... 61, and for m = 3 at
p = 127, the largest prime the search takes, anyway and prints each minimum
and its margin over 6p - 18.  It stays outside the verdict, but a minimum
below 6p - 18 would contradict the bounds, so it makes the script exit 1 as
well.
For a prime's JSON report, run `cayleydist verify --prime P --json FILE`.
"""

import argparse
import time

from cayleydist import prime_stability_verify
from cayleydist.search import _search_m

PRIMES = (11, 13, 17, 19, 23, 29, 31, 37)
# (p, m) searched by the cross-check.  At p = 127 the distance kernel's
# uint8 sum phi(x) + phi(y) reaches 2(p - 1) = 252, the edge of its range.
CROSS_CHECKS = tuple((p, m) for p in (37, 41, 43, 47, 53, 59, 61) for m in (3, 4)) + ((127, 3),)


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    all_ok = True
    for p in PRIMES:
        start = time.perf_counter()
        report = prime_stability_verify(p)
        elapsed = time.perf_counter() - start
        ok = report.theorem_confirmed()
        all_ok &= ok
        searched = ", ".join(
            f"m={c.m}: {c.candidates_completing}/{c.candidates_enumerated} groups, min {c.min_distance}"
            for c in report.m_cases
        )
        excluded = ", ".join(
            f"m={b.m}" if b.excluded else f"m={b.m} NOT excluded (bound {b.best})"
            for b in report.analytic_exclusions
        )
        print(
            f"p={p:2d}  delta={report.delta:3d}  threshold={report.threshold:3d}  "
            f"[{searched or 'all m excluded'}; by bounds: {excluded}]  "
            f"{'OK' if ok else 'FAILED'}  ({elapsed:.2f}s)"
        )

    print("conclusion:", "delta = 6p-18 confirmed for every prime of the sweep" if all_ok else "FAILURE")

    print("cross-check, searching what the bounds exclude (not part of the verdict):")
    bounds_hold = True
    for p, m in CROSS_CHECKS:
        start = time.perf_counter()
        case = _search_m(p, m, 1)
        elapsed = time.perf_counter() - start
        margin = case.min_distance - (6 * p - 18)
        bounds_hold &= margin >= 0
        print(
            f"p={p:2d}  m={m}: {case.candidates_enumerated} patterns, "
            f"min {case.min_distance}, margin {margin}  "
            f"({elapsed:.2f}s)"
        )
    if not bounds_hold:
        print("cross-check: FAILURE, a minimum below 6p-18 contradicts the bounds")
    return 0 if all_ok and bounds_hold else 1


if __name__ == "__main__":
    raise SystemExit(main())
