#!/usr/bin/env python3
"""Run the full prime-stability verification sweep (11 <= p <= 31).

Prints one summary line per prime.  Each prime is then verified again over
every row (the all-rows superset, row 1's search carried to each row h by
the automorphism x -> hx), which must give the same delta = 6p - 18.
For a prime's JSON report, run `cayleydist verify --prime P --json FILE`.
"""

import argparse
import time

from cayleydist import prime_stability_verify

PRIMES = (11, 13, 17, 19, 23, 29, 31)


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

    for p in PRIMES:
        start = time.perf_counter()
        report = prime_stability_verify(p, all_rows=True)
        elapsed = time.perf_counter() - start
        ok = report.theorem_confirmed() and report.delta == 6 * p - 18
        all_ok &= ok
        print(
            f"p={p:2d} (all rows)  delta={report.delta:3d}  "
            f"{'OK' if ok else 'FAILED'}  ({elapsed:.2f}s)"
        )

    print("conclusion:", "delta = 6p-18 confirmed for all searched primes" if all_ok else "FAILURE")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
