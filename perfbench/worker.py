"""One benchmark workload in its own process; started by run.py.

Everything up to the end of input generation is set-up: interpreter start,
`import cayleydist`, a numpy warm-up and the workload's inputs.  The
process then prints the monotonic clock reading at that point (with
--setup-only) or repeats the workload's fixed work for --seconds seconds,
checks every repetition's outputs outside the timed region, and prints one
JSON object as its last line.

With --trace 1, repetitions alternate between untraced and traced, so the
same process gives both the plain wall time and the traced one.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import resource
import statistics
import sys
import time
from math import comb, factorial

import numpy as np

import cayleydist as cd
from cayleydist import group_core, metric, search

from tracing import Tracer
from workloads import WORKLOADS, Tally

# Repetitions of each kind (untraced, traced) a run makes at least, however
# short --seconds is.
MIN_REPS = 3

# Public functions timed in the traced run, by layer.  cli is a thin
# front end and not a layer here.
TRACED = [
    ("group_core", group_core, "transport"),
    ("group_core", group_core, "validate_table"),
    ("metric", metric, "dist"),
    ("metric", metric, "hom_distance"),
    ("metric", metric, "check_lemmas"),
    ("metric", metric, "min_transposition_mf"),
    ("metric", metric, "reconstruct_isomorphism"),
    ("metric", metric, "delta0"),
    ("metric", metric, "analytic_lower_bound"),
    ("search", search, "prime_stability_verify"),
    ("search", search, "enumerate_patterns"),
    ("search", search, "all_group_tables"),
    ("search", search, "brute_delta"),
    ("search", search, "kind_stability"),
]
MODULES = (cd, group_core, metric, search)


def warm_numpy() -> None:
    grid = np.arange(64, dtype=np.int64).reshape(8, 8)
    np.count_nonzero(np.stack([grid, grid])[:, grid % 8] != grid[np.ix_(range(8), range(8))])


def reference_work() -> int:
    """A fixed computation that never calls the library.

    It is timed around every untraced repetition so that wall time can
    also be given in units of it (wall_ref): like the library, it mixes
    interpreter-bound table indexing with numpy fancy indexing, so when the
    machine as a whole runs slower or faster, both move alike.
    """
    n = 48
    cells = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    mismatches = 0
    for a in range(0, n, 3):
        row = cells[a]
        for b in range(n):
            ab = row[b]
            for c in range(0, n, 2):
                mismatches += cells[ab][c] != row[cells[b][c]]
    grid = np.asarray(cells, dtype=np.int64)
    perm = np.arange(n)[::-1].copy()
    for _ in range(200):
        mismatches += int(np.count_nonzero(perm[grid] != grid[np.ix_(perm, perm)]))
    return mismatches


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def span_counts(tracer: Tracer, lo: int, hi: int) -> dict[str, int]:
    """Exact work counts from the orders of traced calls and the table counts."""
    spans = list(tracer.spans(lo, hi))
    delegating = {parent for name, parent, *_ in spans if name == "search.kind_stability"}
    orders: set[int] = set()
    cells = transposition_cells = pairs = 0
    for sid, (name, _, n, _, _) in enumerate(spans, lo):
        if name in ("metric.dist", "metric.hom_distance"):
            cells += n * n
        elif name == "metric.min_transposition_mf":
            transposition_cells += comb(n, 2) * n * n
        elif name == "search.all_group_tables":
            orders.add(n)
        elif name == "search.kind_stability":
            pairs += _table_count(n)
        elif name == "search.brute_delta" and sid not in delegating:
            pairs += comb(_table_count(n), 2)  # the pairwise loop
    # Repetitions start with the table cache cleared, so each order seen
    # is enumerated once: n! transports of each catalog kind.
    transports = sum(factorial(n) * len(cd.groups_of_order(n)) for n in orders)
    distinct = sum(_table_count(n) for n in orders)
    return {
        "metric.cells_compared": cells,
        "metric.transposition_cells": transposition_cells,
        "search.table_pairs_compared": pairs,
        "search.transports": transports,
        "search.tables_distinct": distinct,
        "search.dedupe_hits": transports - distinct,
    }


@functools.cache
def _table_count(n: int) -> int:
    return sum(cd.distinct_table_counts(n).values())


def measure(workload, inputs, seconds: int, tracer: Tracer | None, tally: Tally) -> dict:
    walls: list[float] = []
    wall_refs: list[float] = []
    traced_walls: list[float] = []
    layer_times: list[dict[str, float]] = []
    counts: list[dict[str, int]] = []
    rep_spans: list[tuple[int, int]] = []
    began = time.monotonic()
    while True:
        traced = tracer is not None and len(traced_walls) < len(walls)
        workload.before_rep()
        gc.collect()
        if traced:
            lo = tracer.span_count()
            tracer.install()
        else:
            ref_before = timed_reference()
        t0 = time.perf_counter()
        out = workload.run(inputs)
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            hi = tracer.span_count()
            traced_walls.append(elapsed)
            rep_spans.append((lo, hi))
            summary = tracer.summary(lo, hi)
            layer_times.append(
                {f"{name}.{key}": v[key] for name, v in summary.items() for key in ("s", "self_s")}
            )
            counts.append(
                {f"{name}.calls": v["calls"] for name, v in summary.items()}
                | span_counts(tracer, lo, hi)
                | workload.report_counts(out)
            )
        else:
            walls.append(elapsed)
            wall_refs.append(elapsed / ((ref_before + timed_reference()) / 2))
        workload.check(inputs, out, tally)
        del out
        enough = len(walls) >= MIN_REPS and (tracer is None or len(traced_walls) >= MIN_REPS)
        if enough and time.monotonic() - began >= seconds:
            break
    result = {"walls": walls, "wall_refs": wall_refs, "traced_walls": traced_walls, "layers": None}
    if tracer is not None:
        tally.check(all(c == counts[0] for c in counts), "counts repeat across repetitions")
        layers = {key: statistics.median(rep[key] for rep in layer_times) for key in layer_times[0]}
        layers.update(counts[0])
        enumerated = layers["search.patterns_enumerated"]
        layers["search.completion_ratio"] = (
            layers["search.candidates_completing"] / enumerated if enumerated else 0.0
        )
        layers["trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result["layers"] = layers
        result["rep_spans"] = rep_spans
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file for the traced run's spans (.tsv.gz)")
    args = parser.parse_args()

    warm_numpy()
    workload = WORKLOADS[args.workload]()
    inputs = workload.make_inputs(args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = Tracer(TRACED, MODULES) if args.trace else None
    tally = Tally()
    result = measure(workload, inputs, args.seconds, tracer, tally)
    rep_spans = result.pop("rep_spans", None)
    if rep_spans is not None and args.spans:
        tracer.write(args.spans, rep_spans)
    result.update(
        ready=ready,
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        numpy=np.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
