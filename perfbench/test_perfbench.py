"""Self-test of the benchmark.  From the repository root:

    python3 -m pytest perfbench

Every workload runs twice traced and twice untraced, with one-second runs.
All correctness checks must pass, the exact counts of the traced run must
repeat, and peak RSS must agree within its bound.  Without the library
source the benchmark must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def metrics(workload: str, trace: int) -> dict:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    count_names = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first, second = (metrics(workload, 1) for _ in range(2))
    assert {k: first[k] for k in count_names} == {k: second[k] for k in count_names}
    assert first["search.completion_ratio"] == second["search.completion_ratio"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_metrics_and_peak_rss(workload):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "peak_rss_mib")
    first, second = (metrics(workload, 0) for _ in range(2))
    assert all(v > 0 for v in [*first.values(), *second.values()])
    a, b = first["peak_rss_mib"], second["peak_rss_mib"]
    assert abs(a - b) <= bound * min(a, b)


def test_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_nests_calls_and_generators():
    mod = types.ModuleType("fake")

    def inner(n):
        time.sleep(0.001)
        return n

    def items(n):
        yield from range(n)

    def outer(n):
        time.sleep(0.001)
        return [mod.inner(i) for i in mod.items(n)]

    mod.inner, mod.items, mod.outer = inner, items, outer
    tracer = Tracer([("x", mod, "outer"), ("x", mod, "inner"), ("x", mod, "items")], [mod])
    tracer.install()
    assert mod.outer(3) == [0, 1, 2]
    tracer.uninstall()
    assert mod.outer is outer and mod.inner is inner and mod.items is items

    spans = list(tracer.spans(0, tracer.span_count()))
    assert [name for name, *_ in spans] == ["x.outer", "x.items"] + ["x.inner"] * 3
    assert [parent for _, parent, *_ in spans] == [-1, 0, 0, 0, 0]
    assert all(n == 3 for _, _, n, *_ in spans[:2])

    summary = tracer.summary(0, tracer.span_count())
    assert summary["x.inner"]["calls"] == 3 and summary["x.items"]["calls"] == 1
    # items overlaps the inner calls made while it is consumed, so outer's
    # self time subtracts the union of its children, not their sum.
    items_start, items_end = spans[1][3], spans[1][4]
    covered = items_end - items_start
    outer = summary["x.outer"]
    assert outer["self_s"] == pytest.approx(outer["s"] - covered, abs=1e-9)
    assert 0 < outer["self_s"] < outer["s"]
