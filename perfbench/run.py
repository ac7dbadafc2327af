"""Run one cayleydist benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pair_checks --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the library is imported from
src/.  The workload runs in its own single-threaded worker process
(perfbench/worker.py).  Set-up time is measured over several short-lived
worker processes that stop after set-up, and the median is reported.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  Metrics, sample counts, the environment and any failed
checks are printed as text; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The whole result is
also written to .bench_out/, and the traced run's spans next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Timed set-up probes per run, after one untimed probe that fills the
# bytecode and file caches.
SETUP_PROBES = 5
# Every worker must have ended by then, so the run ends within 180 s.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(root: Path, argv: list[str], deadline: float) -> tuple[dict, float]:
    """Run the worker to completion; return its result and its set-up time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the worker started")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=root,
            env=worker_env(root),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - spawned


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None  # not a git checkout; source_sha256 identifies the code
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def tail_percentile(samples: list[float]) -> str:
    """The highest tail percentile with at least ten samples beyond it."""
    n = len(samples)
    for q in (99, 95, 90, 75):
        if n - math.ceil(n * q / 100) >= 10:
            return f"p{q} {statistics.quantiles(samples, n=100)[q - 1]:.6f} s"
    return f"no tail percentile has 10 samples beyond it at {n} samples"


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, choices=range(1, 61), metavar="1..60")
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (root / "src" / "cayleydist" / "__init__.py").is_file():
        print(f"error: {root} is not a cayleydist checkout (no src/cayleydist)", file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_file = out_dir / f"{stem}.spans.tsv.gz"

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        run_worker(root, [*common, "--setup-only"], deadline)
        setups = [run_worker(root, [*common, "--setup-only"], deadline)[1] for _ in range(SETUP_PROBES)]
        argv = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            argv += ["--spans", str(spans_file)]
        result, setup = run_worker(root, argv, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    walls = result["walls"]
    computed = {
        "wall_s": statistics.median(walls),
        "wall_ref": statistics.median(result["wall_refs"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": result["peak_rss_kib"] / 1024,
    }
    if args.trace:
        computed.update(result["layers"])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}
    attempted, failed = result["attempted"], result["failed"]
    environment = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "seed": args.seed,
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": result["failures"],
        "wall_samples_s": walls,
        "wall_ref_samples": result["wall_refs"],
        "traced_wall_samples_s": result["traced_walls"],
        "setup_samples_s": setups,
        "spans_file": str(spans_file.relative_to(root)) if args.trace else None,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(environment))
    print(
        f"repetitions {len(walls)} untraced, {len(result['traced_walls'])} traced; "
        f"wall_s and wall_ref are medians over the untraced ones; {tail_percentile(walls)}"
    )
    # Reported but not declared in BENCHMARK.json: see perfbench/README.md.
    print(f"wall_s {computed['wall_s']:.6g} s")
    print(f"setup_s is the median of {len(setups)} worker processes")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {failed / attempted:.6g} 1 ({failed} of {attempted} checks failed)")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
