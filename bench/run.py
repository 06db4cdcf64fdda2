"""Benchmark launcher for particat.

    python3 bench/run.py --workload <fusion|closure|matrix|queries> \
        --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout and drives ``src/particat`` through
its public functions and ``cli.run``.  Every pass of a workload runs in a
fresh interpreter (``worker.py``), one at a time, with BLAS/OpenMP capped at
one thread, so the load is one single-threaded process and every pass starts
from cold library caches.

Times are in reference seconds: a worker scales each stretch of measured
time by how fast a fixed yardstick slice ran around it (``yardstick.py``),
so drift of the shared host's speed cancels.

With ``--trace 0`` passes repeat while the next one, estimated from the
longest so far, still ends within ``--seconds`` (at least one pass); extra
set-up-only interpreters bring the set-up samples to ``SETUP_SAMPLES``.  The
end-to-end metrics are medians over passes (wall, set-up, memory) or over all
op samples pooled (latency percentiles).

With ``--trace 1`` one untraced pass and one traced pass run; the traced pass
gives the per-layer metrics, and the difference of their wall times is
``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric by name with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def _load_spec() -> tuple[list[str], list[tuple[str, str]], list[tuple[str, str]]]:
    """Workload names and the (name, unit) metric lists from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        [w["name"] for w in spec["workloads"]],
        [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"]) for m in spec["per_layer"]],
    )


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    # fixed string hashing, so set iteration order and thus the traced
    # counts repeat exactly between runs
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, deadline: float, trace: int = 0, setup_only: bool = False) -> dict:
    """Run one worker to completion and return its JSON result."""
    workdir = ROOT / ".bench_work"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--spans", str(workdir / f"spans-{args.workload}-{args.seed}.json")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted before the next pass")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run budget: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker failed with exit code {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    samples = sorted(x for p in passes for x in p["samples_ms"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": statistics.median(samples),
        "op_p99_ms": _percentile(samples, 0.99),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    counts = {
        "setup_s": len(setups),
        "wall_s": len(passes),
        "op_p50_ms": len(samples),
        "op_p99_ms": len(samples),
        "peak_rss_mb": len(passes),
    }
    return values, counts


def main() -> int:
    workloads, end_to_end, per_layer = _load_spec()
    ap = argparse.ArgumentParser(description="particat benchmark")
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "particat" / "__init__.py").is_file():
        print(f"no particat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    try:
        if args.trace:
            base = _spawn(args, deadline)
            traced = _spawn(args, deadline, trace=1)
            passes = [base, traced]
            layers = dict(traced["layers"])
            layers["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
            metrics = {name: (layers[name], unit, 1) for name, unit in per_layer}
        else:
            passes: list[dict] = []
            longest = 0.0
            while not passes or time.monotonic() - start + longest <= args.seconds:
                began = time.monotonic()
                passes.append(_spawn(args, deadline))
                longest = max(longest, time.monotonic() - began)
            setups = [p["setup_s"] for p in passes]
            while len(setups) < SETUP_SAMPLES:
                setups.append(_spawn(args, deadline, setup_only=True)["setup_s"])
            values, counts = _end_to_end(passes, setups)
            metrics = {
                name: (values[name], unit, counts[name]) for name, unit in end_to_end
            }
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    unexpected = sum(p["unexpected"] for p in passes)
    for p in passes:
        for message in p["messages"]:
            print(f"# failed op: {message}", file=sys.stderr)
    for name, (value, unit, n) in metrics.items():
        print(f"{args.workload:8s} {name:44s} {value:>16.6f} {unit:6s} n={n}")
    # the host's speed behind the reference-second figures above
    for name, key, unit in (
        ("host.probe_ms", "probe_ms", "ms"),
        ("host.raw_wall_s", "raw_wall_s", "s"),
    ):
        value = statistics.median(p[key] for p in passes)
        print(f"{args.workload:8s} {name:44s} {value:>16.6f} {unit:6s} n={len(passes)}")
    print(
        f"{args.workload:8s} {'error_rate':44s} {failed / attempted:>16.6f} "
        f"{'ratio':6s} n={attempted}"
    )
    print(
        json.dumps(
            {
                # the known CLI defects kept in the queries stream count in
                # `failed`; any other failed check makes the run incorrect
                "correct": unexpected == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
