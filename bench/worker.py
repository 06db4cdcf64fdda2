"""One pass of one workload, in a fresh interpreter.

Started by ``run.py`` once per pass, so the module caches of particat
(``_PROJECTIVES_CACHE``, ``_CLOSURE_CACHE``, ``_DIGITS_CACHE``) start empty
as they do for every command-line user.  Prints one JSON object on its last
line of standard output.

    python3 bench/worker.py --workload closure --seed 1 --trace 0 \
        --spawned-at <time.monotonic() of the parent> --workdir .bench_work
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports particat and numpy)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path, help="write the traced spans here")
    args = ap.parse_args()

    prepare, run, check = workloads.WORKLOADS[args.workload]
    plan = prepare(args.seed, args.workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    timer = workloads.OpTimer(tracer)
    timer.start(probe=not args.setup_only)
    setup_s = (timer.started_monotonic - args.spawned_at) * timer.setup_scale()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer is not None:
        tracer.install()
    outputs = run(plan, timer)
    if tracer is not None:
        tracer.uninstall()
    timer.stop()
    wall_s, samples_ms, raw_wall_s = timer.reference()

    # checks run after the timed region and untraced
    bad = dict(timer.raised)
    bad.update(check(plan, outputs))
    known = workloads.known_defect_ops(plan, outputs)
    unexpected = sorted(set(bad) - known)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "samples_ms": samples_ms,
        "raw_wall_s": raw_wall_s,
        "probe_ms": statistics.median(b - a for a, b in timer.probe_ns) / 1e6,
        "attempted": len(samples_ms),
        "failed": len(bad),
        "unexpected": len(unexpected),
        "messages": [bad[i] for i in sorted(bad)][:20],
    }
    if tracer is not None:
        result["layers"] = tracer.flat_metrics()
        if args.spans:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
