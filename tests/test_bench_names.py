"""The benchmark's per-layer names against the tracer that reports them.

``bench/run.py --trace 1`` reads every ``per_layer`` name of
``BENCHMARK.json`` from the tracer's ``flat_metrics()`` and raises
``KeyError`` on one that is missing, so a renamed or deleted library name
shows up here instead.  The tracer is loaded from its file, read only.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracer_module():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_name_is_reported():
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # run.py works out the tracer's own cost from two runs
    wanted = {m["name"] for m in layers} - {"trace.overhead_s"}
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        reported = tracer.flat_metrics()
    finally:
        tracer.uninstall()
    assert sorted(wanted - reported.keys()) == []
