"""Self-tests of the benchmark's tracer.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

import particat.categories as cat  # noqa: E402
import particat.fusion as fus  # noqa: E402
import particat.partition as part  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _traced_counts(tmp_path: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed), "--trace", "1",
            "--workdir", str(tmp_path), "--spawned-at", repr(time.monotonic()),
        ],
        env=run._worker_env(), capture_output=True, text=True, check=True,
    )
    layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    return {
        k: v for k, v in layers.items()
        if k.endswith((".calls", ".items", ".repeat_calls"))
    }


def test_traced_counts_repeat_for_one_seed(tmp_path):
    first = _traced_counts(tmp_path, "queries", 11)
    second = _traced_counts(tmp_path, "queries", 11)
    assert first == second
    assert first["cli.run.calls"] == 1000


def test_closure_reaches_rebound_compose(tracer):
    # closure() calls compose/rotate through names imported into categories;
    # zero counts here mean a namespace was missed by the rebinding
    cat.closure((part.parse_partition(":a"),), 5)
    metrics = tracer.flat_metrics()
    assert metrics["partition.compose.calls"] > 0
    assert metrics["partition.rotate.calls"] > 0
    assert metrics["partition.Partition.make.calls"] > 0
    assert metrics["categories.closure.items"] > 0


def test_uninstall_restores_originals():
    original = cat.compose
    t = Tracer()
    t.install()
    assert cat.compose is not original
    t.uninstall()
    assert cat.compose is original
    assert "make" in part.Partition.__dict__
    assert part.Partition.make.__name__ == "make"
    assert not hasattr(part.Partition.make, "__wrapped__")


def test_identity_ladder_mixing_budget(tracer):
    # an operation budget, not an equality: nested mixings may lower it
    strands = part.identity(5)
    res = fus.fusion(cat.CategorySpec.named("nc"), strands, strands)
    metrics = tracer.flat_metrics()
    assert len(res.members) == 11
    assert metrics["structure.enumerate_mixing.items"] <= 19091
    assert metrics["fusion.graft_keep_ratio"] > 0

