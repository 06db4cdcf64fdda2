"""Self-test of the op timer's scaling to reference seconds.

    python3 -m pytest bench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
import yardstick  # noqa: E402


def test_reference_scales_by_slices_and_skips_them():
    # every slice took twice the reference time, so the host ran at half
    # speed and measured time halves; one slice fell inside the op
    took = round(2e9 * yardstick.REFERENCE_S)
    timer = workloads.OpTimer()
    clock = 0
    for _ in range(workloads.EDGE_PROBES):
        timer.probe_ns.append((clock, clock + took))
        clock += took
    timer.start_ns = clock
    op_start = clock + 1000
    inside = clock + 5000
    timer.probe_ns.append((inside, inside + took))
    op_end = inside + took + 3000
    timer.op_ns.append((op_start, op_end))
    timer.stop_ns = op_end + 1000
    clock = timer.stop_ns
    for _ in range(workloads.EDGE_PROBES):
        timer.probe_ns.append((clock, clock + took))
        clock += took

    wall_s, samples_ms, raw_wall_s = timer.reference()

    assert raw_wall_s == pytest.approx(9000e-9)
    assert wall_s == pytest.approx(4500e-9)
    assert samples_ms == [pytest.approx(3500e-6)]
