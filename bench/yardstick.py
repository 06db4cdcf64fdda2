"""A fixed slice of work that measures how fast the host runs right now.

The benchmark runs on a shared machine whose speed drifts by a quarter and
more within seconds to minutes.  Every pass therefore runs this slice about
every quarter second, from a timer signal, so also inside a long op, and
reports its times in *reference seconds*: each stretch of measured time is
scaled by ``REFERENCE_S`` over the median time of the slices around it (see
``workloads.OpTimer``).  A change to particat cannot move the slice, which
imports nothing from it; a change of host speed moves both alike and cancels.

The slice mixes what the workloads spend their time on: small tuples,
frozensets, dict lookups and sorting in the interpreter, and small numpy
array operations.
"""

from __future__ import annotations

import gc
import random

import numpy as np

# median slice time on the machine the baseline was recorded on (a shared
# 2-core x86-64 VM, Python 3.11.7), so reference seconds read close to
# that machine's seconds
REFERENCE_S = 0.0135


def _inputs() -> tuple[list[tuple[int, ...]], np.ndarray]:
    rng = random.Random(20130829)
    words = []
    for _ in range(3200):
        n = rng.randint(4, 9)
        word = [0]
        for _ in range(n - 1):
            word.append(rng.randint(0, max(word) + 1))
        words.append(tuple(word))
    signatures = np.array(
        [[rng.randint(0, 3) for _ in range(6)] for _ in range(64)], dtype=np.int64
    )
    return words, signatures


_WORDS, _SIGNATURES = _inputs()


def _work() -> int:
    seen: dict[frozenset, int] = {}
    for word in _WORDS:
        blocks: dict[int, list[int]] = {}
        for point, label in enumerate(word):
            blocks.setdefault(label, []).append(point)
        key = frozenset(tuple(b) for b in blocks.values())
        seen[key] = seen.get(key, 0) + len(key)
    order = sorted(seen, key=lambda k: sorted(map(len, k)))
    total = len(order)
    for row in range(0, len(_SIGNATURES), 8):
        rows = _SIGNATURES[row : row + 8]
        total += int(np.unique(rows @ rows.T).size)
    return total


def run_slice() -> None:
    """Run the slice once, with the cyclic garbage collector paused.

    The slice makes no cycles and frees all it allocates, so pausing the
    collector keeps a collection of the workload's heap out of the slice
    and leaves the collector's counts as the workload left them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
    finally:
        if enabled:
            gc.enable()
