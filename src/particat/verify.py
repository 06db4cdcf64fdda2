"""
Verification suites: exhaustive structural identities at desk scale.

Each suite returns a report dict with at least ``passed`` (bool), ``checks``
(number of individual assertions evaluated) and ``failures`` (list of short
strings, empty when green).  The functor suite checks each distinct sampled
pair once, but counts its assertions, and lists its failure, per sample: a
pair drawn twice counts twice.  The command line exposes them behind
``verify --suite <name>``; the acceptance tests drive the same functions at
their pinned sizes.
"""

from __future__ import annotations

import random
from itertools import combinations

from .partition import (
    Partition,
    _draw_labels,
    all_set_partitions,
    compose,
    identity,
    is_projective,
    serialize,
    stats,
    tensor,
)
from .structure import (
    _dominator,
    _graft,
    dominates,
    enumerate_mixing,
    is_building,
    is_through,
    through_block_decomposition,
)
from .categories import BoundsExceededError, CategorySpec, projectives
from .matrix_model import check_functor
from .fusion import fusion, fusion_brute_force

__all__ = [
    "suite_functor",
    "suite_structure",
    "suite_fusion",
    "run_suite",
    "SUITES",
]

STRUCTURE_MAX_POINTS = 9  # 5.4-6.8 s at 9 points, 1.1-1.4 s at 8, 2-core Xeon


def _partitions_up_to(max_points: int):
    for n in range(max_points + 1):
        for labels in all_set_partitions(n):
            for k in range(n + 1):
                yield Partition(k, n - k, labels)  # canonical as generated


def suite_functor(
    N: int = 3, max_points: int = 6, samples: int = 500, seed: int = 2024
) -> dict:
    """Matrix rules on random composable pairs: transpose, Kronecker, loop
    factor, and idempotence where applicable."""
    rng = random.Random(seed)
    half = max(1, max_points // 2)
    checks = 0
    failures: list[str] = []
    # keyed by the drawn labels, so a repeated pair builds no diagram; an
    # entry holds the rule count and the failure message, None if it passed
    memo: dict[tuple, tuple[int, str | None]] = {}
    for _ in range(samples):
        k, l, m = (rng.randrange(half + 1) for _ in range(3))
        upper, lower = _draw_labels(rng, k + l), _draw_labels(rng, l + m)
        entry = memo.get((k, l, m, upper, lower))
        if entry is None:
            top = Partition(k, l, upper)  # drawn canonical
            bottom = Partition(l, m, lower)
            report = check_functor(bottom, top, N)
            rules = sum(1 for name in report if name.endswith("_rule"))
            failure = None
            if not report["passed"]:
                failure = (
                    f"functor rules failed on {serialize(bottom)} / {serialize(top)}"
                )
            entry = memo[k, l, m, upper, lower] = rules, failure
        checks += entry[0]
        if entry[1]:
            failures.append(entry[1])
    return {
        "suite": "functor",
        "N": N,
        "samples": samples,
        "checks": checks,
        "failures": failures[:10],
        "passed": not failures,
    }


def suite_structure(max_points: int = 8) -> dict:
    """Exhaustive structural identities on all diagrams within the bound.

    Covers factorization validity and recomposition, evenness of the
    non-through count on projectives, domination as block refinement
    against its definition pq = q, the partial order axioms of domination,
    and injectivity plus domination of the mixing graft.  Refuses more than
    ``STRUCTURE_MAX_POINTS`` points with ``BoundsExceededError``.
    """
    if max_points > STRUCTURE_MAX_POINTS:
        raise BoundsExceededError(
            f"the structure suite stops at {STRUCTURE_MAX_POINTS} points"
        )
    checks = 0
    failures: list[str] = []

    for p in _partitions_up_to(max_points):
        d = through_block_decomposition(p)
        checks += 4
        if not is_building(d.upper_building):
            failures.append(f"upper part not building for {serialize(p)}")
        if not is_building(d.lower_building):
            failures.append(f"lower part not building for {serialize(p)}")
        if not is_through(d.middle):
            failures.append(f"middle part not a permutation for {serialize(p)}")
        if d.recompose() != p:
            failures.append(f"recomposition failed for {serialize(p)}")
        st = stats(p)
        if p.upper == p.lower and is_projective(p):
            checks += 2
            if st.beta % 2 != 0:
                failures.append(f"odd non-through count on projective {serialize(p)}")
            loops = compose(p, p).removed_loops
            if st.beta != 2 * loops:
                failures.append(f"loop count mismatch on {serialize(p)}")

    # domination over the full projective sets at half the bound: the
    # block-refinement test against its definition pq = q on every ordered
    # pair, then the order axioms; all diagrams are projective members, so
    # domination runs unchecked, each diagram read once into its test
    spec_all = CategorySpec.named("p")
    for k in range(0, max_points // 2 + 1):
        projs = projectives(spec_all, k)
        tests = [_dominator(p) for p in projs]
        ident = _dominator(identity(k))
        for p, below in zip(projs, tests):
            checks += 2
            if not below(p):
                failures.append(f"domination not reflexive at {serialize(p)}")
            if not ident(p):
                failures.append(f"identity not maximal over {serialize(p)}")
        for (p, p_below), (q, q_below) in combinations(zip(projs, tests), 2):
            checks += 1
            if p_below(q) and q_below(p):
                failures.append(
                    f"antisymmetry fails on {serialize(p)}, {serialize(q)}"
                )
        for p, p_below in zip(projs, tests):
            for q, q_below in zip(projs, tests):
                checks += 1
                over = p_below(q)
                if over != (compose(p, q).partition == q):
                    failures.append(
                        "domination is not pq = q on "
                        f"{serialize(p)}, {serialize(q)}"
                    )
                if p is q or not over:
                    continue
                for r in projs:
                    if r is q or not q_below(r):
                        continue
                    checks += 1
                    if not p_below(r):
                        failures.append(
                            "transitivity fails on "
                            f"{serialize(p)}, {serialize(q)}, {serialize(r)}"
                        )

    # mixing: injectivity of the graft at each fixed arity split, and
    # domination by the tensor product
    max_side = max_points // 2
    for a in range(0, max_side + 1):
        for b in range(0, max_side - a + 1):
            seen: dict[Partition, tuple] = {}
            for p in projectives(spec_all, a):
                tp = stats(p).t
                for q in projectives(spec_all, b):
                    tq = stats(q).t
                    pq = tensor(p, q)
                    mixings = enumerate_mixing(tp, tq)
                    for h, m in zip(mixings, _graft(p, q, mixings)):
                        key = (p, q, h.partition)
                        checks += 2
                        if m in seen and seen[m] != key:
                            failures.append(f"mixing graft collides at {serialize(m)}")
                        seen[m] = key
                        if not dominates(pq, m):
                            failures.append(
                                f"graft not dominated by tensor at {serialize(m)}"
                            )
    return {
        "suite": "structure",
        "max_points": max_points,
        "checks": checks,
        "failures": failures[:10],
        "passed": not failures,
    }


def suite_fusion(max_row_points: int = 2) -> dict:
    """Grafted fusion against the brute-force domination oracle."""
    checks = 0
    failures: list[str] = []
    for name in ("nc", "nc2", "nceven", "ncb"):
        spec = CategorySpec.named(name)
        pool = []
        for k in range(0, max_row_points + 1):
            pool.extend(projectives(spec, k))
        for p in pool:
            for q in pool:
                checks += 1
                fast = fusion(spec, p, q)
                slow = fusion_brute_force(spec, p, q)
                if fast.members != slow.members:
                    failures.append(
                        f"{name}: mismatch at {serialize(p)} x {serialize(q)}"
                    )
    return {
        "suite": "fusion",
        "max_row_points": max_row_points,
        "checks": checks,
        "failures": failures[:10],
        "passed": not failures,
    }


def run_suite(name: str, N: int = 3, max_points: int = 6) -> dict:
    if max_points < 0:
        raise ValueError(f"max_points must be nonnegative, got {max_points}")
    if name == "functor":
        return suite_functor(N=N, max_points=max_points)
    if name == "structure":
        return suite_structure(max_points=max_points)
    if name == "fusion":
        return suite_fusion(max_row_points=min(2, max_points // 2))
    if name == "all":
        reports = [
            suite_functor(N=N, max_points=max_points),
            suite_structure(max_points=min(6, max_points)),
            suite_fusion(max_row_points=min(2, max_points // 2)),
        ]
        return {
            "suite": "all",
            "checks": sum(r["checks"] for r in reports),
            "failures": [f for r in reports for f in r["failures"]],
            "passed": all(r["passed"] for r in reports),
            "parts": reports,
        }
    raise ValueError(f"unknown suite {name!r}")


SUITES = ("functor", "structure", "fusion", "all")
