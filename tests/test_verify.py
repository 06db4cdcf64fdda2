"""Verification suites: the functor memo against an unmemoized loop and
against the sampler it replaced, its op budget, and the structure suite's
cap."""

import random
from collections import Counter

import pytest

from particat import verify
from particat.categories import BoundsExceededError
from particat.partition import Partition, serialize

from draws import random_partition


def crp_partition(rng, k, l, colored=False):
    """``random_partition`` as it was before it drew a label per point: the
    CRP draw appends each point to a block list."""
    n = k + l
    if n == 0:
        return Partition(0, 0, (), () if colored else None)
    blocks = []
    for x in range(n):
        choice = rng.randrange(len(blocks) + 1)
        if choice == len(blocks):
            blocks.append([x])
        else:
            blocks[choice].append(x)
    colors = None
    if colored:
        colors = tuple(rng.choice(("w", "b")) for _ in range(n))
    return Partition.make(k, l, blocks, colors)


def sampled_pairs(N, max_points, samples, seed):
    """The (bottom, top) pairs of ``suite_functor``, in sampling order."""
    rng = random.Random(seed)
    half = max(1, max_points // 2)
    pairs = []
    for _ in range(samples):
        k, l, m = (rng.randrange(half + 1) for _ in range(3))
        top = crp_partition(rng, k, l)
        pairs.append((crp_partition(rng, l, m), top))
    return pairs


def suite_functor_by_diagrams(N, max_points, samples=500, seed=2024):
    """``suite_functor`` as it was before it keyed its memo by the drawn
    labels: it drew the two diagrams and keyed the memo by them."""
    checks = 0
    failures = []
    memo = {}
    for bottom, top in sampled_pairs(N, max_points, samples, seed):
        entry = memo.get((bottom, top))
        if entry is None:
            report = verify.check_functor(bottom, top, N)
            rules = sum(1 for key in report if key.endswith("_rule"))
            entry = memo[bottom, top] = rules, report["passed"]
        checks += entry[0]
        if not entry[1]:
            failures.append(
                f"functor rules failed on {serialize(bottom)} / {serialize(top)}"
            )
    return {
        "suite": "functor",
        "N": N,
        "samples": samples,
        "checks": checks,
        "failures": failures[:10],
        "passed": not failures,
    }


def suite_functor_oracle(N, max_points, samples=500, seed=2024):
    """``suite_functor`` without the memo: one ``check_functor`` call per
    sample."""
    checks = 0
    failures = []
    for bottom, top in sampled_pairs(N, max_points, samples, seed):
        report = verify.check_functor(bottom, top, N)
        checks += sum(1 for key in report if key.endswith("_rule"))
        if not report["passed"]:
            failures.append(
                f"functor rules failed on {serialize(bottom)} / {serialize(top)}"
            )
    return checks, failures[:10], not failures


def summary(report):
    return report["checks"], report["failures"], report["passed"]


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("max_points", [0, 2, 4, 6])
@pytest.mark.parametrize("seed", [0, 2024])
def test_memo_matches_oracle(N, max_points, seed):
    report = verify.suite_functor(N, max_points, samples=120, seed=seed)
    assert summary(report) == suite_functor_oracle(N, max_points, 120, seed)


@pytest.mark.parametrize(
    "N, max_points, samples, seed",
    [(3, 6, 500, 2024), (2, 2, 500, 2024), (1, 0, 50, 7), (2, 4, 300, 11),
     (3, 7, 200, 20240810), (4, 3, 400, 5)],
)
def test_reports_match_the_diagram_sampler(N, max_points, samples, seed):
    report = verify.suite_functor(N, max_points, samples, seed)
    assert report == suite_functor_by_diagrams(N, max_points, samples, seed)


def test_random_partition_matches_crp():
    sizes = random.Random(0)
    for seed in range(400):
        k, l = sizes.randrange(6), sizes.randrange(6)
        for colored in (False, True):
            rng, oracle = random.Random(seed), random.Random(seed)
            want = crp_partition(oracle, k, l, colored)
            assert random_partition(rng, k, l, colored) == want
            # both consumed the same draws, so the draws after them agree
            assert rng.getstate() == oracle.getstate()


def test_memo_repeats_failures_of_a_repeated_pair(monkeypatch):
    pairs = sampled_pairs(2, 2, 500, 2024)
    bad, drawn = Counter(pairs).most_common(1)[0]
    assert drawn > 1
    real = verify.check_functor

    def failing(bottom, top, N):
        report = real(bottom, top, N)
        if (bottom, top) == bad:
            report["tensor_rule"] = report["passed"] = False
        return report

    monkeypatch.setattr(verify, "check_functor", failing)
    report = verify.suite_functor(2, 2)
    assert summary(report) == suite_functor_oracle(2, 2)
    assert not report["passed"]
    want = f"functor rules failed on {serialize(bad[0])} / {serialize(bad[1])}"
    assert report["failures"] == [want] * min(drawn, 10)


def test_functor_budget_one_check_per_distinct_pair(monkeypatch):
    calls = Counter()
    real = verify.check_functor

    def counted(bottom, top, N):
        calls[bottom, top] += 1
        return real(bottom, top, N)

    monkeypatch.setattr(verify, "check_functor", counted)
    assert verify.suite_functor(2, 2)["checks"] == 1744
    assert set(calls) == set(sampled_pairs(2, 2, 500, 2024))
    assert sum(calls.values()) == len(calls) == 13


@pytest.mark.parametrize("max_points", [10, 12])
def test_structure_suite_refuses_past_cap(max_points):
    assert verify.STRUCTURE_MAX_POINTS == 9
    with pytest.raises(BoundsExceededError):
        verify.suite_structure(max_points)
    with pytest.raises(BoundsExceededError):
        verify.run_suite("structure", max_points=max_points)


@pytest.mark.parametrize("max_points, checks", [(4, 558), (6, 8527)])
def test_structure_suite_check_counts(max_points, checks):
    # the domination tests are built once per projective; none is dropped
    report = verify.suite_structure(max_points)
    assert report["passed"]
    assert report["checks"] == checks


def test_structure_suite_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(verify, "STRUCTURE_MAX_POINTS", 2)
    assert verify.suite_structure(2)["passed"]
    with pytest.raises(BoundsExceededError):
        verify.suite_structure(3)


@pytest.mark.parametrize("max_points, rows", [(0, 0), (1, 0), (2, 1), (4, 2), (6, 2)])
def test_all_sizes_its_fusion_part_as_the_fusion_suite(max_points, rows):
    # --suite all runs the fusion oracle at the size --suite fusion uses
    fusion_part = verify.run_suite("all", max_points=max_points)["parts"][2]
    alone = verify.run_suite("fusion", max_points=max_points)
    assert fusion_part == alone
    assert fusion_part["max_row_points"] == rows
    if rows == 0:
        assert fusion_part["checks"] == 4  # the empty diagram of each category
