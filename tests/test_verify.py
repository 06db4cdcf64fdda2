"""Verification suites: the functor memo against an unmemoized loop, its
op budget, and the structure suite's cap."""

import random
from collections import Counter

import pytest

from particat import verify
from particat.categories import BoundsExceededError
from particat.partition import random_partition, serialize


def sampled_pairs(N, max_points, samples, seed):
    """The (bottom, top) pairs of ``suite_functor``, in sampling order."""
    rng = random.Random(seed)
    half = max(1, max_points // 2)
    pairs = []
    for _ in range(samples):
        k, l, m = (rng.randrange(half + 1) for _ in range(3))
        top = random_partition(rng, k, l)
        pairs.append((random_partition(rng, l, m), top))
    return pairs


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


def test_structure_suite_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(verify, "STRUCTURE_MAX_POINTS", 2)
    assert verify.suite_structure(2)["passed"]
    with pytest.raises(BoundsExceededError):
        verify.suite_structure(3)
