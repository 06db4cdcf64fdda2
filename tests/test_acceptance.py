"""Acceptance criteria, one test per criterion, printing one line each.

Every check is exact (integer or rational arithmetic); the stated runtime
budgets are asserted alongside the mathematical content.  Criterion 7's
second half asserts a strictly positive kernel for the pair-diagram algebra
at two strands over C^2; the three maps involved are in fact linearly
independent (exact rank 3), so that assertion fails and is left failing
deliberately rather than weakened; see the analysis in the repository notes.
"""

import time
from itertools import product

from particat.partition import (
    Partition,
    all_set_partitions,
    empty_partition,
    identity,
    parse_partition,
    serialize,
    stats,
)
from particat.structure import (
    boxvert,
    equivalent,
    sym_group,
    to_through_partition,
    word_h,
    word_u,
)
from particat.categories import CategorySpec, projectives
from particat.matrix_model import (
    brauer_kernel_dim,
    check_functor,
    class_projection,
    projection_rank,
    t_map_rank,
)
from particat.fusion import (
    fusion,
    fusion_brute_force,
    label_to_partition,
    labelled_fusion,
)
from particat.verify import suite_functor, suite_structure

NC = CategorySpec.named("nc")
NC2 = CategorySpec.named("nc2")
NCB = CategorySpec.named("ncb")
NCEVEN = CategorySpec.named("nceven")
UCOL = CategorySpec.named("ucol")
P_ALL = CategorySpec.named("p")
P2 = CategorySpec.named("p2")


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _words(alphabet: str, max_len: int) -> list[str]:
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + ch for w in frontier for ch in alphabet]
        out.extend(frontier)
    return out


def test_acceptance_1_loop_fusion_table():
    start = time.monotonic()
    ok = True
    detail = []
    for k in range(4):
        for l in range(4):
            p = label_to_partition("S", k)
            q = label_to_partition("S", l)
            got = sorted(stats(m).t for m in fusion(NC, p, q).partitions)
            want = list(range(abs(k - l), k + l + 1))
            if got != want:
                ok = False
                detail.append(f"({k},{l}): {got} != {want}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    _report(1, "loop-family fusion table", ok,
            detail[0] if detail else f"16 products exact, {elapsed:.2f}s")
    assert ok, detail


def test_acceptance_2_pair_and_small_block_fusion():
    start = time.monotonic()
    ok = True
    detail = []
    for name, spec in (("O", NC2), ("B", NCB)):
        for k in range(4):
            for l in range(4):
                p = label_to_partition(name, k)
                q = label_to_partition(name, l)
                res = fusion(spec, p, q)
                got = sorted(stats(m).t for m in res.partitions)
                want = list(range(abs(k - l), k + l + 1, 2))
                if got != want:
                    ok = False
                    detail.append(f"{name}({k},{l}): {got} != {want}")
                if spec is NC2:
                    merged = {
                        boxvert(p, q, b)
                        for b in range(1, min(k, l) + 1)
                    }
                    if merged & set(res.partitions):
                        ok = False
                        detail.append(f"quadruple graft leaked at ({k},{l})")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    _report(2, "pair and small-block fusion", ok,
            detail[0] if detail else f"32 products exact, {elapsed:.2f}s")
    assert ok, detail


def test_acceptance_3_even_block_words():
    start = time.monotonic()
    ok = True
    detail = []
    for a in _words("01", 2):
        for b in _words("01", 2):
            pa = label_to_partition("H", a)
            pb = label_to_partition("H", b)
            got = sorted(word_h(m) for m in fusion(NCEVEN, pa, pb).partitions)
            want = sorted(labelled_fusion("H", a, b))
            if got != want:
                ok = False
                detail.append(f"({a!r},{b!r}): {got} != {want}")

    # class labels across arities up to 4 biject with the reachable words
    pool = []
    for k in range(0, 5):
        pool.extend(projectives(NCEVEN, k))
    classes: list[list[Partition]] = []
    for p in pool:
        for cls in classes:
            if equivalent(NCEVEN, cls[0], p):
                cls.append(p)
                break
        else:
            classes.append([p])
    class_words = []
    for cls in classes:
        words = {word_h(p) for p in cls}
        if len(words) != 1:
            ok = False
            detail.append(f"word not constant on a class: {sorted(words)}")
        class_words.append(words.pop())
    if len(set(class_words)) != len(class_words):
        ok = False
        detail.append("distinct classes share a word")
    # a word needs one strand per odd-size letter and two per divisible one
    reachable = {
        w
        for w in _words("01", 4)
        if sum(1 if ch == "1" else 2 for ch in w) <= 4
    }
    if set(class_words) != reachable:
        ok = False
        detail.append(
            f"word image {sorted(set(class_words))} != {sorted(reachable)}"
        )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _report(3, "even-block word calculus", ok,
            detail[0] if detail else
            f"49 products, {len(classes)} classes <-> words, {elapsed:.2f}s")
    assert ok, detail


def test_acceptance_4_colored_pair_words():
    start = time.monotonic()
    ok = True
    detail = []
    for a in _words("wb", 2):
        for b in _words("wb", 2):
            pa = label_to_partition("U", a)
            pb = label_to_partition("U", b)
            got = sorted(word_u(m) for m in fusion(UCOL, pa, pb).partitions)
            want = sorted(labelled_fusion("U", a, b))
            if got != want:
                ok = False
                detail.append(f"({a!r},{b!r}): {got} != {want}")

    pool = []
    for k in range(0, 5):
        pool.extend(projectives(UCOL, k))
    classes: list[list[Partition]] = []
    for p in pool:
        for cls in classes:
            if equivalent(UCOL, cls[0], p):
                cls.append(p)
                break
        else:
            classes.append([p])
    class_words = []
    for cls in classes:
        words = {word_u(p) for p in cls}
        if len(words) != 1:
            ok = False
            detail.append(f"word not constant on a class: {sorted(words)}")
        class_words.append(words.pop())
    if len(set(class_words)) != len(class_words):
        ok = False
        detail.append("distinct classes share a word")
    reachable = set(_words("wb", 4))
    if set(class_words) != reachable:
        ok = False
        detail.append(f"{len(set(class_words))} words != {len(reachable)}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _report(4, "colored pair word calculus", ok,
            detail[0] if detail else
            f"49 products, {len(classes)} classes <-> words, {elapsed:.2f}s")
    assert ok, detail


def test_acceptance_5_oracle_equivalence():
    start = time.monotonic()
    ok = True
    detail = []
    checks = 0
    for name in ("nc", "nc2", "nceven", "ncb"):
        spec = CategorySpec.named(name)
        pool = []
        for k in range(0, 4):
            pool.extend(projectives(spec, k))
        for p in pool:
            for q in pool:
                checks += 1
                if fusion(spec, p, q).members != fusion_brute_force(
                    spec, p, q
                ).members:
                    ok = False
                    detail.append(
                        f"{name}: {serialize(p)} x {serialize(q)}"
                    )
    elapsed = time.monotonic() - start
    _report(5, "fusion formula vs domination oracle", ok,
            detail[0] if detail else f"{checks} pairs, 0 discrepancies, "
            f"{elapsed:.1f}s")
    assert ok, detail


def test_acceptance_6_matrix_model():
    start = time.monotonic()
    ok = True
    detail = []

    # (a) rank of every diagram map at up to five points per row
    rank_checks = 0
    for n in range(0, 11):
        labels_list = list(all_set_partitions(n))
        for k in range(max(0, n - 5), min(5, n) + 1):
            for labels in labels_list:
                p = Partition(k, n - k, labels)
                t = stats(p).t
                for N in (2, 3):
                    rank_checks += 1
                    if t_map_rank(p, N) != N**t:
                        ok = False
                        detail.append(f"rank off at {serialize(p)}, N={N}")

    # (b) functor rules on 500 random composable pairs
    rep = suite_functor(N=3, max_points=6, samples=500, seed=20240810)
    if not rep["passed"]:
        ok = False
        detail.extend(rep["failures"][:3])

    # (c) class projection ranks and rank multiplicativity at N = 4
    reps = []
    for k in (1, 2):
        recs = class_projection(NC, k, 4)
        if sum(r["rank_class"] for r in recs) != 4**k:
            ok = False
            detail.append(f"class ranks at k={k} do not sum to {4 ** k}")
        reps.extend(r["representative"] for r in recs)
    rank_cache: dict[Partition, int] = {}

    def rank_of(m: Partition) -> int:
        if m not in rank_cache:
            rank_cache[m] = projection_rank(NC, m, 4)
        return rank_cache[m]

    for p in reps:
        for q in reps:
            lhs = rank_of(p) * rank_of(q)
            rhs = sum(rank_of(m) for m in fusion(NC, p, q).partitions)
            if lhs != rhs:
                ok = False
                detail.append(
                    f"rank product fails at {serialize(p)} x {serialize(q)}"
                )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _report(6, "matrix model", ok,
            detail[0] if detail else
            f"{rank_checks} ranks, 500 functor pairs, 25 rank products, "
            f"{elapsed:.1f}s")
    assert ok, detail


def test_acceptance_7_algebra_kernels():
    start = time.monotonic()
    ok = True
    detail = []
    if brauer_kernel_dim(P2, 2, 4) != 0:
        ok = False
        detail.append("kernel at (P2, 2, 4) is not trivial")
    # As specified: a positive kernel at two strands over C^2.  The three
    # diagram maps there are exactly rank 3 over Q, so this fails; kept as
    # stated instead of being loosened (true dependences appear at
    # (P2, 3, 2) and (P, 2, 2) and are covered by the module tests).
    low = brauer_kernel_dim(P2, 2, 2)
    if low <= 0:
        ok = False
        detail.append(f"kernel_dim(P2, 2, 2) = {low}, expected > 0")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _report(7, "diagram algebra kernels", ok,
            detail[0] if detail else f"{elapsed:.2f}s")
    assert ok, detail


def test_acceptance_8_symmetry_groups():
    start = time.monotonic()
    ok = True
    detail = []
    full = sym_group(P_ALL, identity(3))
    if len(full) != 6:
        ok = False
        detail.append(f"full symmetric group came out of order {len(full)}")
    halflib = to_through_partition((2, 1, 0))
    spec = CategorySpec(generators=(halflib,), max_points=6)
    half = sym_group(spec, identity(3))
    if len(half) != 2:
        ok = False
        detail.append(f"half-liberated group came out of order {len(half)}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _report(8, "symmetry groups", ok,
            detail[0] if detail else
            f"orders 6 and 2 as expected, {elapsed:.2f}s")
    assert ok, detail


def test_acceptance_9_structural_suite():
    start = time.monotonic()
    rep = suite_structure(max_points=8)
    elapsed = time.monotonic() - start
    ok = rep["passed"]
    _report(9, "structural property suite", ok,
            rep["failures"][0] if rep["failures"] else
            f"{rep['checks']} checks at up to 8 points, {elapsed:.1f}s")
    assert ok, rep["failures"]
