"""Built-in predicates, generated closures, enumeration, projectives."""

import random

import pytest

from typing import Iterable, Iterator

import particat.categories as categories
import particat.partition as partition
from particat.partition import (
    ColorError,
    Partition,
    compose,
    empty_partition,
    identity,
    involution,
    parse_partition,
    rotate,
    serialize,
    tensor,
)
from particat.categories import (
    BoundsExceededError,
    CLOSURE_CAP,
    DEFAULT_MAX_POINTS,
    CategorySpec,
    UndecidableMembershipError,
    category_from_name,
    closure,
    contains,
    enumerate_in,
    membership,
    projectives,
)
from particat.structure import upper_building

NC = CategorySpec.named("nc")
NC2 = CategorySpec.named("nc2")
NCB = CategorySpec.named("ncb")
NCEVEN = CategorySpec.named("nceven")
UCOL = CategorySpec.named("ucol")
P_ALL = CategorySpec.named("p")
P2 = CategorySpec.named("p2")

CROSSING = Partition.make(2, 2, [(0, 3), (1, 2)])
FOURBLOCK = parse_partition("aa:aa")


def projective_by_composition(p: Partition) -> bool:
    """The definition p = p* = p², by flipping and composing; unlike
    is_projective it does not read the r* r shape that projectives()
    generates, so it stays an independent filter."""
    return p == involution(p) and compose(p, p).partition == p


# ---------------------------------------------------------------------------
# the two-row fixed point that closure() replaced, kept as its oracle


def _legal_rotations(p: Partition) -> Iterator[Partition]:
    if p.upper:
        yield rotate(p, "ul")
        yield rotate(p, "ur")
    if p.lower:
        yield rotate(p, "ll")
        yield rotate(p, "lr")


def two_row_closure(
    generators: Iterable[Partition], max_points: int = DEFAULT_MAX_POINTS
) -> frozenset[Partition]:
    """Smallest set within the point bound containing the generators and the
    identity strand and stable under the four operations.

    Deterministic: the worklist is processed in canonical order, and the
    rotation orbit of each member is taken eagerly.
    """
    gens = tuple(generators)
    colored = bool(gens) and gens[0].colored
    members: set[Partition] = set()
    by_points: dict[int, list[Partition]] = {}
    by_upper: dict[int, list[Partition]] = {}
    by_lower: dict[int, list[Partition]] = {}
    frontier: list[Partition] = []

    def add(x: Partition) -> None:
        if x.n_points <= max_points and x not in members:
            members.add(x)
            by_points.setdefault(x.n_points, []).append(x)
            by_upper.setdefault(x.upper, []).append(x)
            by_lower.setdefault(x.lower, []).append(x)
            frontier.append(x)

    add(identity(1, colors="w" if colored else None))
    for g in gens:
        if g.colored != colored:
            raise ColorError("generators mix colored and uncolored diagrams")
        add(g)

    while frontier:
        batch = sorted(frontier, key=Partition.sort_key)
        frontier = []
        tensor_partners = {
            n: [y for m, ys in by_points.items() if m <= n for y in ys]
            for n in range(max_points + 1)
        }
        tops = {u: list(by_lower.get(u, ())) for u in by_lower}
        bottoms = {l: list(by_upper.get(l, ())) for l in by_upper}
        for x in batch:
            add(involution(x))
            stack = [x]
            seen_rot = {x}
            while stack:
                r = stack.pop()
                for rr in _legal_rotations(r):
                    if rr not in seen_rot:
                        seen_rot.add(rr)
                        add(rr)
                        stack.append(rr)
            for y in tensor_partners[max_points - x.n_points]:
                add(tensor(x, y))
                add(tensor(y, x))
            if not colored:
                for y in tops.get(x.upper, ()):
                    add(compose(x, y).partition)
                for y in bottoms.get(x.lower, ()):
                    add(compose(y, x).partition)
            else:
                xu, xl = x.upper_colors(), x.lower_colors()
                for y in tops.get(x.upper, ()):
                    if y.lower_colors() == xu:
                        add(compose(x, y).partition)
                for y in bottoms.get(x.lower, ()):
                    if y.upper_colors() == xl:
                        add(compose(y, x).partition)
    return frozenset(members)



class TestContains:
    def test_crossing_examples(self):
        assert not contains(NC2, CROSSING)
        assert contains(P2, CROSSING)
        assert not contains(NC, CROSSING)

    def test_even_block_examples(self):
        assert contains(NCEVEN, FOURBLOCK)
        assert not contains(NCEVEN, parse_partition("a:b"))
        assert not contains(NCB, FOURBLOCK)
        assert contains(NCB, parse_partition(":a"))

    def test_colored_pair_rules(self):
        same = Partition.make(2, 0, [(0, 1)], colors="ww")
        mixed = Partition.make(2, 0, [(0, 1)], colors="wb")
        assert not contains(UCOL, same)
        assert contains(UCOL, mixed)
        assert contains(UCOL, identity(1, colors="w"))
        two_tone_strand = Partition.make(1, 1, [(0, 1)], colors="wb")
        assert not contains(UCOL, two_tone_strand)

    def test_color_mode_enforced(self):
        with pytest.raises(ColorError):
            contains(NC, identity(1, colors="w"))
        with pytest.raises(ColorError):
            contains(UCOL, identity(1))

    def test_builtins_operation_closed(self):
        rng = random.Random(5)
        for spec in (P_ALL, P2, NC, NC2, NCB, NCEVEN):
            pool = []
            for k, l in ((0, 2), (1, 1), (2, 2), (1, 3)):
                pool.extend(enumerate_in(spec, k, l))
            sample = rng.sample(pool, min(25, len(pool)))
            for p in sample:
                assert contains(spec, involution(p))
                if p.upper:
                    assert contains(spec, rotate(p, "ul"))
                    assert contains(spec, rotate(p, "ur"))
                if p.lower:
                    assert contains(spec, rotate(p, "ll"))
                    assert contains(spec, rotate(p, "lr"))
                for q in rng.sample(pool, 5):
                    if p.n_points + q.n_points <= 8:
                        assert contains(spec, tensor(p, q))
                    if q.lower == p.upper:
                        assert contains(spec, compose(p, q).partition)

    def test_ucol_rotation_preserves_membership(self):
        pool = []
        for k in range(0, 3):
            pool.extend(projectives(UCOL, k))
        for p in pool:
            if p.upper:
                assert contains(UCOL, rotate(p, "ul"))
                assert contains(UCOL, rotate(p, "ur"))
            if p.lower:
                assert contains(UCOL, rotate(p, "ll"))
                assert contains(UCOL, rotate(p, "lr"))


# (generators, point bound) of the differential test; the oracle side takes
# a few seconds in all
ORACLE_CASES = (
    (("ab:ba",), 6),
    ((":a",), 6),
    (("abc:cba",), 6),
    (("aa:aa",), 6),
    ((), 8),
    (("a:",), 5),
    (("aa:aa", "a:a"), 6),
    (("ab@wb:ba@bw",), 5),
    (("aa@wb:ab@bw",), 4),
)


class TestClosure:
    @pytest.mark.parametrize("gens, bound", ORACLE_CASES)
    def test_matches_two_row_oracle(self, gens, bound):
        generators = tuple(parse_partition(g) for g in gens)
        assert closure(generators, bound) == two_row_closure(generators, bound)

    def test_no_two_row_operations(self, monkeypatch):
        # wherever bound: the diagrams of a word are read off it, not rotated
        calls = {"compose": 0, "tensor": 0, "rotate": 0}
        for name in calls:
            original = getattr(partition, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for module in (partition, categories):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        assert len(closure((parse_partition(":a"),), 7)) == 1569
        assert calls == {"compose": 0, "tensor": 0, "rotate": 0}

    @pytest.mark.parametrize("bound", [-1, 0, 1])
    def test_bound_below_the_strand_is_refused(self, bound):
        # the strand has two points: below that, the closure would be empty
        for gens in ((), (parse_partition(":a"),)):
            with pytest.raises(ValueError, match="below 2"):
                closure(gens, bound)

    @pytest.mark.parametrize(
        "gens, bound", [((":aaa",), 2), (("ab:ba",), 3), (("a:a", "aaa:aa"), 4)]
    )
    def test_generator_beyond_the_bound_is_refused(self, gens, bound):
        generators = tuple(parse_partition(g) for g in gens)
        need = max(g.n_points for g in generators)
        with pytest.raises(ValueError, match=f"below {need}: the strand"):
            closure(generators, bound)
        spec = CategorySpec(generators=generators, max_points=bound)
        with pytest.raises(ValueError, match=f"below {need}: the strand"):
            membership(spec, parse_partition(":"))

    def test_bound_fitting_every_generator_is_kept(self):
        # the bound may equal the largest generator, and the strand's 2
        assert parse_partition(":aaa") in closure((parse_partition(":aaa"),), 3)
        strand = {parse_partition(t) for t in (":", ":aa", "a:a", "aa:")}
        assert closure((), 2) == strand

    def test_cap_refuses_large_closures(self, monkeypatch):
        # the cap counts one-row words: aa:aa within 4 points has five
        # (, aa, aaaa, aabb, abba), standing for 19 two-row diagrams
        monkeypatch.setattr(categories, "CLOSURE_CAP", 5)
        assert len(closure((FOURBLOCK,), 4)) == 19
        with pytest.raises(BoundsExceededError):
            closure((parse_partition(":a"),), 6)

    def test_cap_refuses_singleton_at_default_bound(self):
        # 3,562 words: beyond the cap, and refused before most are glued
        with pytest.raises(BoundsExceededError, match=str(CLOSURE_CAP)):
            closure((parse_partition(":a"),))

    def test_identity_alone_gives_noncrossing_pairs(self):
        got = closure((), 8)
        want = set()
        for n in range(0, 9):
            for k in range(n + 1):
                want.update(enumerate_in(NC2, k, n - k))
        assert set(got) == want

    def test_fourblock_generates_even_blocks(self):
        got = closure((FOURBLOCK,), 8)
        want = set()
        for n in range(0, 9):
            for k in range(n + 1):
                want.update(enumerate_in(NCEVEN, k, n - k))
        assert set(got) == want

    def test_singleton_generates_small_blocks_six_points(self):
        got = closure((parse_partition(":a"),), 6)
        want = set()
        for n in range(0, 7):
            for k in range(n + 1):
                want.update(enumerate_in(NCB, k, n - k))
        assert set(got) == want

    @pytest.mark.slow
    def test_singleton_generates_small_blocks_eight_points(self):
        got = closure((parse_partition(":a"),), 8)
        want = set()
        for n in range(0, 9):
            for k in range(n + 1):
                want.update(enumerate_in(NCB, k, n - k))
        assert set(got) == want

    def test_rotation_orbit_closed(self):
        spec = CategorySpec(generators=(FOURBLOCK,), max_points=6)
        p = FOURBLOCK
        orbit = [p]
        for corner in ("ul", "ur", "ll", "lr"):
            q = p
            for _ in range(4):
                if (corner in ("ul", "ur") and q.upper == 0) or (
                    corner in ("ll", "lr") and q.lower == 0
                ):
                    break
                q = rotate(q, corner)
                orbit.append(q)
        for q in orbit:
            assert membership(spec, q) is True

    def test_membership_beyond_bound_is_unknown(self):
        spec = CategorySpec(generators=(FOURBLOCK,), max_points=4)
        big = identity(3)
        assert membership(spec, big) is None
        with pytest.raises(UndecidableMembershipError):
            contains(spec, big)


class TestEnumerate:
    def test_small_counts(self):
        assert len(enumerate_in(NC2, 2, 2)) == 2
        assert len(enumerate_in(P2, 2, 2)) == 3
        assert len(enumerate_in(NC, 1, 1)) == 2
        assert len(enumerate_in(P_ALL, 0, 0)) == 1
        assert enumerate_in(P_ALL, 0, 0) == [empty_partition()]

    def test_ordered_and_unique(self):
        out = enumerate_in(NC, 2, 2)
        assert out == sorted(out, key=Partition.sort_key)
        assert len(set(out)) == len(out)

    def test_growth_guard(self):
        with pytest.raises(BoundsExceededError):
            enumerate_in(P_ALL, 6, 5)


class TestProjectives:
    def test_strand_only_for_pairs(self):
        assert projectives(NC2, 1) == [identity(1)]

    def test_noncrossing_arity_one(self):
        got = projectives(NC, 1)
        assert got == sorted(
            [identity(1), parse_partition("a:b")], key=Partition.sort_key
        )

    def test_projective_iff_square_of_upper_part(self):
        for k in range(0, 4):
            for q in projectives(P_ALL, k):
                pu = upper_building(q)
                assert compose(involution(pu), pu).partition == q

    def test_direct_generation_matches_filter(self):
        generated = [
            CategorySpec(generators=(parse_partition(g),), max_points=6)
            for g in ("ab:ba", "abc:cba", "aa:aa", ":a", "ab@wb:ba@bw")
        ]
        for spec in [P_ALL, P2, NC, NC2, NCB, NCEVEN] + generated:
            for k in range(0, 4):
                fast = projectives(spec, k)
                slow = [
                    p
                    for p in enumerate_in(spec, k, k)
                    if projective_by_composition(p)
                ]
                assert fast == sorted(slow, key=Partition.sort_key)

    def test_ucol_direct_generation_matches_filter(self):
        for k in range(0, 3):
            fast = projectives(UCOL, k)
            slow = [
                p for p in enumerate_in(UCOL, k, k) if projective_by_composition(p)
            ]
            assert fast == sorted(slow, key=Partition.sort_key)

    def test_cap_spares_only_noncrossing_builtins(self):
        with pytest.raises(BoundsExceededError):
            projectives(P_ALL, 6)
        # at 6 points an uncapped search would stop as undecidable instead
        gen = CategorySpec(
            generators=(parse_partition("ab:ba"),), max_points=6
        )
        with pytest.raises(BoundsExceededError):
            projectives(gen, 6)
        assert len(projectives(NCB, 6)) == 267

    @pytest.mark.parametrize(
        "name, k, refused",
        [("nc", 8, False), ("nc", 9, True), ("nceven", 9, True),
         ("ucol", 6, False), ("ucol", 7, True), ("nc", 10**9, True)],
    )
    def test_candidate_cap(self, name, k, refused, monkeypatch):
        # the sum_j S(k, j) 2^j candidates (times 2^k colorings) are counted
        # before any row partition is enumerated: 89,918 for nc at k = 8,
        # 610,182 at k = 9; 155,520 for ucol at k = 6, 1,819,392 at k = 7
        monkeypatch.setattr(categories, "_PROJECTIVES_CACHE", {})
        monkeypatch.setattr(categories, "all_set_partitions", lambda n: [])
        spec = CategorySpec.named(name)
        if refused:
            with pytest.raises(BoundsExceededError, match="candidates"):
                projectives(spec, k)
        else:
            assert projectives(spec, k) == []


class TestRegistry:
    def test_builtin_names(self):
        for name in ("p", "p2", "nc", "nc2", "ncb", "nceven", "ucol"):
            assert category_from_name(name).builtin == name

    def test_generator_file(self, tmp_path):
        path = tmp_path / "gens.txt"
        path.write_text("aa:aa\n\n:a\n", encoding="utf-8")
        spec = category_from_name(f"gen:{path}", max_points=6)
        assert spec.generators == (FOURBLOCK, parse_partition(":a"))
        assert spec.max_points == 6
        assert membership(spec, FOURBLOCK) is True

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            category_from_name("frobenius")
