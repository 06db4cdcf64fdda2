"""Built-in predicates, generated closures, enumeration, projectives."""

import dataclasses
import functools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from typing import Iterable, Iterator

import particat.categories as categories
import particat.partition as partition
from particat.partition import (
    ColorError,
    Partition,
    all_set_partitions,
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
    BUILTIN_IDS,
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

from draws import colorings, random_partition

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

    def test_membership_builds_no_blocks(self, monkeypatch):
        # op budget: parsing, the closure and membership read labels only,
        # and group no blocks
        calls = {"blocks": 0}
        view = Partition.blocks

        def counted_view(p):
            calls["blocks"] += 1
            return view.fget(p)

        monkeypatch.setattr(Partition, "blocks", property(counted_view))
        monkeypatch.setattr(categories, "_CLOSURE_CACHE", {})
        rng = random.Random(26)
        texts = [
            serialize(random_partition(rng, rng.randrange(5), rng.randrange(5)))
            for _ in range(300)
        ]
        spec = CategorySpec(generators=(parse_partition("ab:ba"),), max_points=6)
        answers = {membership(spec, parse_partition(t)) for t in texts}
        assert answers == {True, False, None}
        colored = CategorySpec(
            generators=(parse_partition("ab@wb:ba@bw"),), max_points=6
        )
        assert membership(colored, parse_partition("ab@wb:ba@bw"))
        assert calls == {"blocks": 0}
        assert parse_partition("aab:accc").blocks and calls["blocks"] == 1

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
        with pytest.raises(ValueError, match=f"below {need}: the strand"):
            CategorySpec(generators=generators, max_points=bound)

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


# the generated categories of the benchmark's membership queries, and its
# colored closure job, all at the benchmark's bound of 6 points
BENCH_GENERATORS = (":a", "aa:aa", "ab:ba", "abc:cba", "", "ab@wb:ba@bw")
BENCH_BOUND = 6


def _generators(text: str) -> tuple[Partition, ...]:
    return (parse_partition(text),) if text else ()


SHARED_SPECS = {
    text: CategorySpec(generators=_generators(text), max_points=BENCH_BOUND)
    for text in BENCH_GENERATORS
}


@functools.cache
def direct_closure(text: str) -> tuple[frozenset, tuple[Partition, ...]]:
    """closure() called directly, and its members in canonical order."""
    members = closure(_generators(text), BENCH_BOUND)
    return members, tuple(sorted(members, key=Partition.sort_key))


def draw_diagram(data, colored: bool) -> Partition:
    """A random diagram of at most two points past the benchmark's bound."""
    n = data.draw(st.integers(0, BENCH_BOUND + 2))
    k = data.draw(st.integers(0, n))
    return random_partition(data.draw(st.randoms()), k, n - k, colored)


class _CountedCache(dict):
    """A closure cache that counts its reads."""

    def __init__(self):
        super().__init__()
        self.reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)


def _count_closures(monkeypatch) -> dict[str, int]:
    """Count the closure() calls that specs make, against an empty cache."""
    calls = {"closure": 0}

    def counted(*args, _original=closure):
        calls["closure"] += 1
        return _original(*args)

    monkeypatch.setattr(categories, "closure", counted)
    monkeypatch.setattr(categories, "_CLOSURE_CACHE", _CountedCache())
    return calls


class TestSpec:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(BENCH_GENERATORS), st.booleans(), st.data())
    def test_membership_matches_closure(self, text, fresh, data):
        # differential: membership on a reused or a fresh spec against
        # closure() called directly, on members and on random diagrams up to
        # two points past the bound, and in the other color mode
        spec = SHARED_SPECS[text]
        if fresh:
            spec = CategorySpec(generators=_generators(text), max_points=BENCH_BOUND)
        members, ordered = direct_closure(text)
        colored = "@" in text
        if data.draw(st.booleans()):
            p = data.draw(st.sampled_from(ordered))
        else:
            p = draw_diagram(data, colored)
        expected = None if p.n_points > BENCH_BOUND else p in members
        assert membership(spec, p) is expected
        other = draw_diagram(data, not colored)
        with pytest.raises(ColorError):  # before the bound check
            membership(spec, other)

    def test_queries_past_the_bound_build_no_closure(self, monkeypatch):
        # op budget: ab:ba within 12 points would pass CLOSURE_CAP, but
        # queries past the bound or in the other color mode never build it
        calls = _count_closures(monkeypatch)
        spec = CategorySpec(generators=(parse_partition("ab:ba"),), max_points=12)
        rng = random.Random(28)
        for _ in range(200):
            n = rng.randrange(13, 16)
            k = rng.randrange(n + 1)
            assert membership(spec, random_partition(rng, k, n - k)) is None
            n = rng.randrange(16)
            k = rng.randrange(n + 1)
            with pytest.raises(ColorError):
                membership(spec, random_partition(rng, k, n - k, colored=True))
        assert calls == {"closure": 0}
        with pytest.raises(BoundsExceededError):
            membership(spec, parse_partition("ab:ba"))
        assert calls == {"closure": 1}

    def test_refused_closure_built_once(self, monkeypatch):
        # op budget: a closure past CLOSURE_CAP is refused once; every later
        # query within the bound raises the same refusal from the cache
        calls = _count_closures(monkeypatch)
        spec = CategorySpec(generators=(parse_partition("ab:ba"),), max_points=12)
        equal = CategorySpec(generators=(parse_partition("ab:ba"),), max_points=12)
        errors = set()
        for p in ("ab:ba", "a:a", "ab:ba", ":aa"):
            for each in (spec, equal):
                with pytest.raises(BoundsExceededError) as info:
                    membership(each, parse_partition(p))
                errors.add((type(info.value), str(info.value)))
        assert errors == {(
            BoundsExceededError,
            "the closure of 1 generator(s) within 12 points exceeds the cap "
            f"of {CLOSURE_CAP} one-row words",
        )}
        assert calls == {"closure": 1}

    def test_one_cache_read_per_spec(self, monkeypatch):
        # op budget: 100 queries on one spec read the shared cache once
        calls = _count_closures(monkeypatch)
        spec = CategorySpec(generators=(FOURBLOCK,), max_points=6)
        rng = random.Random(28)
        answers = set()
        for _ in range(100):
            n = rng.randrange(BENCH_BOUND + 1)
            k = rng.randrange(n + 1)
            answers.add(membership(spec, random_partition(rng, k, n - k)))
        assert answers == {True, False}
        assert categories._CLOSURE_CACHE.reads == 1
        assert calls == {"closure": 1}

    def test_equal_specs_share_one_closure(self, monkeypatch):
        # op budget: two equal specs built separately run closure() once
        calls = _count_closures(monkeypatch)
        first = CategorySpec(generators=(FOURBLOCK,), max_points=6)
        second = CategorySpec(generators=[parse_partition("aa:aa")], max_points=6)
        assert first is not second
        assert membership(first, parse_partition("aaaa:")) is True
        assert membership(second, parse_partition("aaa:a")) is True
        assert membership(second, parse_partition("ab:ba")) is False
        assert calls == {"closure": 1}

    def test_cached_facts_stay_outside_value_semantics(self):
        spec = CategorySpec(generators=(FOURBLOCK,), max_points=6)
        unused = CategorySpec(generators=(FOURBLOCK,), max_points=6)
        assert spec.colored is False
        assert membership(spec, parse_partition("aa:aa")) is True
        assert membership(spec, parse_partition("a:")) is False
        fresh = CategorySpec(generators=(FOURBLOCK,), max_points=6)
        assert spec == fresh == unused
        assert hash(spec) == hash(fresh) == hash(unused)
        assert repr(spec) == repr(fresh) == repr(unused)
        assert [f.name for f in dataclasses.fields(CategorySpec)] == [
            "builtin",
            "generators",
            "max_points",
        ]
        wider = dataclasses.replace(spec, max_points=8)
        assert wider != spec and wider.max_points == 8
        assert membership(wider, parse_partition("aaaa:aaaa")) is True
        assert membership(spec, parse_partition("aaaa:aaaa")) is None
        assert dataclasses.replace(wider, max_points=6) == spec

    def test_generators_in_any_iterable(self):
        g = parse_partition("ab:ba")
        forms = [
            CategorySpec(generators=(g,), max_points=6),
            CategorySpec(generators=[g], max_points=6),
            CategorySpec(generators=(x for x in [g]), max_points=6),
        ]
        assert all(spec.generators == (g,) for spec in forms)
        assert forms[0] == forms[1] == forms[2]
        assert len({hash(spec) for spec in forms}) == 1
        for text in ("ab:ba", "ab:ab", "abc:cab", "a:a", "ab:", "abcd:dcba"):
            p = parse_partition(text)
            assert len({membership(spec, p) for spec in forms}) == 1
        assert CategorySpec(builtin="nc", generators=[]) == NC

    def test_builtin_refuses_a_point_bound(self):
        # a built-in holds every arity, so a bound would only split equal
        # categories into unequal specs and separate cache entries
        with pytest.raises(ValueError, match="take no point bound"):
            CategorySpec(builtin="nc", max_points=6)
        bounded = CategorySpec(builtin="nc", max_points=DEFAULT_MAX_POINTS)
        assert bounded == NC and hash(bounded) == hash(NC)
        assert category_from_name("nc", max_points=6) == NC

    @pytest.mark.parametrize("bound", [6.5, 6.0, "6", None])
    def test_bound_that_is_not_an_int_is_refused(self, bound):
        gens = (parse_partition("ab:ba"),)
        with pytest.raises(TypeError, match="point bound must be an int"):
            CategorySpec(generators=gens, max_points=bound)
        with pytest.raises(TypeError, match="point bound must be an int"):
            closure(gens, bound)


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

    def test_walk_holds_no_list(self):
        # the 115,975 growth strings of 10 points stream past the filter:
        # a list of them peaked at 17.2 MB for these 42 members
        tracemalloc.start()
        try:
            members = enumerate_in(NC2, 5, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(members) == 42
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "spec",
        [CategorySpec.named(name) for name in BUILTIN_IDS]
        + [
            CategorySpec(generators=(FOURBLOCK,), max_points=6),
            CategorySpec(generators=(parse_partition("aa@wb:@"),), max_points=6),
        ],
        ids=list(BUILTIN_IDS) + ["gen:aa:aa", "gen:aa@wb:@"],
    )
    def test_matches_brute_force_filter(self, spec):
        # differential: enumerate_in's one member loop against the filter it
        # replaced, every set partition in every coloring asked contains
        for n in range(7):
            for k in range(n + 1):
                expected = [
                    cand
                    for labels in all_set_partitions(n)
                    for cand in (
                        colorings(Partition(k, n - k, labels))
                        if spec.colored
                        else [Partition(k, n - k, labels)]
                    )
                    if contains(spec, cand)
                ]
                expected.sort(key=Partition.sort_key)
                assert enumerate_in(spec, k, n - k) == expected

    @pytest.mark.parametrize(
        "gen, first",
        [("aa:aa", "aaa:aa"), ("aa@wb:@", "aaa@www:aa@ww")],
    )
    def test_past_the_bound_names_the_first_candidate(self, gen, first):
        spec = CategorySpec(generators=(parse_partition(gen),), max_points=4)
        with pytest.raises(UndecidableMembershipError) as info:
            enumerate_in(spec, 3, 2)
        assert str(info.value) == (
            f"{first} has 5 points, beyond the bound 4 of the generated category"
        )


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
