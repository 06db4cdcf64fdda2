"""Through-block factorization, domination, mixing, words, equivalence."""

import random
import sys
from itertools import permutations

import pytest

from particat.partition import (
    BLACK,
    WHITE,
    ArityError,
    ColorError,
    Partition,
    all_set_partitions,
    compose,
    empty_partition,
    identity,
    involution,
    is_noncrossing,
    is_projective,
    parse_partition,
    serialize,
    stats,
    tensor,
    conjugate_colors,
)
from particat import partition as partition_module, structure
from particat.fusion import fusion_brute_force
from particat.matrix_model import class_projection
from particat.structure import (
    MIXING_CAP,
    SYM_SEARCH_CAP,
    _equivalence_classes,
    boxvert,
    dominates,
    enumerate_mixing,
    equivalent,
    is_building,
    is_through,
    mix,
    p_sigma,
    square,
    sym_group,
    through_block_decomposition,
    to_through_partition,
    upper_building,
    word_h,
    word_u,
)
from particat.categories import (
    BUILTIN_IDS,
    BoundsExceededError,
    CategorySpec,
    _colorings,
    contains,
    is_noncrossing_spec,
    projectives,
)
from particat.verify import _partitions_up_to

from draws import random_partition

P1 = parse_partition("aab:accc")
FOURBLOCK = parse_partition("aa:aa")
DOUBLEPAIR = parse_partition("aa:bb")
NC = CategorySpec.named("nc")
NC2 = CategorySpec.named("nc2")
NCB = CategorySpec.named("ncb")
NCEVEN = CategorySpec.named("nceven")
UCOL = CategorySpec.named("ucol")
P_ALL = CategorySpec.named("p")


def projective_from(q):
    """q* q, the canonical projective diagram attached to any q."""
    return compose(involution(q), q).partition


def compose_chain(*parts):
    """Compose bottom-to-top: compose_chain(c, b, a) is the stack a over b
    over c.  The composition oracle of the library's block-read stacking."""
    result = parts[-1]
    for nxt in reversed(parts[:-1]):
        result = compose(nxt, result).partition
    return result


def count_calls(monkeypatch, names, source=partition_module):
    """Count the calls of the named functions of ``source`` (by default
    ``particat.partition``) wherever they are bound."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(source, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        for module in list(sys.modules.values()):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    return calls


# ---------------------------------------------------------------------------
# oracles: the library's former symmetry-group search (every permutation, in
# every category) and its former equivalence test (a composition pre-check,
# then the witness search)


def sym_group_full_search(spec, p):
    """All permutations sigma with p_sigma still in the category.

    Always a subgroup of the full symmetric group on the through-blocks.
    """
    if not contains(spec, p):
        raise ValueError("p does not belong to the category")
    t = stats(p).t
    if t == 0:
        raise ValueError("the symmetry group needs at least one through-block")
    if t > SYM_SEARCH_CAP:
        raise ValueError(
            f"through-block count {t} exceeds the search cap {SYM_SEARCH_CAP}"
        )
    pu = upper_building(p)
    pu_star = involution(pu)
    out = []
    for sigma in permutations(range(t)):
        cand = compose_chain(
            pu_star, to_through_partition(sigma, p.colored), pu
        )
        if contains(spec, cand):
            out.append(tuple(sigma))
    return out


def equivalent_with_precheck(spec, p, q):
    """Whether some r in the category has r*r = p and rr* = q.

    Any witness must be of the form q_u* r_sigma p_u, so the search runs over
    permutations of the through-blocks; for noncrossing categories only the
    identity permutation can occur and the search collapses to one test.
    """
    if not (is_projective(p) and is_projective(q)):
        raise ValueError("equivalence is defined for projective diagrams")
    if not (contains(spec, p) and contains(spec, q)):
        raise ValueError("both diagrams must belong to the category")
    tp, tq = stats(p).t, stats(q).t
    if tp != tq:
        return False
    if p == q:
        return True
    if p.upper == q.upper and (
        not p.colored or p.upper_colors() == q.lower_colors()
    ):
        pq = compose(p, q).partition
        if stats(pq).t == tp:
            return True
    pu = upper_building(p)
    qu_star = involution(upper_building(q))
    if is_noncrossing_spec(spec):
        sigmas = [tuple(range(tp))]
    else:
        if tp > SYM_SEARCH_CAP:
            raise ValueError(
                f"through-block count {tp} exceeds the search cap {SYM_SEARCH_CAP}"
            )
        sigmas = permutations(range(tp))
    for sigma in sigmas:
        witness = compose_chain(
            qu_star, to_through_partition(tuple(sigma), p.colored), pu
        )
        if contains(spec, witness):
            return True
    return False


def dominates_by_composition(p, q):
    """The definition of domination, pq = q, read off a composition: the
    oracle for the library's block-refinement test."""
    return compose(p, q).partition == q


def _same_word_pairs(spec, max_k):
    """Ordered pairs of the category's projectives of one arity, at most
    ``max_k``, with equal color words."""
    for k in range(max_k + 1):
        pool = projectives(spec, k)
        for p in pool:
            for q in pool:
                if p.colors == q.colors:
                    yield p, q


def _fusion_tensor_pairs():
    """The pairs (tensor, m) that ``fusion_brute_force`` tests over the
    pools of acceptance 5 (projectives of at most three points): every
    tensor product and every lowered tensor is some tensor(x, y) of two pool
    members, and m runs over the projectives at the joint arity.  Joint
    arities 5 and 6 of nc (370k pairs) are left out; ncb, nceven and nc2
    reach them."""
    for name in ("nc", "nc2", "nceven", "ncb"):
        spec = CategorySpec.named(name)
        pool = [p for k in range(4) for p in projectives(spec, k)]
        top = 4 if name == "nc" else 6
        tensors = {
            tensor(x, y) for x in pool for y in pool
            if x.upper + y.upper <= top
        }
        for t in tensors:
            for m in projectives(spec, t.upper):
                yield t, m


DOMINATION_CASES = {
    "p": lambda: _same_word_pairs(P_ALL, 4),
    "nc": lambda: _same_word_pairs(NC, 4),
    "ncb": lambda: _same_word_pairs(NCB, 4),
    "ucol": lambda: _same_word_pairs(UCOL, 3),
    "fusion-tensors": _fusion_tensor_pairs,
}


# generator and point bound; the colored crossing's closure at 8 points
# (16,027 members) is beyond categories.CLOSURE_CAP
GENERATED = (
    ("ab:ba", 8),
    ("abc:cba", 8),
    ("abc:cab", 8),
    ("aa:aa", 8),
    (":a", 8),
    ("ab@wb:ba@bw", 6),
)


def rand_rng():
    return random.Random(77)


class TestThroughBlockDecomposition:
    def test_identity(self):
        for k in range(4):
            d = through_block_decomposition(identity(k))
            assert d.upper_building == identity(k)
            assert d.middle == identity(k)
            assert d.lower_building == identity(k)

    def test_example(self):
        d = through_block_decomposition(P1)
        assert serialize(d.upper_building) == "aab:a"
        assert serialize(d.middle) == "a:a"
        assert serialize(d.lower_building) == "abbb:a"
        assert d.recompose() == P1

    def test_parts_wellformed_and_recompose(self):
        rng = rand_rng()
        for _ in range(400):
            p = random_partition(rng, rng.randrange(5), rng.randrange(5),
                                 colored=rng.random() < 0.3)
            d = through_block_decomposition(p)
            assert is_building(d.upper_building)
            assert is_building(d.lower_building)
            assert is_through(d.middle)
            assert d.lower_building.lower == stats(p).t
            assert d.recompose() == p

    def test_lower_building_read_off_the_lower_row(self, monkeypatch):
        # q is the upper building diagram of p turned over, read off p's
        # lower-row labels without turning p over
        diagrams = list(_partitions_up_to(6))
        diagrams += [c for p in _partitions_up_to(4) for c in _colorings(p)]
        calls = count_calls(monkeypatch, ["involution"])
        decomposed = [through_block_decomposition(p) for p in diagrams]
        assert calls == {"involution": 0}
        for p, d in zip(diagrams, decomposed):
            assert d.lower_building == upper_building(involution(p))

    def test_block_count_relation(self):
        rng = rand_rng()
        for _ in range(300):
            p = random_partition(rng, rng.randrange(5), rng.randrange(5))
            d = through_block_decomposition(p)
            st = stats(p)
            assert st.b == (
                stats(d.lower_building).b + stats(d.upper_building).b - st.t
            )
            assert st.beta == (
                stats(d.lower_building).beta + stats(d.upper_building).beta
            )

    def test_noncrossing_middle_trivial(self):
        for n in range(0, 7):
            for k in range(n + 1):
                for labels in all_set_partitions(n):
                    p = Partition(k, n - k, labels)
                    if not is_noncrossing(p):
                        continue
                    d = through_block_decomposition(p)
                    assert d.middle == identity(stats(p).t)

    def test_unique_over_valid_triples(self):
        # every valid factorization triple is recovered by decomposing its
        # recomposition
        rng = rand_rng()
        count = 0
        while count < 200:
            k, l, t = rng.randrange(4), rng.randrange(4), rng.randrange(3)
            if t > min(k, l):
                continue
            s = _random_building(rng, k, t)
            q = _random_building(rng, l, t)
            if s is None or q is None:
                continue
            sigma = list(range(t))
            rng.shuffle(sigma)
            r = to_through_partition(tuple(sigma))
            p = compose(compose(involution(q), r).partition, s).partition
            d = through_block_decomposition(p)
            assert (d.lower_building, d.middle, d.upper_building) == (q, r, s)
            count += 1


def _random_building(rng, k, t):
    """Random building diagram in P(k, t), or None when k cannot host t."""
    if t > k:
        return None
    anchors = sorted(rng.sample(range(k), t))
    blocks = {i: [anchors[i]] for i in range(t)}
    extras = [x for x in range(k) if x not in anchors]
    free = []
    for x in extras:
        targets = [i for i in range(t) if anchors[i] < x]
        if targets and rng.random() < 0.6:
            blocks[rng.choice(targets)].append(x)
        else:
            free.append((x,))
    out = [tuple(sorted(b)) + (k + i,) for i, b in blocks.items()] + free
    return Partition.make(k, t, out)


class TestProjectiveFrom:
    def test_identity(self):
        assert projective_from(identity(1)) == identity(1)

    def test_crossing_collapses(self):
        crossing = Partition.make(2, 2, [(0, 3), (1, 2)])
        assert projective_from(crossing) == identity(2)

    def test_random_projective_and_tripod(self):
        rng = rand_rng()
        for _ in range(500):
            q = random_partition(rng, rng.randrange(5), rng.randrange(5))
            p = projective_from(q)
            assert is_projective(p)
            assert stats(p).t == stats(q).t
            assert compose(compose(q, involution(q)).partition, q).partition == q


class TestDomination:
    def test_fourblock_below_identity(self):
        assert dominates(identity(2), FOURBLOCK)
        assert not dominates(FOURBLOCK, identity(2))

    def test_reflexive(self):
        for p in projectives(P_ALL, 2):
            assert dominates(p, p)

    def test_incomparable_pair(self):
        double_singletons = Partition.make(2, 2, [(0,), (1,), (2,), (3,)])
        assert not dominates(DOUBLEPAIR, double_singletons)
        assert not dominates(double_singletons, DOUBLEPAIR)

    def test_equal_t_forces_equality(self):
        projs = projectives(P_ALL, 3)
        for p in projs:
            for q in projs:
                if dominates(p, q):
                    assert stats(q).t <= stats(p).t
                    if stats(q).t == stats(p).t:
                        assert p == q

    def test_non_projective_rejected(self):
        with pytest.raises(ValueError):
            dominates(identity(2), Partition.make(2, 2, [(0, 3), (1, 2)]))

    def test_colored_against_uncolored_rejected(self):
        colored = identity(1, (WHITE,))
        with pytest.raises(ColorError):
            dominates(colored, identity(1))
        with pytest.raises(ColorError):
            dominates(identity(1), colored)

    def test_unequal_color_words_rejected(self):
        # both are colored projectives; only their color words differ
        with pytest.raises(ColorError):
            dominates(identity(1, (WHITE,)), identity(1, (BLACK,)))
        with pytest.raises(ColorError):
            dominates(identity(2, "wb"), identity(2, "bw"))

    @pytest.mark.parametrize("case", sorted(DOMINATION_CASES))
    def test_matches_composition_oracle(self, case):
        pairs = list(DOMINATION_CASES[case]())
        below = 0
        for p, q in pairs:
            got = structure._dominator(p)(q)
            assert got == dominates_by_composition(p, q), (str(p), str(q))
            below += got
        # both answers occur, so neither side is vacuous
        assert 0 < below < len(pairs)

    @pytest.mark.parametrize("spec, max_k", [(NC, 3), (UCOL, 2), (P_ALL, 2)])
    def test_dominated_members_match_oracle(self, spec, max_k):
        for k in range(max_k + 1):
            pool = projectives(spec, k)
            for p in pool:
                want = [
                    q for q in pool
                    if q.colors == p.colors and q != p
                    and dominates_by_composition(p, q)
                ]
                assert structure._dominated_members(spec, p) == want, str(p)

    def test_domination_composes_nothing(self, monkeypatch):
        calls = count_calls(monkeypatch, ["compose"])
        pool = projectives(NCB, 1) + projectives(NCB, 2)
        for p in pool:
            for q in pool:
                fusion_brute_force(NCB, p, q)
        with pytest.raises(BoundsExceededError, match="entry cap"):
            class_projection(NC, 5, 5)
        assert calls == {"compose": 0}

    @pytest.mark.parametrize("spec", [NCB, UCOL])
    def test_brute_force_reads_each_dominator_once(self, monkeypatch, spec):
        # one test for the tensor, one for each operand's lowering and one
        # per lowered tensor, however large the joint pool
        pool = [p for k in range(3) for p in projectives(spec, k)]
        lowered = {p: len(structure._dominated_members(spec, p)) for p in pool}
        calls = count_calls(monkeypatch, ["_dominator"], structure)
        for p in pool:
            for q in pool:
                calls["_dominator"] = 0
                fusion_brute_force(spec, p, q)
                assert calls["_dominator"] == 3 + lowered[p] + lowered[q]
        # the budget stays below the largest joint pool it scans
        assert 3 + 2 * max(lowered.values()) < len(projectives(spec, 4))


class TestPSigma:
    def test_identity_permutation(self):
        for p in projectives(P_ALL, 2):
            assert p_sigma(p, tuple(range(stats(p).t))) == p

    def test_transposition_gives_crossing(self):
        crossing = Partition.make(2, 2, [(0, 3), (1, 2)])
        assert p_sigma(identity(2), (1, 0)) == crossing

    def test_refuses_a_non_permutation(self):
        # the one caller whose sigma comes from outside checks it
        with pytest.raises(ValueError, match="not a permutation of 0..1"):
            p_sigma(identity(2), (0, 0))

    def test_group_law(self):
        rng = rand_rng()
        pool = [p for p in projectives(P_ALL, 3) if stats(p).t > 0]
        for _ in range(200):
            p = rng.choice(pool)
            t = stats(p).t
            sigma = tuple(rng.sample(range(t), t))
            tau = tuple(rng.sample(range(t), t))
            composed = tuple(sigma[tau[i]] for i in range(t))
            assert (
                compose(p_sigma(p, sigma), p_sigma(p, tau)).partition
                == p_sigma(p, composed)
            )
            inverse = tuple(sigma.index(i) for i in range(t))
            assert p_sigma(p, inverse) == involution(p_sigma(p, sigma))


class TestSymGroup:
    def test_noncrossing_trivial(self):
        for spec in (NC, NC2, CategorySpec.named("ncb")):
            for k in range(5):
                for p in projectives(spec, k):
                    t = stats(p).t
                    if t:
                        # the full search confirms the noncrossing rule
                        assert (
                            sym_group(spec, p)
                            == sym_group_full_search(spec, p)
                            == [tuple(range(t))]
                        )

    def test_full_group_with_crossing(self):
        group = sym_group(P_ALL, identity(3))
        assert len(group) == 6

    def test_half_liberated_order_two(self):
        halflib = to_through_partition((2, 1, 0))
        spec = CategorySpec(generators=(halflib,), max_points=6)
        group = sym_group(spec, identity(3))
        assert sorted(group) == [(0, 1, 2), (2, 1, 0)]

    def test_closed_under_product_and_inverse(self):
        halflib = to_through_partition((2, 1, 0))
        spec = CategorySpec(generators=(halflib,), max_points=8)
        group = set(sym_group(spec, identity(4)))
        assert len(group) == 4  # parity-preserving permutations of 4 strands
        for a in group:
            assert tuple(a.index(i) for i in range(len(a))) in group
            for b in group:
                assert tuple(a[b[i]] for i in range(len(b))) in group


    @pytest.mark.parametrize("name", ["p", "p2"])
    def test_matches_full_search(self, name):
        spec = CategorySpec.named(name)
        for k in range(4):
            for p in projectives(spec, k):
                if stats(p).t:
                    assert sym_group(spec, p) == sym_group_full_search(spec, p)

    def test_refuses_non_projective(self):
        with pytest.raises(ValueError):
            sym_group(P_ALL, parse_partition("ab:ba"))
        with pytest.raises(ValueError):
            sym_group(NC, parse_partition("aab:acc"))

    def test_search_cap_is_a_bound(self):
        t = SYM_SEARCH_CAP + 1
        with pytest.raises(BoundsExceededError, match="search cap"):
            sym_group(P_ALL, identity(t))
        # noncrossing categories try one permutation, so no cap applies
        assert sym_group(NC, identity(t)) == [tuple(range(t))]


class TestEquivalence:
    @pytest.mark.parametrize(
        "spec",
        [CategorySpec.named(name) for name in BUILTIN_IDS]
        + [
            CategorySpec(generators=(parse_partition(text),), max_points=bound)
            for text, bound in GENERATED
        ],
        ids=list(BUILTIN_IDS) + [f"gen:{text}" for text, _ in GENERATED],
    )
    def test_classes_match_oracle(self, spec):
        for k in range(4):
            members = projectives(spec, k)
            want: list[list[Partition]] = []
            for p in members:
                for cls in want:
                    if equivalent_with_precheck(spec, cls[0], p):
                        cls.append(p)
                        break
                else:
                    want.append([p])
            assert _equivalence_classes(spec, members) == want

    def test_classes_run_no_member_checks(self, monkeypatch):
        # members of projectives() are checked already, so grouping them
        # runs no projectivity test
        members = projectives(P_ALL, 3)
        want = _equivalence_classes(P_ALL, members)
        checked = []
        monkeypatch.setattr(
            structure, "is_projective", lambda p: checked.append(p) or True
        )
        assert _equivalence_classes(P_ALL, members) == want
        assert checked == []

    def test_hyperoctahedral_neighbours_differ(self):
        p = tensor(FOURBLOCK, identity(1))
        q = tensor(identity(1), FOURBLOCK)
        assert not equivalent(NCEVEN, p, q)

    def test_hyperoctahedral_padded_pair(self):
        p = tensor(DOUBLEPAIR, FOURBLOCK)
        q = tensor(FOURBLOCK, DOUBLEPAIR)
        assert equivalent(NCEVEN, p, q)

    def test_nc_equivalence_is_through_count(self):
        pool = projectives(NC, 2) + projectives(NC, 3)
        for p in pool:
            for q in pool:
                assert equivalent(NC, p, q) == (stats(p).t == stats(q).t)

    def test_shortcut_matches_full_search(self):
        # the single-permutation shortcut for noncrossing categories agrees
        # with the full search
        pool = [p for p in projectives(NCEVEN, 3)]
        for p in pool:
            for q in pool:
                got = equivalent(NCEVEN, p, q)
                want = _equivalent_full_search(NCEVEN, p, q)
                assert got == want

    def test_requires_membership(self):
        with pytest.raises(ValueError):
            equivalent(NC2, parse_partition("a:b"), identity(1))


def _equivalent_full_search(spec, p, q):
    tp, tq = stats(p).t, stats(q).t
    if tp != tq:
        return False
    pu = upper_building(p)
    qu_star = involution(upper_building(q))
    for sigma in permutations(range(tp)):
        witness = compose_chain(
            qu_star, to_through_partition(tuple(sigma), p.colored), pu
        )
        if contains(spec, witness):
            return True
    return False


def mix_per_mixing(p, q, h):
    """The graft of one mixing diagram, with the upper building diagrams,
    their tensor, its turn-over and the white lift all built afresh: the
    oracle of the graft routine."""
    pu = upper_building(p)
    qu = upper_building(q)
    mid = tensor(pu, qu)
    hp = h.partition
    if p.colored and not hp.colored:
        hp = Partition.make(
            hp.upper, hp.lower, hp.blocks, (WHITE,) * hp.n_points
        )
    return compose_chain(involution(mid), hp, mid)


class TestStacking:
    def test_composes_and_flips_nothing(self, monkeypatch):
        # op budget: grafts, equivalence witnesses and recomposition are
        # read off the blocks, with no composition and no turn-over
        pools = [projectives(P_ALL, 2), projectives(UCOL, 2)]
        rng = rand_rng()
        diagrams = [
            random_partition(rng, 3, 3, colored=rng.random() < 0.5)
            for _ in range(50)
        ]
        decompositions = [through_block_decomposition(p) for p in diagrams]
        calls = count_calls(monkeypatch, ["compose", "involution"])
        grafts = [
            structure._graft(p, q, enumerate_mixing(stats(p).t, stats(q).t))
            for pool in pools
            for p in pool
            for q in pool
        ]
        classes = [_equivalence_classes(P_ALL, projectives(P_ALL, 3))]
        classes.append(_equivalence_classes(UCOL, pools[1]))
        groups = [
            sym_group(P_ALL, p) for p in projectives(P_ALL, 3) if stats(p).t
        ]
        recomposed = [d.recompose() for d in decompositions]
        assert calls == {"compose": 0, "involution": 0}
        assert all(grafts) and all(classes) and all(groups)
        assert recomposed == diagrams


class TestMixing:
    def test_counts_small(self):
        assert len(enumerate_mixing(0, 0)) == 1
        assert len(enumerate_mixing(1, 1)) == 3
        assert len(enumerate_mixing(2, 1)) == 5
        assert len(enumerate_mixing(2, 2)) == 17

    def test_count_cap(self):
        # (5, 5) is the largest square size under the cap; (6, 6) is
        # refused from the closed-form count, before anything is built
        assert len(enumerate_mixing(5, 5)) == 19_091 <= MIXING_CAP
        with pytest.raises(BoundsExceededError, match="291793"):
            enumerate_mixing(6, 6)

    def test_all_projective(self):
        for k, l in ((1, 1), (2, 1), (2, 2), (3, 1)):
            for h in enumerate_mixing(k, l):
                assert is_projective(h.partition)

    def test_one_one_members(self):
        got = {serialize(h.partition) for h in enumerate_mixing(1, 1)}
        assert got == {"ab:ab", "aa:bb", "aa:aa"}

    def test_noncrossing_members_are_padded_families(self):
        for k in range(0, 4):
            for l in range(0, 4):
                got = {
                    h.partition
                    for h in enumerate_mixing(k, l)
                    if is_noncrossing(h.partition)
                }
                nested = [h.partition for h in structure._nested_mixings(k, l)]
                assert len(set(nested)) == len(nested) == 2 * min(k, l) + 1
                assert set(nested) == got

    def test_identity_mixing_gives_tensor(self):
        rng = rand_rng()
        for _ in range(50):
            p = projective_from(random_partition(rng, 3, rng.randrange(4)))
            q = projective_from(random_partition(rng, 2, rng.randrange(3)))
            tp, tq = stats(p).t, stats(q).t
            ident = enumerate_mixing(tp, tq)[0]
            assert ident.partition == identity(tp + tq)
            assert mix(p, q, ident) == tensor(p, q)

    def test_graft_dominated_and_injective(self):
        # injectivity of the graft holds at each fixed arity split (a, b)
        for a in range(0, 3):
            for b in range(0, 3 - a + 1):
                seen = {}
                for p in projectives(P_ALL, a):
                    for q in projectives(P_ALL, b):
                        pq = tensor(p, q)
                        for h in enumerate_mixing(stats(p).t, stats(q).t):
                            m = mix(p, q, h)
                            assert dominates(pq, m)
                            key = (p, q, h.partition)
                            assert seen.setdefault(m, key) == key

    @pytest.mark.parametrize("spec", [P_ALL, UCOL], ids=["p", "ucol"])
    def test_graft_matches_per_mixing_oracle(self, spec):
        # the ucol pool takes the colored lift of the mixing diagrams
        pool = [p for k in range(0, 3) for p in projectives(spec, k)]
        for p in pool:
            for q in pool:
                mixings = enumerate_mixing(stats(p).t, stats(q).t)
                want = [mix_per_mixing(p, q, h) for h in mixings]
                assert structure._graft(p, q, mixings) == want
                assert [mix(p, q, h) for h in mixings] == want

    def test_arity_mismatch(self):
        h = enumerate_mixing(1, 1)[0]
        with pytest.raises(ArityError):
            mix(identity(2), identity(1), h)

    def test_membership_descends_to_factors(self):
        # whenever a graft lands in a category, both factors belong too
        for spec in (NC, NCEVEN):
            pool = projectives(P_ALL, 1) + projectives(P_ALL, 2)
            for p in pool:
                for q in pool:
                    for h in enumerate_mixing(stats(p).t, stats(q).t):
                        if contains(spec, mix(p, q, h)):
                            assert contains(spec, p) and contains(spec, q)


class TestSquareBoxvert:
    def test_square_zero_is_tensor(self):
        assert square(identity(2), identity(3), 0) == tensor(
            identity(2), identity(3)
        )

    def test_through_count_arithmetic(self):
        pool = []
        for k in range(0, 4):
            pool.extend(projectives(NC, k))
        for p in pool:
            for q in pool:
                tp, tq = stats(p).t, stats(q).t
                for a in range(0, min(tp, tq) + 1):
                    assert stats(square(p, q, a)).t == tp + tq - 2 * a
                for a in range(1, min(tp, tq) + 1):
                    assert stats(boxvert(p, q, a)).t == tp + tq - 2 * a + 1

    def test_boxvert_merges_blocks(self):
        six = Partition.make(3, 3, [(0, 1, 2, 3, 4, 5)])
        merged = boxvert(FOURBLOCK, six, 1)
        assert contains(NCEVEN, merged)
        through = [b for b in merged.blocks
                   if b[0] < merged.upper and b[-1] >= merged.upper]
        assert len(through) == 1 and len(through[0]) == 10

    def test_depth_out_of_range(self):
        with pytest.raises(ArityError):
            square(identity(1), identity(1), 2)
        with pytest.raises(ArityError):
            boxvert(identity(1), identity(1), 0)


class TestWords:
    def test_single_letters(self):
        assert word_h(tensor(FOURBLOCK, identity(1))) == "01"
        assert word_h(tensor(identity(1), FOURBLOCK)) == "10"
        assert word_h(identity(3)) == "111"

    def test_word_complete_invariant_for_even_blocks(self):
        pool = []
        for k in range(0, 5):
            pool.extend(projectives(NCEVEN, k))
        for p in pool:
            for q in pool:
                assert equivalent(NCEVEN, p, q) == (word_h(p) == word_h(q))

    def test_word_h_needs_even_blocks(self):
        with pytest.raises(ValueError):
            word_h(parse_partition("a:a").__class__.make(1, 1, [(0,), (1,)]))

    def test_word_u_reads_colors(self):
        w = identity(1, colors="w")
        b = identity(1, colors="b")
        assert word_u(tensor(w, b)) == "wb"
        assert word_u(empty_partition(colored=True)) == ""

    def test_word_u_needs_pairs(self):
        p = Partition.make(2, 2, [(0, 1, 2, 3)], colors="wwww")
        with pytest.raises(ValueError):
            word_u(p)

    def test_word_u_conjugation(self):
        for k in range(0, 3):
            for p in projectives(UCOL, k):
                conj = conjugate_colors(p)
                flipped = word_u(p).translate(str.maketrans("wb", "bw"))
                assert word_u(conj) == flipped

    def test_trivial_class_from_full_square(self):
        w = identity(1, colors="w")
        p = tensor(w, w)
        res = square(p, conjugate_colors(p), 2)
        assert contains(UCOL, res)
        assert equivalent(UCOL, res, empty_partition(colored=True))
