"""Core diagram type: grammar, canonical form, operations, predicates."""

import random

import pytest

from particat.partition import (
    ArityError,
    ColorError,
    GrammarError,
    Partition,
    all_set_partitions,
    compose,
    conjugate_colors,
    empty_partition,
    identity,
    involution,
    is_idempotent,
    is_noncrossing,
    is_projective,
    is_symmetric,
    parse_partition,
    predicates,
    random_partition,
    rotate,
    serialize,
    stats,
    tensor,
)

P1 = parse_partition("aab:accc")  # three blocks, one through
P2_CROSSING = Partition.make(2, 2, [(0, 3), (1, 2)])
P5_NESTED = Partition.make(4, 4, [(0, 3), (1, 2), (4, 7), (5, 6)])


def rand_rng():
    return random.Random(20240811)


class TestGrammar:
    def test_example_partition(self):
        assert P1.upper == 3 and P1.lower == 4
        assert P1.blocks == ((0, 1, 3), (2,), (4, 5, 6))

    def test_roundtrip(self):
        rng = rand_rng()
        for _ in range(300):
            k, l = rng.randrange(5), rng.randrange(5)
            p = random_partition(rng, k, l, colored=rng.random() < 0.5)
            assert parse_partition(serialize(p)) == p

    def test_noncanonical_letters_agree(self):
        assert parse_partition("ba:b") == parse_partition("ab:a")

    def test_empty(self):
        assert parse_partition(":") == empty_partition()

    def test_colored_crossing(self):
        p = parse_partition("ab@wb:ba@bw")
        assert p.colors == ("w", "b", "b", "w")
        assert p.blocks == ((0, 3), (1, 2))

    def test_errors(self):
        with pytest.raises(GrammarError):
            parse_partition("ab")
        with pytest.raises(GrammarError):
            parse_partition("a1:a")
        with pytest.raises(GrammarError):
            parse_partition("ab@w:ab@ww")
        with pytest.raises(GrammarError):
            parse_partition("ab@wb:ab")

    @pytest.mark.parametrize(
        "text,position",
        [
            ("ab:a1", 4),
            ("ab@wx:ab@ww", 4),
            ("ab@wb:ab@wq", 10),
            ("a:b:c", 3),
            ("abc", None),
        ],
    )
    def test_error_positions_index_the_input(self, text, position):
        with pytest.raises(GrammarError) as info:
            parse_partition(text)
        assert info.value.position == position
        assert ("position" in str(info.value)) == (position is not None)


class TestCanonicalize:
    def test_make_validates(self):
        with pytest.raises(ValueError):
            Partition.make(1, 1, [(0,)])
        with pytest.raises(ValueError):
            Partition.make(1, 0, [(0,), (0,)])
        with pytest.raises(ColorError):
            Partition.make(1, 1, [(0, 1)], colors=("w",))


class TestStats:
    def test_example_counts(self):
        assert stats(P1) == stats(P1).__class__(3, 1, 2)
        st = stats(P1)
        assert (st.b, st.t, st.beta) == (3, 1, 2)

    def test_identity(self):
        for k in range(5):
            st = stats(identity(k))
            assert (st.b, st.t, st.beta) == (k, k, 0)

    def test_beta_definition(self):
        rng = rand_rng()
        for _ in range(200):
            p = random_partition(rng, rng.randrange(6), rng.randrange(6))
            st = stats(p)
            assert st.beta == st.b - st.t >= 0


class TestTensor:
    def test_identity_strands(self):
        assert tensor(identity(1), identity(1)) == identity(2)

    def test_example_stats_add(self):
        st = stats(tensor(P1, P1))
        assert (st.b, st.t, st.beta) == (6, 2, 4)

    def test_stats_additive_random(self):
        rng = rand_rng()
        for _ in range(500):
            p = random_partition(rng, rng.randrange(4), rng.randrange(4))
            q = random_partition(rng, rng.randrange(4), rng.randrange(4))
            sp, sq, spq = stats(p), stats(q), stats(tensor(p, q))
            assert spq.b == sp.b + sq.b
            assert spq.t == sp.t + sq.t
            assert spq.beta == sp.beta + sq.beta

    def test_empty_is_unit(self):
        rng = rand_rng()
        p = random_partition(rng, 3, 2)
        assert tensor(p, empty_partition()) == p
        assert tensor(empty_partition(), p) == p

    def test_color_mixing_rejected(self):
        with pytest.raises(ColorError):
            tensor(identity(1), identity(1, colors="w"))


class TestCompose:
    def test_identity_neutral(self):
        rng = rand_rng()
        for _ in range(100):
            p = random_partition(rng, rng.randrange(5), rng.randrange(5))
            res = compose(p, identity(p.upper))
            assert res.partition == p and res.removed_loops == 0
            res = compose(identity(p.lower), p)
            assert res.partition == p and res.removed_loops == 0

    def test_block_count_not_determined_by_invariants(self):
        # two compositions sharing all of b, t and loop data may still
        # produce different block counts
        p1 = Partition.make(4, 4, [(0, 1), (2, 3, 6, 7), (4, 5)])
        q1 = Partition.make(4, 4, [(0, 1), (2, 3, 4, 7), (5, 6)])
        p2 = Partition.make(4, 4, [(0, 1, 6, 7), (2, 3), (4, 5)])
        q2 = Partition.make(4, 4, [(0, 1), (2, 3, 6, 7), (4, 5)])
        for a, b in ((p1, p2), (q1, q2)):
            assert stats(a).b == stats(b).b and stats(a).t == stats(b).t
        r1, l1 = compose(p1, q1)
        r2, l2 = compose(p2, q2)
        assert l1 == l2 == 0
        assert stats(r1).b == 3 and stats(r2).b == 4

    def test_building_collapse_with_loop(self):
        s = parse_partition("aab:a")
        res = compose(s, involution(s))
        assert res.partition == identity(1)
        assert res.removed_loops == 1

    def test_isolated_middle_counts_as_loop(self):
        top = parse_partition("a:b")  # singleton above a singleton
        bottom = parse_partition("a:b")
        res = compose(bottom, top)
        assert res.removed_loops == 1
        assert res.partition == parse_partition("a:b")

    def test_associativity_and_loop_identity(self):
        rng = rand_rng()
        for _ in range(500):
            k, l, m, n = (rng.randrange(4) for _ in range(4))
            r = random_partition(rng, m, n)
            q = random_partition(rng, l, m)
            p = random_partition(rng, k, l)
            qp, rl_qp = compose(q, p)
            left, rl_left = compose(r, qp)
            rq, rl_rq = compose(r, q)
            right, rl_right = compose(rq, p)
            assert left == right
            assert rl_qp + rl_left == rl_rq + rl_right

    def test_through_monotone(self):
        rng = rand_rng()
        for _ in range(300):
            k, l, m = (rng.randrange(5) for _ in range(3))
            top = random_partition(rng, k, l)
            bottom = random_partition(rng, l, m)
            t_res = stats(compose(bottom, top).partition).t
            assert t_res <= min(stats(top).t, stats(bottom).t)

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            compose(identity(2), identity(3))

    def test_color_mismatch(self):
        w = identity(1, colors="w")
        b = identity(1, colors="b")
        assert compose(w, w).partition == w
        with pytest.raises(ColorError):
            compose(b, w)


class TestInvolution:
    def test_involutive(self):
        rng = rand_rng()
        for _ in range(200):
            p = random_partition(rng, rng.randrange(5), rng.randrange(5),
                                 colored=rng.random() < 0.3)
            assert involution(involution(p)) == p

    def test_identity_fixed(self):
        assert involution(identity(1)) == identity(1)

    def test_example_stats_preserved(self):
        q = involution(P1)
        assert (q.upper, q.lower) == (4, 3)
        st = stats(q)
        assert (st.b, st.t, st.beta) == (3, 1, 2)

    def test_antihomomorphism(self):
        rng = rand_rng()
        for _ in range(500):
            k, l, m = (rng.randrange(4) for _ in range(3))
            top = random_partition(rng, k, l)
            bottom = random_partition(rng, l, m)
            res, loops = compose(bottom, top)
            res_star, loops_star = compose(involution(top), involution(bottom))
            assert res_star == involution(res)
            assert loops_star == loops


class TestRotate:
    CORNERS = (("ul", "ll"), ("ll", "ul"), ("ur", "lr"), ("lr", "ur"))

    def test_rotation_inverses(self):
        rng = rand_rng()
        count = 0
        while count < 500:
            p = random_partition(rng, rng.randrange(4), rng.randrange(4),
                                 colored=rng.random() < 0.3)
            for corner, back in self.CORNERS:
                if corner in ("ul", "ur") and p.upper == 0:
                    continue
                if corner in ("ll", "lr") and p.lower == 0:
                    continue
                assert rotate(rotate(p, corner), back) == p
                count += 1

    def test_white_identity_rotates_to_mixed_pair(self):
        p = rotate(identity(1, colors="w"), "ul")
        assert (p.upper, p.lower) == (0, 2)
        assert p.blocks == ((0, 1),)
        assert set(p.colors) == {"w", "b"}

    def test_empty_row_rejected(self):
        with pytest.raises(ArityError):
            rotate(parse_partition(":a"), "ul")


class TestPredicates:
    def test_crossing_not_projective(self):
        assert is_symmetric(P2_CROSSING)
        assert not is_idempotent(P2_CROSSING)
        assert not predicates(P2_CROSSING)["is_projective"]

    def test_nested_double_pair_projective(self):
        assert predicates(P5_NESTED)["is_projective"]

    def test_crossing_detection(self):
        assert not is_noncrossing(P2_CROSSING)
        assert is_noncrossing(P1)
        assert is_noncrossing(P5_NESTED)

    def test_noncrossing_projective_iff_symmetric(self):
        for k in range(1, 4):
            for blocks in all_set_partitions(2 * k):
                p = Partition.make(k, k, blocks)
                if not is_noncrossing(p):
                    continue
                assert is_projective(p) == is_symmetric(p)

    def test_bundle_on_rectangular(self):
        out = predicates(P1)
        assert not out["is_projective"] and not out["is_idempotent"]
        with pytest.raises(ArityError):
            is_idempotent(P1)


class TestColors:
    def test_conjugate_involutive(self):
        rng = rand_rng()
        for _ in range(100):
            p = random_partition(rng, rng.randrange(4), rng.randrange(4),
                                 colored=True)
            assert conjugate_colors(conjugate_colors(p)) == p

    def test_white_identity_flips_to_black(self):
        assert conjugate_colors(identity(1, colors="w")) == identity(1, colors="b")

    def test_uncolored_rejected(self):
        with pytest.raises(ColorError):
            conjugate_colors(identity(1))
