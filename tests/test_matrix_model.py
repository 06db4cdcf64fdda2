"""Exact matrix realization: ranks, functoriality, projections, algebra."""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from particat import linalg
from particat import matrix_model as mm
from particat.partition import (
    ColorError,
    Partition,
    all_set_partitions,
    compose,
    identity,
    involution,
    is_projective,
    parse_partition,
    serialize,
    stats,
    tensor,
)
from particat.structure import (
    dominates,
    p_sigma,
    sym_group,
)
from particat.categories import (
    BUILTIN_IDS,
    BoundsExceededError,
    CategorySpec,
    enumerate_in,
    projectives,
)
from particat.fusion import decompose_power
from particat.matrix_model import (
    BrauerElement,
    brauer_element,
    brauer_kernel_dim,
    brauer_product,
    check_functor,
    class_projection,
    independent,
    projection_matrix,
    projection_rank,
    psi_check,
    t_map,
    t_map_rank,
)

from draws import random_partition

P1 = parse_partition("aab:accc")
P5_NESTED = Partition.make(4, 4, [(0, 3), (1, 2), (4, 7), (5, 6)])
NC = CategorySpec.named("nc")
NC2 = CategorySpec.named("nc2")
P_ALL = CategorySpec.named("p")
P2 = CategorySpec.named("p2")
UCOL = CategorySpec.named("ucol")


def brauer_involution(x):
    """The involution of the diagram algebra, term by term."""
    return BrauerElement.from_dict(x.arity, {involution(p): c for p, c in x.terms})


def rand_rng():
    return random.Random(424242)


def row_signatures_oracle(p, upper, N):
    """Validity mask and through-block code of every assignment to one row,
    read straight off the blocks of p."""
    k = p.upper
    n, offset = (k, 0) if upper else (p.lower, k)
    flat = np.arange(N**n, dtype=np.int64)
    digits = [(flat // (N ** (n - 1 - pos))) % N for pos in range(n)]
    valid = np.ones(N**n, dtype=bool)
    code = np.zeros(N**n, dtype=np.int64)
    for b in p.blocks:
        here = [x - offset for x in b if offset <= x < offset + n]
        if here:
            for pos in here[1:]:
                valid &= digits[here[0]] == digits[pos]
            if b[0] < k <= b[-1]:
                code = code * N + digits[here[0]]
    return valid, code


def map_oracle(p, N):
    """The map by its definition: (j, i) is 1 exactly when both assignments
    respect every block and give each through-block one value."""
    valid_i, code_i = row_signatures_oracle(p, True, N)
    valid_j, code_j = row_signatures_oracle(p, False, N)
    return valid_j[:, None] & valid_i & (code_j[:, None] == code_i)


def rank_by_unique(p, N):
    """The rank as the number of codes realized on both rows, by np.unique
    and np.intersect1d: the oracle of the closed form N^t."""
    valid_i, code_i = row_signatures_oracle(p, True, N)
    valid_j, code_j = row_signatures_oracle(p, False, N)
    upper_codes = np.unique(code_i[valid_i])
    lower_codes = np.unique(code_j[valid_j])
    return int(np.intersect1d(upper_codes, lower_codes).size)


def flattened_rank(spec, k, N):
    """Member count of C(k, k) and the rank of its maps, each built densely
    and flattened to a sparse 0/1 vector of length N^2k: the oracle of the
    rank read on kernel partitions."""
    members = enumerate_in(spec, k, k)
    ech = linalg.SparseEchelon()
    for q in members:
        flat = t_map(q, N).ravel()
        ech.insert(dict.fromkeys(np.flatnonzero(flat).tolist(), 1))
    return len(members), ech.rank


def normalized(p, N):
    """The normalized map N^(-beta/2) T_p as a Fraction matrix, for a
    diagram with even beta."""
    beta = stats(p).beta
    assert beta % 2 == 0
    return Fraction(1, N ** (beta // 2)) * t_map(p, N).astype(object)


def trace_rank(proj):
    """The rank of an exact orthogonal projection, read as its trace."""
    trace = Fraction(sum(proj.diagonal()))
    assert trace.denominator == 1
    return int(trace)


def projection_oracle(spec, p, N):
    """The dense projection of p: its normalized map minus the projection
    onto the distinct columns of the maps of the projective members that p
    strictly dominates."""
    cols = []
    for q in projectives(spec, p.upper):
        if q.colored and q.upper_colors() != p.upper_colors():
            continue
        if q != p and dominates(p, q):
            cols.extend(c for c in np.unique(t_map(q, N).T, axis=0) if c.any())
    if not cols:
        return normalized(p, N)
    dense = np.array(cols, dtype=object).T
    return normalized(p, N) - linalg.projection_onto_columns(dense)


def by_word(members, build):
    """``build`` of each member, grouped by the member's color word: members
    of different words act on different tensor powers."""
    words = {}
    for q in members:
        words.setdefault(q.colors, []).append(build(q))
    return words


def class_oracle(spec, members, N):
    """The dense class projections of one class, one per color word, with
    the class rank summed over the words and the representative's rank."""
    words = by_word(members, lambda q: projection_oracle(spec, q, N))
    projs = {
        word: linalg.projection_onto_columns(np.concatenate(mats, axis=1))
        for word, mats in words.items()
    }
    rank_class = sum(trace_rank(proj) for proj in projs.values())
    return projs, rank_class, trace_rank(words[members[0].colors][0])


def class_projection_matrix(spec, rec, N):
    """The dense class projections of one ``class_projection`` record, one
    per color word, built from the integer image bases of the members."""
    words = by_word(
        rec["members"],
        lambda q: mm._image_basis(q, mm._check_caps(spec, q, N), N),
    )
    return {
        word: linalg.basis_projection(
            linalg.orthogonal_basis(u for b in bases for u, _ in b),
            N ** rec["representative"].upper,
        )
        for word, bases in words.items()
    }


def psi_oracle(spec, p, N):
    """The group-algebra comparison on dense Fraction matrices."""
    group = sym_group(spec, p)
    proj = projection_oracle(spec, p, N)
    comp = {
        sigma: proj @ normalized(p_sigma(p, sigma), N) @ proj
        for sigma in group
    }
    multiplicative = all(
        np.array_equal(comp[a] @ comp[b], comp[tuple(a[x] for x in b)])
        for a in group
        for b in group
    )
    identity_maps_to_projection = np.array_equal(
        comp[tuple(range(len(group[0])))], proj
    )
    vectors = [
        (proj @ t_map(q, N).astype(object) @ proj).ravel()
        for q in enumerate_in(spec, p.upper, p.upper)
        if not (q.colored and q.colors != p.colors)
    ]
    dim_aut = linalg.rank(np.array(vectors, dtype=object)) if vectors else 0
    return {
        "category": spec.name(),
        "p": serialize(p),
        "N": N,
        "group_order": len(group),
        "multiplicative": multiplicative,
        "identity_maps_to_projection": identity_maps_to_projection,
        "dim_aut": dim_aut,
        "isomorphic": dim_aut == len(group),
        "passed": multiplicative
        and identity_maps_to_projection
        and dim_aut <= len(group),
    }


# (category, k, N) of the differential tests against the dense oracles
DENSE_CASES = [
    ("nc", 2, 2),
    ("nc", 2, 3),
    ("p", 2, 2),
    ("p", 2, 3),
    ("ucol", 2, 2),
    ("nc2", 3, 2),
    ("nceven", 2, 2),
    ("p2", 2, 3),
]


# (category, k, N) of the class projection against the dense oracle: every
# built-in at k <= 3, and nceven at k = 4, the first size where the records'
# (t, label) order differs from (t, serialization)
CLASS_CASES = [
    (name, k, N) for name in BUILTIN_IDS for k in range(4) for N in (2, 3)
] + [("nceven", 4, 2)]


def every_diagram(max_row, max_points):
    """Every uncolored diagram with at most ``max_row`` points per row and
    ``max_points`` points in all."""
    for n in range(max_points + 1):
        for labels in all_set_partitions(n):
            for k in range(max(0, n - max_row), min(max_row, n) + 1):
                yield Partition(k, n - k, labels)


@st.composite
def diagrams_five_per_row(draw):
    k, l = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    blocks: list[list[int]] = []
    for x in range(k + l):  # a restricted growth string
        choice = draw(st.integers(0, len(blocks)))
        if choice == len(blocks):
            blocks.append([x])
        else:
            blocks[choice].append(x)
    return Partition.make(k, l, blocks)


class TestTMap:
    def test_identity_strands(self):
        for N in (2, 3, 4):
            assert np.array_equal(
                t_map(identity(1), N).astype(int), np.eye(N, dtype=int)
            )

    def test_example_rank(self):
        assert t_map_rank(P1, 3) == 3 == 3 ** stats(P1).t

    def test_structured_rank_matches_elimination(self):
        # cross-check the signature-based rank against generic exact
        # elimination on every diagram with at most three points per row
        for n in range(0, 7):
            for labels in all_set_partitions(n):
                for k in range(n + 1):
                    if k > 3 or n - k > 3:
                        continue
                    p = Partition(k, n - k, labels)
                    for N in (2, 3):
                        mat = t_map(p, N)
                        assert t_map_rank(p, N) == linalg.rank(mat)

    def test_rank_formula_small(self):
        rng = rand_rng()
        for _ in range(150):
            p = random_partition(rng, rng.randrange(5), rng.randrange(5))
            for N in (2, 3):
                assert t_map_rank(p, N) == N ** stats(p).t

    def test_injective_at_two(self):
        rng = rand_rng()
        seen = 0
        while seen < 200:
            k, l = rng.randrange(4), rng.randrange(4)
            p = random_partition(rng, k, l)
            q = random_partition(rng, k, l)
            if p == q:
                continue
            assert not np.array_equal(t_map(p, 2), t_map(q, 2))
            seen += 1

    def test_size_cap(self):
        with pytest.raises(BoundsExceededError, match="rows or columns"):
            t_map(identity(7), 4)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_entries_match_definition(self, N):
        # entry by entry, on every small diagram and on a coloring of it:
        # the maps ignore colors
        rng = rand_rng()
        for p in every_diagram(4, 8):
            colors = tuple(rng.choice("wb") for _ in range(p.n_points))
            want = map_oracle(p, N)
            for q in (p, p._replace(colors=colors)):
                got = t_map(q, N)
                assert got.dtype == np.int64
                assert np.array_equal(got, want), (q, N)

    def test_large_entries_match_definition(self):
        # rows of five and six points at N = 3, up to 729 x 729
        rng = rand_rng()
        for k, l in ((5, 5), (6, 5), (5, 6), (6, 6), (6, 0), (1, 6)):
            p = random_partition(rng, k, l)
            got = t_map(p, 3)
            assert got.dtype == np.int64
            assert np.array_equal(got, map_oracle(p, 3)), p


class TestCachedRank:
    def test_matches_oracle_four_per_row(self):
        pool = list(every_diagram(4, 8))
        for N in (1, 2, 3, 4):
            assert [t_map_rank(p, N) for p in pool] == [
                rank_by_unique(p, N) for p in pool
            ]

    @settings(max_examples=100, deadline=None)
    @given(diagrams_five_per_row(), st.sampled_from((2, 3)))
    def test_matches_oracle_five_per_row(self, p, N):
        assert t_map_rank(p, N) == rank_by_unique(p, N)

    def test_rank_builds_no_row(self, monkeypatch):
        # an op budget of zero: the rank is read off the blocks
        def no_row(*args):
            raise AssertionError("t_map_rank built a row")

        monkeypatch.setattr(mm, "_row", no_row)
        for N in (2, 3):
            for p in every_diagram(7, 7):
                t_map_rank(p, N)

    def test_row_once_per_key(self):
        # the memo builds each row once per (labels, through-blocks, N)
        mm._row.cache_clear()
        keys = set()
        for N in (2, 3):
            for p in every_diagram(5, 5):
                t_map(p, N)
                t_map(p, N)
                upper, lower = p.labels[: p.upper], p.labels[p.upper :]
                through = tuple(sorted(set(upper) & set(lower)))
                keys |= {(upper, through, N), (lower, through, N)}
        assert mm._row.cache_info().misses == len(keys)

    def test_rows_read_only(self):
        # a caller cannot write into the memo
        for a in mm._row((0, 1, 0), (0,), 2):
            with pytest.raises(ValueError):
                a[0] = 5

    def test_t_map_is_int64(self):
        for p in every_diagram(3, 6):
            assert t_map(p, 2).dtype == np.int64


class TestColumns:
    def test_columns_split_valid_assignments(self):
        # one column per realized code, disjoint, covering every valid
        # assignment to the lower row
        for N in (2, 3):
            for q in every_diagram(4, 8):
                cols = mm._columns([q], N)
                assert len(cols) == rank_by_unique(q, N)
                covered: set = set()
                for col in cols:
                    assert col and set(col.values()) == {1}
                    assert covered.isdisjoint(col)
                    covered |= col.keys()
                valid_j, _ = row_signatures_oracle(q, False, N)
                assert covered == set(np.flatnonzero(valid_j).tolist())


class TestFunctor:
    def test_example_pair(self):
        for N in (2, 3):
            report = check_functor(involution(P1), P1, N)
            assert report["passed"]
            assert report["composition_rule"]

    def test_projective_loop_rule(self):
        report = check_functor(P5_NESTED, P5_NESTED, 3)
        assert report["idempotent_rule"]
        assert compose(P5_NESTED, P5_NESTED).removed_loops == stats(P5_NESTED).beta // 2

    def test_identity_composition(self):
        report = check_functor(identity(2), identity(2), 3)
        assert report["passed"] and report["removed_loops"] == 0

    def test_random_pairs(self):
        rng = rand_rng()
        for _ in range(100):
            k, l, m = (rng.randrange(4) for _ in range(3))
            top = random_partition(rng, k, l)
            bottom = random_partition(rng, l, m)
            assert check_functor(bottom, top, 2)["passed"]

    def test_partial_isometry_rule(self):
        rng = rand_rng()
        for _ in range(60):
            p = random_partition(rng, rng.randrange(4), rng.randrange(4))
            mat = t_map(p, 3)
            pp_star, loops = compose(p, involution(p))
            assert np.array_equal(
                mat @ mat.T, (3**loops) * t_map(pp_star, 3)
            )

    def test_partial_isometry_rule_normalized(self):
        # with the normalization the loop factor disappears entirely for
        # diagrams whose non-through count is even on both sides
        rng = rand_rng()
        seen = 0
        while seen < 40:
            p = random_partition(rng, rng.randrange(4), rng.randrange(4))
            pp_star, _ = compose(p, involution(p))
            if stats(p).beta % 2:
                continue
            tp = normalized(p, 3)
            assert np.array_equal(tp @ tp.T, normalized(pp_star, 3))
            seen += 1


class TestIndependence:
    def test_noncrossing_pairs_independent_at_four(self):
        assert not independent(NC2, 2, 4)["dependent"]

    def test_all_partitions_dependent_at_two(self):
        assert independent(P_ALL, 2, 2)["dependent"]

    def test_one_point_independent(self):
        assert not independent(P_ALL, 1, 2)["dependent"]

    def test_noncrossing_threshold(self):
        assert independent(NC, 2, 2)["dependent"]
        assert not independent(NC, 2, 4)["dependent"]

    @pytest.mark.parametrize(
        "name,k,N",
        [("p", 2, 2), ("p2", 3, 2), ("p2", 2, 4), ("nc", 2, 2), ("nc", 2, 4)],
    )
    def test_rank_matches_gram_rank(self, name, k, N):
        # the Gram matrix <T_p, T_q> of the map family, as an oracle
        spec = CategorySpec.named(name)
        mats = [
            t_map(q, N)
            for q in enumerate_in(spec, k, k)
        ]
        gram = sympy.Matrix(
            [[int(np.sum(a * b)) for b in mats] for a in mats]
        )
        report = independent(spec, k, N)
        assert report["count"] == len(mats)
        assert (
            report["rank"]
            == report["count"] - brauer_kernel_dim(spec, k, N)
            == gram.rank()
        )

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "spec",
        [CategorySpec.named(name) for name in BUILTIN_IDS if name != "ucol"]
        + [
            CategorySpec(generators=(parse_partition(g),), max_points=6)
            for g in (":a", "ab:ba")
        ],
        ids=lambda spec: spec.name(),
    )
    def test_matches_flattened_maps(self, spec, k, N):
        # differential: kernel partitions against the flattened maps
        report = independent(spec, k, N)
        oracle = flattened_rank(spec, k, N)
        assert (report["count"], report["rank"]) == oracle
        assert brauer_kernel_dim(spec, k, N) == oracle[0] - oracle[1]

    @pytest.mark.parametrize(
        "name,max_k,max_N,threshold",
        [("p", 3, 6, lambda k: 2 * k), ("p2", 4, 5, lambda k: k)],
        ids=["jones", "brauer"],
    )
    def test_independence_thresholds(self, name, max_k, max_N, threshold):
        # P(k, k) maps are independent iff N >= 2k (Jones 1994), the pair
        # diagrams' iff N >= k (Brauer 1937)
        spec = CategorySpec.named(name)
        for k in range(max_k + 1):
            for N in range(1, max_N + 1):
                dependent = independent(spec, k, N)["dependent"]
                assert dependent == (N < threshold(k)), (k, N)

    @pytest.mark.parametrize(
        "name,k,N,count,rank",
        [("p", 3, 5, 203, 202), ("p2", 4, 3, 105, 91), ("nc", 4, 4, 1430, 1430)],
    )
    def test_known_ranks(self, name, k, N, count, rank):
        report = independent(CategorySpec.named(name), k, N)
        assert (report["count"], report["rank"]) == (count, rank)

    def test_family_rank_builds_no_map(self, monkeypatch):
        # op budget: no diagram map and no row is built
        def refuse(*args):
            raise AssertionError("a diagram map was built")

        monkeypatch.setattr(mm, "t_map", refuse)
        monkeypatch.setattr(mm, "_row", refuse)
        assert independent(NC, 3, 4)["rank"] == 132
        assert brauer_kernel_dim(P_ALL, 2, 2) == 7

    def test_colored_category_refused(self):
        # the maps ignore colors, so the colorings of one diagram alias
        with pytest.raises(ColorError):
            independent(UCOL, 2, 2)
        with pytest.raises(ColorError):
            brauer_kernel_dim(UCOL, 2, 2)


class TestProjection:
    def test_singleton_pair_keeps_full_map(self):
        p0 = parse_partition("a:b")
        proj = projection_matrix(NC, p0, 4)
        assert np.array_equal(proj, normalized(p0, 4))
        assert linalg.rank(proj) == 1

    def test_strand_projection_rank(self):
        proj = projection_matrix(NC, identity(1), 4)
        assert linalg.rank(proj) == 3
        assert projection_rank(NC, identity(1), 4) == 3

    def test_projection_laws(self):
        for spec, k, N in ((NC, 2, 4), (P_ALL, 2, 5)):
            for p in projectives(spec, k):
                proj = projection_matrix(spec, p, N)
                assert np.array_equal(proj, proj.T)
                assert np.array_equal(proj @ proj, proj)
                assert linalg.rank(proj) == projection_rank(spec, p, N)

    def test_compression_kills_lower_through_count(self):
        # compressing any member with strictly smaller middle through count
        # by the projection gives zero
        N = 4
        for p in projectives(NC, 2):
            proj = projection_matrix(NC, p, N)
            for q in enumerate_in(NC, 2, 2):
                pqp = compose(compose(p, q).partition, p).partition
                if stats(pqp).t < stats(p).t:
                    got = proj @ t_map(q, N).astype(object) @ proj
                    assert not got.any()

    def test_collapse_reported_not_raised(self):
        # below the independence threshold a projection may vanish
        ranks = [projection_rank(NC, p, 2) for p in projectives(NC, 2)]
        assert min(ranks) <= 0


class TestClassProjection:
    def test_arity_one(self):
        recs = class_projection(NC, 1, 4)
        assert [r["rank_class"] for r in recs] == [1, 3]
        assert sum(r["rank_class"] for r in recs) == 4

    def test_arity_two_matches_known_decomposition(self):
        recs = class_projection(NC, 2, 4)
        assert [(r["t"], r["rank_class"], r["multiplicity"]) for r in recs] == [
            (0, 2, 2),
            (1, 9, 3),
            (2, 5, 1),
        ]
        assert sum(r["rank_class"] for r in recs) == 16

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("N", [2, 3])
    def test_colored_ranks_fill_every_word(self, k, N):
        # each of the 2^k color words of length k carries its own (C^N)^k,
        # and the class projections of ucol split each one completely
        recs = class_projection(UCOL, k, N)
        assert sum(r["rank_class"] for r in recs) == 2**k * N**k

    @pytest.mark.parametrize(
        "name, k, N",
        [
            (name, k, N)
            for name in ("nc", "nc2", "ncb", "nceven", "p", "p2", "ucol")
            for k in range(3 if name == "ucol" else 4)
            for N in (2, 3)
        ]
        + [("nc", 4, 3)],
    )
    def test_class_ranks_match_gram_schmidt(self, name, k, N):
        # differential: the class rank comes from the one echelon; the
        # Gram-Schmidt length of the joined image bases, per color word,
        # is the oracle it replaced
        spec = CategorySpec.named(name)
        for rec in class_projection(spec, k, N):
            words = by_word(
                rec["members"],
                lambda q: mm._image_basis(q, mm._check_caps(spec, q, N), N),
            )
            assert rec["rank_class"] == sum(
                len(linalg.orthogonal_basis(u for b in bases for u, _ in b))
                for bases in words.values()
            )

    def test_class_projections_orthogonal(self):
        recs = class_projection(NC, 2, 4)
        projs = [class_projection_matrix(NC, r, 4)[None] for r in recs]
        for i, a in enumerate(projs):
            for b in projs[i + 1 :]:
                assert not (a @ b).any()


class TestPsi:
    def test_noncrossing_gives_irreducible(self):
        for p in projectives(NC, 2):
            if stats(p).t == 0:
                continue
            report = psi_check(NC, p, 4)
            assert report["passed"]
            assert report["group_order"] == 1
            assert report["dim_aut"] == 1

    def test_symmetric_group_algebra_at_independence(self):
        report = psi_check(P_ALL, identity(2), 5)
        assert report["passed"]
        assert report["group_order"] == 2
        assert report["dim_aut"] == 2
        assert report["isomorphic"]

    def test_identity_maps_to_projection(self):
        report = psi_check(P_ALL, identity(2), 3)
        assert report["identity_maps_to_projection"]


class TestDenseOracle:
    @pytest.mark.parametrize("name,k,N", DENSE_CASES)
    def test_matches_dense_oracle(self, name, k, N):
        spec = CategorySpec.named(name)
        for p in projectives(spec, k):
            if stats(p).t == 0:
                continue
            assert psi_check(spec, p, N) == psi_oracle(spec, p, N)
            got = projection_matrix(spec, p, N)
            want = projection_oracle(spec, p, N)
            assert got.shape == want.shape
            assert got.tolist() == want.tolist()
            assert all(type(x) is Fraction for x in got.ravel())

    @pytest.mark.parametrize("name,k,N", CLASS_CASES)
    def test_class_projection_matches_dense_oracle(self, name, k, N):
        # the records are decompose_power's, in its order, plus the ranks
        spec = CategorySpec.named(name)
        recs = class_projection(spec, k, N)
        fields = ("representative", "members", "t", "label")
        assert [[rec[f] for f in fields] for rec in recs] == [
            [rec[f] for f in fields] for rec in decompose_power(spec, k)
        ]
        for rec in recs:
            projs, rank_class, rank_rep = class_oracle(spec, rec["members"], N)
            got = class_projection_matrix(spec, rec, N)
            assert got.keys() == projs.keys()
            for word, proj in projs.items():
                assert got[word].tolist() == proj.tolist()
            assert (rec["rank_class"], rec["rank_rep"]) == (rank_class, rank_rep)

    def test_vanished_projection(self):
        # the two strands over C^2 have nothing left beyond the members
        # they dominate, so every compression is zero
        assert projection_rank(NC, identity(2), 2) == 0
        report = psi_check(NC, identity(2), 2)
        assert report["dim_aut"] == 0
        assert report["passed"] and report["identity_maps_to_projection"]


class TestRefusals:
    @pytest.mark.parametrize("N", [0, -1])
    @pytest.mark.parametrize(
        "call",
        [
            lambda N: t_map_rank(identity(1), N),
            lambda N: t_map(identity(1), N),
            lambda N: check_functor(identity(1), identity(1), N),
            lambda N: independent(NC, 1, N),
            lambda N: brauer_kernel_dim(NC, 1, N),
            lambda N: projection_rank(NC, identity(1), N),
            lambda N: projection_rank(NC, parse_partition("a:b"), N),
            lambda N: projection_matrix(NC, identity(1), N),
            lambda N: class_projection(NC, 1, N),
            lambda N: psi_check(NC, identity(1), N),
        ],
        ids=[
            "t_map_rank",
            "t_map",
            "check_functor",
            "independent",
            "brauer_kernel_dim",
            "projection_rank",
            "projection_rank_minimal",
            "projection_matrix",
            "class_projection",
            "psi_check",
        ],
    )
    def test_bad_N(self, call, N):
        with pytest.raises(ValueError, match="N must be at least 1"):
            call(N)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: t_map_rank(identity(7), 4),
            lambda: t_map_rank(Partition.make(0, 7, [[i] for i in range(7)]), 4),
            lambda: projection_rank(NC, identity(6), 5),
        ],
        ids=["t_map_rank", "t_map_rank_lower", "projection_rank"],
    )
    def test_rows_cap(self, call):
        # refused like t_map and projection_matrix, before any work
        with pytest.raises(BoundsExceededError, match="rows or columns"):
            call()

    def test_caps_before_any_basis(self, monkeypatch):
        # a budget of zero Gram-Schmidt runs: the first one fails at once
        def no_basis(*args):
            raise AssertionError("a basis was built before the caps")

        monkeypatch.setattr(linalg, "orthogonal_basis", no_basis)
        with pytest.raises(BoundsExceededError, match="entry cap"):
            class_projection(NC, 5, 5)
        with pytest.raises(BoundsExceededError, match="entry cap"):
            projection_matrix(NC, identity(5), 5)
        # the entry cap would trip too; the rows cap is checked first
        with pytest.raises(BoundsExceededError, match="rows or columns"):
            psi_check(NC, identity(7), 4)


class TestBrauer:
    def test_product_twist(self):
        cupcap = parse_partition("aa:bb")
        x = brauer_element(cupcap)
        prod = brauer_product(x, x, 3)
        assert prod.terms == ((cupcap, Fraction(1, 3)),)

    def test_associative_on_random_triples(self):
        rng = rand_rng()
        pool = enumerate_in(P_ALL, 2, 2)
        for _ in range(200):
            a, b, c = (brauer_element(rng.choice(pool)) for _ in range(3))
            left = brauer_product(brauer_product(a, b, 3), c, 3)
            right = brauer_product(a, brauer_product(b, c, 3), 3)
            assert left == right

    def test_involution_antimultiplicative(self):
        rng = rand_rng()
        pool = enumerate_in(P_ALL, 2, 2)
        for _ in range(100):
            a, b = (brauer_element(rng.choice(pool)) for _ in range(2))
            left = brauer_involution(brauer_product(a, b, 2))
            right = brauer_product(
                brauer_involution(b), brauer_involution(a), 2
            )
            assert left == right

    def test_kernel_trivial_at_large_n(self):
        assert brauer_kernel_dim(P2, 2, 4) == 0

    def test_kernel_detects_true_dependences(self):
        # the faithful range ends at N < k for pair diagrams: three strands
        # over C^2 produce relations, as do all diagrams at two strands
        assert brauer_kernel_dim(P2, 3, 2) == 5
        assert brauer_kernel_dim(P_ALL, 2, 2) == 7

    def test_pair_diagrams_two_strands_faithful_at_two(self):
        # the three pair-diagram maps on (C^2)^(x2) stay independent: the
        # identity, the flip and the arc pairing have disjoint one-supports
        assert brauer_kernel_dim(P2, 2, 2) == 0
