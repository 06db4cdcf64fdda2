"""Algebraic laws of the diagram operations, as hypothesis properties.

Besides the category laws this checks the two facts the one-row closure
rests on: k ``ul`` rotations take a diagram in P(k, l) to its word in
P(0, k + l), and a full cyclic turn of a colored word is the identity.
It also checks that the through-block factorization p = q* r s recomposes
to p, in both color modes, with building diagrams q and s and q the upper
building diagram of p turned over, and that the block readings of
stacking q* m s (several middles on one frame), domination and
projectivity agree with their definitions by composition beyond the
arities tested exhaustively, and that the mixing grafts of one pair are
distinct, each with its mixing's through-block count.  Composition, which
glues words, is checked against the point-level union-find it replaced.
"""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from particat.partition import (
    ArityError,
    ColorError,
    CompositionResult,
    Partition,
    _from_word,
    _relabel,
    _word,
    compose,
    involution,
    is_projective,
    parse_partition,
    rotate,
    serialize,
    stats,
    tensor,
)
from particat.categories import CategorySpec, projectives
from particat.structure import (
    _dominator,
    _graft,
    _stack,
    enumerate_mixing,
    is_building,
    through_block_decomposition,
    upper_building,
)

MAX_ROW = 3
MAX_PROJECTIVE_ARITY = 7
FLIP = {"w": "b", "b": "w"}


def color_rows(n: int):
    return st.lists(st.sampled_from("wb"), min_size=n, max_size=n)


@st.composite
def partitions(
    draw, colored, upper=None, upper_colors=None, max_lower=MAX_ROW, lower=None
):
    """A diagram with at most MAX_ROW upper and ``max_lower`` lower points;
    ``upper`` and ``upper_colors`` pin its upper row so that it can sit
    below another, and ``lower`` pins the size of its lower row."""
    k = draw(st.integers(0, MAX_ROW)) if upper is None else upper
    l = draw(st.integers(0, max_lower)) if lower is None else lower
    blocks: list[list[int]] = []
    for x in range(k + l):  # a restricted growth string
        choice = draw(st.integers(0, len(blocks)))
        if choice == len(blocks):
            blocks.append([x])
        else:
            blocks[choice].append(x)
    colors = None
    if colored:
        if upper_colors is None:
            upper_colors = draw(color_rows(k))
        colors = tuple(upper_colors) + tuple(draw(color_rows(l)))
    return Partition.make(k, l, blocks, colors)


def below(p: Partition):
    """Diagrams that can be composed below ``p``."""
    colors = None if p.colors is None else p.lower_colors()
    return partitions(p.colored, upper=p.lower, upper_colors=colors)


@st.composite
def chains(draw):
    """Three composable diagrams, top first."""
    top = draw(partitions(draw(st.booleans())))
    middle = draw(below(top))
    return top, middle, draw(below(middle))


any_partition = st.booleans().flatmap(partitions)

# composable pairs (top, bottom), colored alike or uncolored
composable = st.booleans().flatmap(partitions).flatmap(
    lambda top: st.tuples(st.just(top), below(top))
)


# ---------------------------------------------------------------------------
# oracle: composition by a union-find over points, the library's former
# implementation


def compose_by_union_find(bottom: Partition, top: Partition) -> CompositionResult:
    """Stack ``top`` over ``bottom``: a union-find over the upper, middle and
    lower points, whose components without an upper or lower point are the
    removed loops."""
    if top.lower != bottom.upper:
        raise ArityError(
            f"cannot compose: top has {top.lower} lower points, "
            f"bottom has {bottom.upper} upper points"
        )
    if top.colored != bottom.colored:
        raise ColorError("cannot compose colored with uncolored")
    if top.colored and top.lower_colors() != bottom.upper_colors():
        raise ColorError("middle-row colors do not match")
    k, mid, m = top.upper, top.lower, bottom.lower
    # node ids: 0..k-1 result uppers, k..k+mid-1 middles, k+mid.. result lowers
    parent = list(range(k + mid + m))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for b in top.blocks:
        for x in b[1:]:
            parent[find(x)] = find(b[0])
    for b in bottom.blocks:
        # bottom's upper points are the middles, its lower points follow them
        for x in b[1:]:
            parent[find(x + k)] = find(b[0] + k)
    comps: dict[int, list[int]] = {}
    for node in range(k + mid + m):
        comps.setdefault(find(node), []).append(node)
    blocks, loops = [], 0
    for members in comps.values():
        outer = [x if x < k else x - mid for x in members if x < k or x >= k + mid]
        if outer:
            blocks.append(tuple(outer))
        else:
            loops += 1
    colors = None
    if top.colors is not None and bottom.colors is not None:
        colors = top.colors[:k] + bottom.colors[bottom.upper :]
    return CompositionResult(Partition.make(k, m, blocks, colors), loops)


@settings(max_examples=300, deadline=None)
@given(composable)
@example((parse_partition("a:bb"), parse_partition("aa:")))  # a loop
@example((parse_partition("a:b"), parse_partition("a:")))  # an isolated middle
@example((parse_partition("ab:cc"), parse_partition("ab:ab")))  # two loops
@example((parse_partition(":"), parse_partition(":")))
@example((parse_partition("a:"), parse_partition(":a")))  # no middle points
@example((parse_partition("@:aa@wb"), parse_partition("aa@wb:@")))
@example((parse_partition("ab@bw:ab@wb"), parse_partition("ab@wb:ba@bw")))
def test_compose_matches_union_find(pair):
    top, bottom = pair
    got = compose(bottom, top)
    want = compose_by_union_find(bottom, top)
    assert got == want and type(got.partition) is Partition


def test_compose_refusals_match_union_find():
    white, black = parse_partition("a@w:a@w"), parse_partition("a@b:a@b")
    for bottom, top in (
        (parse_partition("a:a"), parse_partition("ab:ab")),
        (white, parse_partition("a:a")),
        (black, white),
    ):
        with pytest.raises((ArityError, ColorError)) as got:
            compose(bottom, top)
        with pytest.raises(got.type, match=re.escape(str(got.value))):
            compose_by_union_find(bottom, top)


def projective_from(q: Partition) -> Partition:
    """q* q, the canonical projective diagram attached to any q."""
    return compose(involution(q), q).partition


def stack_by_composition(s: Partition, m: Partition, q: Partition) -> Partition:
    """q* m s by two compositions, with an uncolored m lifted to white
    points between colored s and q: the oracle of the block-read stack."""
    if s.colored and not m.colored:
        m = m._replace(colors=("w",) * m.n_points)
    return compose(involution(q), compose(m, s).partition).partition


@st.composite
def projective_pairs(draw):
    """The projectives x* x and y* y of two diagrams with one upper row of
    at most MAX_PROJECTIVE_ARITY points, colored alike or uncolored.  y is
    drawn freely or composed below x; the latter puts y* y below x* x, so
    both answers of domination occur."""
    colored = draw(st.booleans())
    k = draw(st.integers(0, MAX_PROJECTIVE_ARITY))
    word = draw(color_rows(k)) if colored else None
    x = draw(partitions(colored, upper=k, upper_colors=word))
    if draw(st.booleans()):
        y = draw(partitions(colored, upper=k, upper_colors=word))
    else:
        y = compose(draw(below(x)), x).partition
    return projective_from(x), projective_from(y)


@settings(max_examples=80, deadline=None)
@given(chains())
def test_compose_associative_and_loops_add_up(chain):
    top, middle, bottom = chain
    upper, loops_upper = compose(middle, top)
    left, loops_left = compose(bottom, upper)
    lower, loops_lower = compose(bottom, middle)
    right, loops_right = compose(lower, top)
    assert left == right
    assert loops_upper + loops_left == loops_lower + loops_right


@settings(max_examples=80, deadline=None)
@given(chains())
def test_involution_reverses_composition(chain):
    top, bottom, _ = chain
    res, loops = compose(bottom, top)
    res_star, loops_star = compose(involution(top), involution(bottom))
    assert res_star == involution(res)
    assert loops_star == loops


@settings(max_examples=80, deadline=None)
@given(st.booleans().flatmap(lambda c: st.tuples(*[partitions(c)] * 3)))
def test_tensor_associative(triple):
    p, q, r = triple
    assert tensor(tensor(p, q), r) == tensor(p, tensor(q, r))


@settings(max_examples=80, deadline=None)
@given(any_partition)
def test_rotations_undo_each_other(p):
    for corner, back in (("ul", "ll"), ("ur", "lr")):
        if p.upper:
            assert rotate(rotate(p, corner), back) == p
        if p.lower:
            assert rotate(rotate(p, back), corner) == p


@pytest.mark.parametrize("colored", [False, True])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_through_block_decomposition_recomposes(colored, data):
    p = data.draw(partitions(colored))
    d = through_block_decomposition(p)
    assert d.recompose() == p
    assert stack_by_composition(d.upper_building, d.middle, d.lower_building) == p
    assert d.lower_building == upper_building(involution(p))
    assert is_building(d.lower_building) and is_building(d.upper_building)


@pytest.mark.parametrize("colored", [False, True])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_stack_matches_composition(colored, data):
    # building diagrams s and q of up to five upper points around free
    # middles m, several stacked on one frame; between colored ones each m
    # is either uncolored or white
    s, q = (
        upper_building(data.draw(partitions(colored, upper=k, max_lower=5)))
        for k in data.draw(st.tuples(st.integers(0, 5), st.integers(0, 5)))
    )
    middles = data.draw(
        st.lists(partitions(False, upper=s.lower, lower=q.lower), max_size=4)
    )
    if colored:
        middles = [
            m._replace(colors=("w",) * m.n_points)
            if data.draw(st.booleans())
            else m
            for m in middles
        ]
    want = [stack_by_composition(s, m, q) for m in middles]
    assert list(_stack(s, q, middles)) == want


@settings(max_examples=200, deadline=None)
@given(projective_pairs())
def test_domination_is_pq_equals_q(pair):
    for p, q in (pair, pair[::-1]):
        assert _dominator(p)(q) == (compose(p, q).partition == q)


# projective members with at most three through-blocks, by category and
# arity; ucol members are colored
GRAFT_POOLS = {
    name: [
        [p for p in projectives(CategorySpec.named(name), k) if stats(p).t <= 3]
        for k in range(5)
    ]
    for name in ("p", "p2", "ucol")
}


@st.composite
def graft_pairs(draw):
    pools = GRAFT_POOLS[draw(st.sampled_from(sorted(GRAFT_POOLS)))]
    return tuple(
        draw(st.sampled_from(pools[draw(st.integers(0, 4))])) for _ in range(2)
    )


@settings(max_examples=150, deadline=None)
@given(graft_pairs())
def test_grafts_are_distinct_and_keep_the_mixing_t(pair):
    # what fusion() rests on: for a fixed pair, distinct mixings give
    # distinct grafts, so nothing is deduplicated, and a graft has as many
    # through-blocks as its mixing diagram
    p, q = pair
    mixings = enumerate_mixing(stats(p).t, stats(q).t)
    grafts = _graft(p, q, mixings)
    assert len(set(grafts)) == len(grafts) == len(mixings)
    assert [stats(m).t for m in grafts] == [stats(h.partition).t for h in mixings]


def projective_by_composition(p: Partition) -> bool:
    """The definition p = p* = p² of a projective square diagram."""
    return p == involution(p) and compose(p, p).partition == p


@settings(max_examples=200, deadline=None)
@given(any_partition, projective_pairs())
def test_projectivity_is_p_star_equals_p_squared(p, pair):
    if p.upper != p.lower:
        with pytest.raises(ArityError):
            is_projective(p)
    else:
        assert is_projective(p) == projective_by_composition(p)
    for q in pair:
        assert is_projective(q) and projective_by_composition(q)


@settings(max_examples=80, deadline=None)
@given(any_partition)
def test_serialize_round_trip(p):
    assert parse_partition(serialize(p)) == p


@settings(max_examples=80, deadline=None)
@given(any_partition)
def test_ul_rotations_give_the_word(p):
    # the word: upper points right to left with flipped colors, then the
    # lower points left to right
    k, n = p.upper, p.n_points
    position = [k - 1 - x if x < k else x for x in range(n)]
    colors = None
    if p.colors is not None:
        flipped = [FLIP[c] for c in reversed(p.upper_colors())]
        colors = flipped + list(p.lower_colors())
    word = Partition.make(
        0, n, [[position[x] for x in b] for b in p.blocks], colors
    )
    q = p
    for _ in range(k):
        q = rotate(q, "ul")
    assert q == word
    # the word read off the blocks is the one-row diagram's, up to the
    # numbering of its labels
    labels, colors = _word(p)
    assert (_relabel(labels), colors) == (word.labels, word.colors)


@settings(max_examples=150, deadline=None)
@given(partitions(True, max_lower=2 * MAX_ROW), st.booleans())
def test_word_round_trip(p, colored):
    if not colored:
        p = Partition.make(p.upper, p.lower, p.blocks)
    word = _word(p)
    assert _from_word(word, p.upper) == p
    # a diagram of the word at every cut, each with that word
    for k in range(p.n_points + 1):
        labels, colors = _word(_from_word(word, k))
        assert (_relabel(labels), colors) == (_relabel(word[0]), word[1])


@settings(max_examples=80, deadline=None)
@given(partitions(True, upper=0, max_lower=2 * MAX_ROW))
def test_full_cyclic_turn_is_identity(word):
    # one turn: the first point goes up and round to the end of the row,
    # changing row twice, so its color comes back unchanged
    q = word
    for _ in range(word.lower):
        turned = rotate(rotate(q, "ll"), "ur")
        assert turned.colors == q.colors[1:] + q.colors[:1]
        q = turned
    assert q == word
