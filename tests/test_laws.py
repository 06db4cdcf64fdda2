"""Algebraic laws of the diagram operations, as hypothesis properties.

Besides the category laws this checks the two facts the one-row closure
rests on: k ``ul`` rotations take a diagram in P(k, l) to its word in
P(0, k + l), and a full cyclic turn of a colored word is the identity.
"""

from hypothesis import given, settings, strategies as st

from particat.partition import (
    Partition,
    compose,
    involution,
    parse_partition,
    rotate,
    serialize,
    tensor,
)

MAX_ROW = 3
FLIP = {"w": "b", "b": "w"}


def color_rows(n: int):
    return st.lists(st.sampled_from("wb"), min_size=n, max_size=n)


@st.composite
def partitions(draw, colored, upper=None, upper_colors=None, max_lower=MAX_ROW):
    """A diagram with at most MAX_ROW upper and ``max_lower`` lower points;
    ``upper`` and ``upper_colors`` pin its upper row so that it can sit
    below another."""
    k = draw(st.integers(0, MAX_ROW)) if upper is None else upper
    l = draw(st.integers(0, max_lower))
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
