"""
Structural theory of diagrams: the through-block factorization and what is
built on it.

Every diagram p factors uniquely as p = q* r s where s and q are *building*
diagrams (each lower point sits in its own block, is connected upward, and
lower points are ordered by their smallest upper neighbour) and r is a
*through* diagram (a permutation written as vertical-free pairs).  The number
of through-blocks of p equals the middle arity of the factorization.  One
routine reads a building diagram off one row of p's labels: s off the upper
row and q off the lower row.  Every product q* m s of two building diagrams
around a middle m is read off the labels too, by one routine that reads the
frame (s, q) once for any number of middles.

Projective diagrams (symmetric idempotents, equivalently q* q for some q) are
partially ordered by domination: q is dominated by p when pq = q.  The order
reads straight off the labels: p dominates q exactly when the partition of
p's upper row refines that of q's and every non-through block of p is also a
block of q.  Tensor products of projectives are broken below by grafting
*mixing diagrams* between the through-block structures: one routine stacks
each mixing on the tensor of the two upper building diagrams, a frame read
once per pair, and :func:`mix` is its checked form for one mixing.  The
noncrossing mixings are the nested ones of :func:`square` and :func:`boxvert`.

Symmetry groups, the cross-arity equivalence of projectives, and the word
invariants for the even-block and colored-pair settings also live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial
from typing import Callable, Iterable, Iterator, Sequence

from .partition import (
    ArityError,
    ColorError,
    Partition,
    WHITE,
    all_blocks_even,
    is_pair,
    is_projective,
    stats,
    tensor,
    _relabel,
    _through,
)
from .categories import (
    BoundsExceededError,
    CategorySpec,
    contains,
    is_noncrossing_spec,
    projectives,
)

__all__ = [
    "ThroughBlockDecomposition",
    "MixingPartition",
    "Permutation",
    "through_block_decomposition",
    "dominates",
    "p_sigma",
    "sym_group",
    "equivalent",
    "enumerate_mixing",
    "mix",
    "square",
    "boxvert",
    "word_h",
    "word_u",
    "is_building",
    "is_through",
    "upper_building",
    "SYM_SEARCH_CAP",
    "MIXING_CAP",
]

Permutation = tuple[int, ...]
"""A permutation of 0..m-1 given as the tuple of images."""

SYM_SEARCH_CAP = 8
"""Largest through-block count for which the full permutation search runs."""

MIXING_CAP = 100_000
"""Largest number of mixing diagrams :func:`enumerate_mixing` will build;
(5, 5) has 19,091 and (6, 6) has 291,793."""


@dataclass(frozen=True)
class ThroughBlockDecomposition:
    """The unique triple (q, r, s) with source = q* r s.

    ``s`` rebuilds the upper row (a building diagram in P(k, t)), ``q`` the
    lower row (in P(l, t)), and ``r`` matches their through-blocks up (a
    through diagram in P(t, t)).
    """

    lower_building: Partition  # q
    middle: Partition  # r
    upper_building: Partition  # s

    def recompose(self) -> Partition:
        return next(
            _stack(self.upper_building, self.lower_building, [self.middle])
        )


@dataclass(frozen=True)
class MixingPartition:
    """A projective diagram grafted between two through-block structures.

    All blocks have size 2 or 4: vertical pairs (a, a'), upper pairs (a, b)
    and their mirrored lower pairs with a in the left part and b in the right
    part, and quadruples (a, a', b, b') across the parts.
    """

    left_arity: int
    right_arity: int
    partition: Partition


# ---------------------------------------------------------------------------
# building / through structure


def is_building(p: Partition) -> bool:
    """Lower points in distinct blocks, each connected upward, ordered by
    their smallest upper neighbour.  The upper row numbers its blocks from
    0 by smallest upper point, so the lower labels must rise, the last one
    an upper label."""
    k = p.upper
    low = p.labels[k:]
    if not low:
        return True
    return all(a < b for a, b in zip(low, low[1:])) and low[-1] in p.labels[:k]


def is_through(p: Partition) -> bool:
    """A permutation diagram: every block one upper and one lower point."""
    k = p.upper
    return (
        k == p.lower
        and p.labels[:k] == tuple(range(k))
        and sorted(p.labels[k:]) == list(range(k))
    )


def _building(row: tuple[int, ...], through: set[int], colors) -> Partition:
    """The building diagram of one row of a diagram: the row's labels,
    renumbered, with each block of ``through`` pinned to a fresh white lower
    point, in order of smallest point on the row.  ``colors`` are the row's
    colors, or None."""
    seen: dict[int, int] = {}
    upper = [seen.setdefault(x, len(seen)) for x in row]
    # seen lists the row's blocks in order of smallest point
    pins = [label for x, label in seen.items() if x in through]
    if colors is not None:
        colors = colors + (WHITE,) * len(pins)
    return Partition(len(row), len(pins), tuple(upper + pins), colors)


def upper_building(p: Partition) -> Partition:
    """The upper building diagram s of the factorization p = q* r s (for
    projective p, p = s* s): p's upper block structure with each
    through-block pinned to a fresh white lower point, in order of smallest
    upper point."""
    k = p.upper
    colors = None if p.colors is None else p.colors[:k]
    return _building(p.labels[:k], _through(p), colors)


def _stack(
    s: Partition, q: Partition, middles: Iterable[Partition]
) -> Iterator[Partition]:
    """q* m s, lazily for each m of ``middles``, for building diagrams s in
    P(k, a) and q in P(l, b) and middles in P(a, b), read off the labels.

    The frame is read once: the outer rows are s's upper row followed by
    q's, q's labels shifted past s's, and each point of a middle is pinned
    to the block of s or q that its building lower point belongs to; a
    building diagram's lower points lie in distinct blocks.  Each middle
    then costs one pass over its labels, which move each pinned block into
    the middle's block, and one renumbering of the outer rows.  No middle
    point is lost, so no loop is removed; colors come from the outer rows
    only."""
    k, l = s.upper, q.upper
    shift = s.n_blocks
    outer = s.labels[:k] + tuple([x + shift for x in q.labels[:l]])
    pins = s.labels[k:] + tuple([x + shift for x in q.labels[l:]])
    frame = list(range(shift + q.n_blocks))  # block -> its block in q* m s
    top = len(frame)  # a middle's labels go past every frame block
    colors = None if s.colors is None else s.colors[:k] + q.colors[:l]
    for m in middles:
        into = frame.copy()
        for x, label in zip(pins, m.labels):
            into[x] = top + label
        yield Partition(k, l, _relabel(map(into.__getitem__, outer)), colors)


def through_block_decomposition(p: Partition) -> ThroughBlockDecomposition:
    """Factor p = q* r s through its through-blocks.

    s is the building diagram of p's upper row and q that of its lower row
    (so q is :func:`upper_building` of p turned over); the middle diagram r
    joins the i-th through-block by smallest upper point to its rank by
    smallest lower point.
    """
    k = p.upper
    up, low = p.labels[:k], p.labels[k:]
    colors = p.colors
    through = _through(p)
    # the through labels by smallest lower point; by label, they are in order
    # of smallest upper point
    by_lower = [x for x in dict.fromkeys(low) if x in through]
    sigma = tuple(map(by_lower.index, sorted(by_lower)))
    return ThroughBlockDecomposition(
        _building(low, through, None if colors is None else colors[k:]),
        to_through_partition(sigma, p.colored),
        _building(up, through, None if colors is None else colors[:k]),
    )


# ---------------------------------------------------------------------------
# domination order


def dominates(p: Partition, q: Partition) -> bool:
    """True when pq = q (equivalently qp = q): q sits below p.

    Decided on the labels: the partition of p's upper row refines that of
    q's, and every non-through block of p is also a block of q.  Library
    loops read each dominator once (:func:`_dominator`) and test many q.
    """
    if p.upper != p.lower or q.upper != q.lower:
        raise ArityError("domination needs square diagrams")
    if p.upper != q.upper:
        raise ArityError("domination compares equal arities")
    if not (is_projective(p) and is_projective(q)):
        raise ValueError("domination is defined for projective diagrams only")
    if p.colored != q.colored:
        raise ColorError("domination compares colored with uncolored")
    if p.colors != q.colors:
        raise ColorError("domination compares equal color words only")
    return _dominator(p)(q)


def _dominator(p: Partition) -> Callable[[Partition], bool]:
    """The test "p dominates m", p read once for any number of m that the
    caller knows to be projective of p's arity with p's color word (members
    of ``projectives()`` filtered by color, or checked once at entry), so
    the test skips the re-check and reads no colors.

    m carries one label on each pair of points of an upper block of p
    (refinement).  A projective diagram's upper block goes through exactly
    when its mirror point carries its label.  A block of p that does not go
    through, with first point i and s points, is a block of m: m's label at
    i does not go through and sits on exactly s upper points.
    """
    k = p.upper
    up = p.labels[:k]
    first = {x: up.index(x) for x in up}
    pairs = [(first[x], i) for i, x in enumerate(up) if first[x] != i]
    solo = [(i, up.count(x)) for x, i in first.items() if p.labels[k + i] != x]

    def below(m: Partition) -> bool:
        ml = m.labels
        for i, j in pairs:
            if ml[i] != ml[j]:
                return False
        for i, s in solo:
            y = ml[i]
            if ml[k + i] == y or ml[:k].count(y) != s:
                return False
        return True

    return below


def _dominated_members(spec: CategorySpec, p: Partition) -> list[Partition]:
    """Projective members strictly below p, a projective member that the
    caller has checked: the members of p's color word that p dominates."""
    pool = projectives(spec, p.upper)
    if p.colored:
        word = p.upper_colors()
        pool = [q for q in pool if q.upper_colors() == word]
    return [q for q in filter(_dominator(p), pool) if q != p]


# ---------------------------------------------------------------------------
# permutations inside projective diagrams


def to_through_partition(sigma: Permutation, colored: bool = False) -> Partition:
    """The through diagram of a permutation: upper i joins lower sigma(i).

    Trusts sigma to be a permutation of 0..m-1: the library builds its own,
    and :func:`p_sigma` checks the one a caller hands in."""
    m = len(sigma)
    lower = sorted(range(m), key=sigma.__getitem__)  # the inverse of sigma
    colors = (WHITE,) * (2 * m) if colored else None
    return Partition(m, m, tuple(range(m)) + tuple(lower), colors)


def _sigmas(spec: CategorySpec, t: int) -> Iterable[Permutation]:
    """The permutations a witness search tries.

    In a noncrossing category every permutation but the identity makes
    q_u* r_sigma p_u cross, so only the identity is tried; elsewhere all
    t! permutations are, up to :data:`SYM_SEARCH_CAP` through-blocks, past
    which the search raises :class:`~particat.categories.BoundsExceededError`.
    """
    if is_noncrossing_spec(spec):
        return [tuple(range(t))]
    if t > SYM_SEARCH_CAP:
        raise BoundsExceededError(
            f"through-block count {t} exceeds the search cap {SYM_SEARCH_CAP}"
        )
    return permutations(range(t))


def p_sigma(p: Partition, sigma: Permutation) -> Partition:
    """Insert the permutation between the two halves of a projective p."""
    if not is_projective(p):
        raise ValueError("p must be projective")
    t = stats(p).t
    if len(sigma) != t:
        raise ArityError(
            f"permutation acts on {len(sigma)} strands, p has {t} through-blocks"
        )
    if sorted(sigma) != list(range(t)):
        raise ValueError(f"not a permutation of 0..{t - 1}: {sigma}")
    pu = upper_building(p)
    return next(_stack(pu, pu, [to_through_partition(sigma)]))


def sym_group(spec: CategorySpec, p: Partition) -> list[Permutation]:
    """All permutations sigma with p_sigma still in the category.

    Always a subgroup of the full symmetric group on the through-blocks.
    In a noncrossing category it is the trivial group: p_sigma crosses for
    every sigma but the identity, so only the identity is tried.  Raises
    ``ValueError`` unless p is a projective member with a through-block.
    """
    if not is_projective(p):
        raise ValueError("the symmetry group is defined for projective diagrams")
    if not contains(spec, p):
        raise ValueError("p does not belong to the category")
    t = stats(p).t
    if t == 0:
        raise ValueError("the symmetry group needs at least one through-block")
    pu = upper_building(p)
    sigmas = list(_sigmas(spec, t))
    stacked = _stack(pu, pu, map(to_through_partition, sigmas))
    return [sigma for sigma, m in zip(sigmas, stacked) if contains(spec, m)]


def equivalent(spec: CategorySpec, p: Partition, q: Partition) -> bool:
    """Whether some r in the category has r*r = p and rr* = q.

    Any witness has the form q_u* r_sigma p_u, so the search runs over
    permutations sigma of the through-blocks.  In a noncrossing category
    every witness but the one of the identity crosses, so a single test
    decides.
    """
    if not (is_projective(p) and is_projective(q)):
        raise ValueError("equivalence is defined for projective diagrams")
    if not (contains(spec, p) and contains(spec, q)):
        raise ValueError("both diagrams must belong to the category")
    return p == q or _equivalent(spec, upper_building(p), upper_building(q))


def _equivalent(spec: CategorySpec, pu: Partition, qu: Partition) -> bool:
    """:func:`equivalent` for distinct projective members p and q, read off
    their upper building diagrams ``pu`` and ``qu``, so a caller comparing
    many pairs builds them once per member."""
    t = pu.lower
    if qu.lower != t:
        return False
    witnesses = _stack(pu, qu, map(to_through_partition, _sigmas(spec, t)))
    return any(contains(spec, r) for r in witnesses)


def _equivalence_classes(
    spec: CategorySpec, members: Iterable[Partition]
) -> list[list[Partition]]:
    """Projective members grouped by :func:`equivalent`, each compared with
    the first member of every class so far; classes and their members keep
    the order of first appearance.  So a pool sorted by
    :meth:`~particat.partition.Partition.sort_key`, as
    :func:`~particat.categories.projectives` returns it, puts each class's
    canonical representative first."""
    classes: list[list[Partition]] = []
    heads: list[Partition] = []  # upper building of each class's first member
    for p in members:
        pu = upper_building(p)
        for head, cls in zip(heads, classes):
            if _equivalent(spec, head, pu):
                cls.append(p)
                break
        else:
            classes.append([p])
            heads.append(pu)
    return classes


# ---------------------------------------------------------------------------
# mixing diagrams


def _mixing_from_pairs(
    k: int,
    l: int,
    pairs: Sequence[tuple[int, int]],
    closed: Sequence[bool],
) -> MixingPartition:
    """Assemble the diagram from cross pairs; columns not in a pair stay
    vertical.  Column c's upper and lower points start with label c; a pair
    (a, b) gives b's upper point a's label and its two lower points a's
    label when closed, else a fresh one."""
    n = k + l
    labels = list(range(n)) * 2
    for (a, b), quad in zip(pairs, closed):
        labels[b] = a
        labels[n + a] = labels[n + b] = a if quad else n + a
    return MixingPartition(k, l, Partition(n, n, _relabel(labels)))


def enumerate_mixing(k: int, l: int) -> list[MixingPartition]:
    """All (k, l)-mixing diagrams, generated shape-first.

    A mixing diagram is determined by a partial matching of left columns to
    right columns plus an open/closed flag per matched pair: open pairs give
    an upper pair and its mirrored lower pair, closed pairs give a quadruple,
    and unmatched columns stay vertical.  Raises
    :class:`~particat.categories.BoundsExceededError` before building
    anything when there are more than :data:`MIXING_CAP` of them.
    """
    count = _mixing_count(k, l)
    if count > MIXING_CAP:
        raise BoundsExceededError(
            f"({k}, {l}) has {count} mixing diagrams, above the cap {MIXING_CAP}"
        )
    out = []
    for m in range(min(k, l) + 1):
        for left in combinations(range(k), m):
            for right in combinations(range(k, k + l), m):
                for image in permutations(right):
                    for flags in product((False, True), repeat=m):
                        out.append(
                            _mixing_from_pairs(
                                k, l, list(zip(left, image)), flags
                            )
                        )
    return out


def _mixing_count(k: int, l: int) -> int:
    """Number of (k, l)-mixing diagrams: m matched pairs chosen on each
    side, matched up in m! ways, each pair open or closed."""
    return sum(
        comb(k, m) * comb(l, m) * factorial(m) * 2**m
        for m in range(min(k, l) + 1)
    )


@lru_cache(maxsize=64)
def _nested_mixings(k: int, l: int) -> tuple[MixingPartition, ...]:
    """The 2 min(k, l) + 1 noncrossing (k, l)-mixing diagrams: a nested
    pairs join the rightmost a left columns to the leftmost a right ones,
    all open at index 2a and, for a >= 1, with the outermost pair closed at
    index 2a - 1 (closing an inner pair would cross).  Built once per
    (k, l) among the 64 last asked for, as an immutable tuple."""
    out = []
    for a in range(min(k, l) + 1):
        pairs = [(k - a + i, k + a - 1 - i) for i in range(a)]
        if a:
            out.append(_mixing_from_pairs(k, l, pairs, [True] + [False] * (a - 1)))
        out.append(_mixing_from_pairs(k, l, pairs, [False] * a))
    return tuple(out)


def _graft(
    p: Partition, q: Partition, mixings: Iterable[MixingPartition]
) -> list[Partition]:
    """Stack each mixing diagram h between the upper building diagrams of p
    and q: with s their tensor, the graft is s* h s, all on one frame read
    once per pair.  Distinct mixings give distinct grafts.  The caller has
    checked that every mixing has arities (t(p), t(q))."""
    s = tensor(upper_building(p), upper_building(q))
    return list(_stack(s, s, [h.partition for h in mixings]))


def mix(p: Partition, q: Partition, h: MixingPartition) -> Partition:
    """Graft h between the through-block structures of p and q.

    The result is projective, dominated by p tensor q, and distinct triples
    (p, q, h) give distinct results.  Raises ``ArityError`` unless h is a
    (t(p), t(q))-mixing diagram.
    """
    tp, tq = stats(p).t, stats(q).t
    if (h.left_arity, h.right_arity) != (tp, tq):
        raise ArityError(
            f"mixing diagram is ({h.left_arity}, {h.right_arity}) "
            f"but through-block counts are ({tp}, {tq})"
        )
    return _graft(p, q, [h])[0]


def square(p: Partition, q: Partition, a: int) -> Partition:
    """Cancel the a innermost through-blocks of p against those of q.

    Through-block count drops by 2a: t(result) = t(p) + t(q) - 2a.
    """
    tp, tq = stats(p).t, stats(q).t
    if not 0 <= a <= min(tp, tq):
        raise ArityError(f"depth {a} out of range for t = ({tp}, {tq})")
    return _graft(p, q, [_nested_mixings(tp, tq)[2 * a]])[0]


def boxvert(p: Partition, q: Partition, a: int) -> Partition:
    """Cancel a-1 through-block pairs and merge the innermost pair into one.

    Through-block count becomes t(p) + t(q) - 2a + 1; needs a >= 1.
    """
    tp, tq = stats(p).t, stats(q).t
    if not 1 <= a <= min(tp, tq):
        raise ArityError(f"depth {a} out of range for t = ({tp}, {tq})")
    return _graft(p, q, [_nested_mixings(tp, tq)[2 * a - 1]])[0]


# ---------------------------------------------------------------------------
# word invariants


def word_h(p: Partition) -> str:
    """One letter per through-block, left to right by smallest upper point:
    '0' for blocks of size divisible by four, '1' otherwise."""
    if not is_projective(p):
        raise ValueError("word invariants need a projective diagram")
    if not all_blocks_even(p):
        raise ValueError("all blocks must have even size")
    # in label order, the through-blocks come by smallest upper point
    sizes = [p.labels.count(x) for x in sorted(_through(p))]
    return "".join("0" if size % 4 == 0 else "1" for size in sizes)


def word_u(p: Partition) -> str:
    """Upper colors of the through-pairs, left to right, as a w/b string.

    Dropping the non-through pairs of a projective colored pair diagram
    leaves vertical through-pairs only; their color sequence is a complete
    equivalence invariant in the colored pair setting.
    """
    if not is_projective(p):
        raise ValueError("word invariants need a projective diagram")
    if p.colors is None:
        raise ColorError("the alternating word needs a colored diagram")
    if not is_pair(p):
        raise ValueError("the alternating word needs a pair diagram")
    # a through-pair's first point is its upper point
    return "".join(p.colors[p.labels.index(x)] for x in sorted(_through(p)))
