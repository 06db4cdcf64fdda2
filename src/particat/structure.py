"""
Structural theory of diagrams: the through-block factorization and what is
built on it.

Every diagram p factors uniquely as p = q* r s where s and q are *building*
diagrams (each lower point sits in its own block, is connected upward, and
lower points are ordered by their smallest upper neighbour) and r is a
*through* diagram (a permutation written as vertical-free pairs).  The number
of through-blocks of p equals the middle arity of the factorization.  One
routine, :func:`upper_building`, reads a building diagram off p's blocks:
s is that of p and q that of p turned over.  Every product q* m s of two
building diagrams around a middle m is read off the blocks too, by one
routine that reads the frame (s, q) once for any number of middles.

Projective diagrams (symmetric idempotents, equivalently q* q for some q) are
partially ordered by domination: q is dominated by p when pq = q.  The order
reads straight off the blocks: p dominates q exactly when the partition of
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
from typing import Iterable, Iterator, Sequence

from .partition import (
    ArityError,
    ColorError,
    Partition,
    WHITE,
    all_blocks_even,
    involution,
    is_pair,
    is_projective,
    stats,
    tensor,
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
    their smallest upper neighbour."""
    k = p.upper
    owner = p.block_of()
    seen: set[int] = set()
    mins: list[int] = []
    for j in range(p.lower):
        b = owner[k + j]
        if b in seen:
            return False
        seen.add(b)
        ups = [x for x in p.blocks[b] if x < k]
        if not ups:
            return False
        mins.append(min(ups))
    return all(a < b for a, b in zip(mins, mins[1:]))


def is_through(p: Partition) -> bool:
    """A permutation diagram: every block one upper and one lower point."""
    if p.upper != p.lower:
        return False
    return all(
        len(b) == 2 and b[0] < p.upper <= b[1] for b in p.blocks
    )


def upper_building(p: Partition) -> Partition:
    """The upper building diagram s of the factorization p = q* r s (for
    projective p, p = s* s): p's upper block structure with each
    through-block pinned to a fresh white lower point, in order of smallest
    upper point."""
    k = p.upper
    blocks = []
    t = 0
    # canonical order puts the blocks meeting the upper row first, by their
    # smallest upper point; pinning keeps that order, so s is canonical
    for b in p.blocks:
        if b[0] >= k:
            break
        if b[-1] >= k:
            b = tuple(x for x in b if x < k) + (k + t,)
            t += 1
        blocks.append(b)
    colors = None if p.colors is None else p.colors[:k] + (WHITE,) * t
    return Partition(k, t, tuple(blocks), colors)


def _stack(
    s: Partition, q: Partition, middles: Iterable[Partition]
) -> Iterator[Partition]:
    """q* m s, lazily for each m of ``middles``, for building diagrams s in
    P(k, a) and q in P(l, b) and middles in P(a, b), read off the blocks.

    The frame is read once: the blocks of s and q that do not go through
    stay on their rows (q's shifted by k to the lower row), and each point
    of a middle is pinned to the upper points that s or q joins to it.  Each
    middle then costs one pass over its own blocks, each of which joins the
    points pinned to its points.  No middle point is lost, so no loop is
    removed; colors come from the outer rows only."""
    k, a, l = s.upper, s.lower, q.upper
    pins: list[tuple[int, ...]] = [()] * (a + q.lower)  # by point of a middle
    fixed = []
    for b in s.blocks:
        if b[-1] >= k:  # a building block ends in its one lower point
            pins[b[-1] - k] = b[:-1]
        else:
            fixed.append(b)
    for b in q.blocks:
        shifted = tuple(x + k for x in b)
        if b[-1] >= l:
            pins[a + b[-1] - l] = shifted[:-1]
        else:
            fixed.append(shifted)
    colors = None if s.colors is None else s.colors[:k] + q.colors[:l]
    pin = pins.__getitem__
    for m in middles:
        # a middle block has few points: adding their pin tuples measured
        # faster than chaining them
        blocks = fixed + [tuple(sorted(sum(map(pin, b), ()))) for b in m.blocks]
        blocks.sort()
        yield Partition(k, l, tuple(blocks), colors)


def _through_blocks(p: Partition) -> list[tuple[int, ...]]:
    """p's through-blocks in canonical order, that is by smallest upper point."""
    k = p.upper
    return [b for b in p.blocks if b[0] < k and b[-1] >= k]


def through_block_decomposition(p: Partition) -> ThroughBlockDecomposition:
    """Factor p = q* r s through its through-blocks.

    s is :func:`upper_building` of p and q that of p turned over; the middle
    diagram r joins the i-th through-block by smallest upper point to its
    rank by smallest lower point.
    """
    k = p.upper
    lows = [next(x for x in b if x >= k) for b in _through_blocks(p)]
    order = sorted(lows)
    r = to_through_partition(tuple(order.index(x) for x in lows), p.colored)
    return ThroughBlockDecomposition(
        upper_building(involution(p)), r, upper_building(p)
    )


# ---------------------------------------------------------------------------
# domination order


def _check_projective_pair(p: Partition, q: Partition) -> None:
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


def dominates(p: Partition, q: Partition) -> bool:
    """True when pq = q (equivalently qp = q): q sits below p.

    Decided on the blocks: the partition of p's upper row refines that of
    q's, and every non-through block of p is also a block of q.
    """
    _check_projective_pair(p, q)
    return _dominates(p, q, q.block_of())


def _dominates(p: Partition, q: Partition, owner: list[int]) -> bool:
    """:func:`dominates` for callers that already know p and q are
    projective of one arity with equal color words (members of
    ``projectives()`` filtered by color, or checked once at entry), so inner
    loops skip the re-check.  Colors are not read.  ``owner`` is
    ``q.block_of()``, which a caller testing q against many p builds once.

    One scan over p's blocks that meet the upper row, which canonical order
    puts first: each must keep its upper points inside one block of q, and
    one that does not go through must be a block of q.
    """
    k = p.upper
    for b in p.blocks:
        first = b[0]
        if first >= k:
            break
        i = owner[first]
        if b[-1] < k:
            if q.blocks[i] != b:
                return False
            continue
        for x in b:
            if x >= k:
                break
            if owner[x] != i:
                return False
    return True


def _dominated_members(spec: CategorySpec, p: Partition) -> list[Partition]:
    """Projective members strictly below p, a projective member that the
    caller has checked: the members of p's color word that p dominates."""
    pool = projectives(spec, p.upper)
    if p.colored:
        word = p.upper_colors()
        pool = [q for q in pool if q.upper_colors() == word]
    return [q for q in pool if q != p and _dominates(p, q, q.block_of())]


# ---------------------------------------------------------------------------
# permutations inside projective diagrams


def to_through_partition(sigma: Permutation, colored: bool = False) -> Partition:
    """The through diagram of a permutation: upper i joins lower sigma(i).

    Trusts sigma to be a permutation of 0..m-1: the library builds its own,
    and :func:`p_sigma` checks the one a caller hands in."""
    m = len(sigma)
    blocks = tuple((i, m + sigma[i]) for i in range(m))
    return Partition(m, m, blocks, (WHITE,) * (2 * m) if colored else None)


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
    """Assemble the diagram from cross pairs; columns not in a pair stay vertical."""
    n = k + l
    in_pair = {c for ab in pairs for c in ab}
    blocks: list[tuple[int, ...]] = []
    for c in range(n):
        if c not in in_pair:
            blocks.append((c, n + c))
    for (a, b), quad in zip(pairs, closed):
        if quad:
            blocks.append((a, b, n + a, n + b))
        else:
            blocks.append((a, b))
            blocks.append((n + a, n + b))
    blocks.sort()  # each block ascends; order them by smallest point
    return MixingPartition(k, l, Partition(n, n, tuple(blocks)))


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
    return "".join(
        "0" if len(b) % 4 == 0 else "1" for b in _through_blocks(p)
    )


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
    assert p.colors is not None
    return "".join(p.colors[b[0]] for b in _through_blocks(p))
