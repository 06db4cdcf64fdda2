"""
Two-row set partitions and the four diagram operations.

A partition diagram has k upper points and l lower points; the k+l points are
split into nonempty blocks, and blocks may connect the two rows.  Internally
the upper points get ids 0..k-1 (left to right) and the lower points get ids
k..k+l-1 (left to right).  A diagram is a named tuple of its row sizes,
blocks and colors, kept in a canonical form: blocks are sorted internally,
and the block list is ordered by first appearance when scanning the upper row
left to right and then the lower row left to right.  Two diagrams are equal,
and hash alike, exactly when their canonical forms are.

The text grammar is ``<upper-word>[@<upper-colors>]:<lower-word>[@<lower-colors>]``
where the words are letter strings, the same letter denoting the same block
across both rows, and color strings are over ``{w, b}``.  Examples::

    a:a         the identity strand
    aab:accc    a three-block diagram in P(3, 4)
    ab@wb:ba@bw a colored crossing
    :           the empty diagram

Composition stacks one diagram on top of another.  ``compose(bottom, top)``
glues the lower row of ``top`` to the upper row of ``bottom`` and returns the
result together with the number of removed loops, i.e. connected components
of the gluing that consist of middle points only.  Each such loop contributes
a factor N in the associated matrix calculus, so the count is tracked exactly.

Rotation maps P(k, l) one-to-one onto P(0, k + l), so a diagram is its
one-row word.  Composing glues two words (the one gluing routine, which the
closure of :mod:`particat.categories` shares), and rotating reads the word
back with the cut between the rows moved one point.

Points may optionally carry a color (``w`` or ``b``); colored and uncolored
diagrams never mix.  Colors travel with their points under every operation
and flip when a point changes row under rotation.
"""

from __future__ import annotations

import string
from itertools import chain
from typing import Iterable, Literal, NamedTuple, Optional, Sequence

__all__ = [
    "Partition",
    "PartitionStats",
    "CompositionResult",
    "GrammarError",
    "ArityError",
    "ColorError",
    "tensor",
    "compose",
    "involution",
    "rotate",
    "stats",
    "conjugate_colors",
    "is_noncrossing",
    "is_pair",
    "all_blocks_even",
    "blocks_at_most_two",
    "is_projective",
    "identity",
    "parse_partition",
    "serialize",
    "empty_partition",
    "all_set_partitions",
    "random_partition",
]

WHITE = "w"
BLACK = "b"

Corner = Literal["ul", "ll", "ur", "lr"]


class GrammarError(ValueError):
    """Raised on malformed partition text; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ArityError(ValueError):
    """Raised when row counts do not match the requested operation."""


class ColorError(ValueError):
    """Raised on colored/uncolored mismatches or bad color data."""


def _flip(color: str) -> str:
    return BLACK if color == WHITE else WHITE


class Partition(NamedTuple):
    """An immutable two-row set partition, always in canonical form.

    Attributes:
        upper:  number of upper points k.
        lower:  number of lower points l.
        blocks: tuple of blocks; each block is an ascending tuple of point
                ids in 0..k+l-1 (ids < k are upper).  Blocks are ordered by
                their minimal id.
        colors: ``None`` for an uncolored diagram, else a tuple of 'w'/'b'
                of length k+l (one entry per point).

    A named tuple: immutability, equality and the hash all come from the
    four fields.  The constructor trusts its arguments to be canonical
    already and checks nothing: the library builds with it where blocks are
    canonical by construction (tuples, never lists).  Block lists handed in
    by callers go through :meth:`make`, which validates and canonicalizes
    them.
    """

    upper: int
    lower: int
    blocks: tuple[tuple[int, ...], ...]
    colors: Optional[tuple[str, ...]] = None

    @staticmethod
    def make(
        upper: int,
        lower: int,
        blocks: Iterable[Iterable[int]],
        colors: Optional[Sequence[str]] = None,
    ) -> "Partition":
        """Validate and canonicalize the raw blocks that callers hand in,
        which must list each point exactly once, into a Partition."""
        if upper < 0 or lower < 0:
            raise ArityError(f"row sizes must be nonnegative, got {upper}, {lower}")
        n = upper + lower
        norm = sorted(map(tuple, map(sorted, blocks)))
        if norm and not norm[0]:  # an empty block sorts first
            raise ValueError("empty block")
        points = sorted(chain.from_iterable(norm))
        if points != list(range(n)):
            raise ValueError(
                f"blocks must partition the {n} points exactly, got {points}"
            )
        col: Optional[tuple[str, ...]] = None
        if colors is not None:
            col = tuple(colors)
            if len(col) != n:
                raise ColorError(f"expected {n} colors, got {len(col)}")
            bad = [c for c in col if c not in (WHITE, BLACK)]
            if bad:
                raise ColorError(f"colors must be 'w' or 'b', got {bad[0]!r}")
        return Partition(upper, lower, tuple(norm), col)

    @property
    def n_points(self) -> int:
        return self.upper + self.lower

    @property
    def colored(self) -> bool:
        return self.colors is not None

    def block_of(self) -> list[int]:
        """Map point id -> index of its block in canonical order."""
        owner = [-1] * self.n_points
        for i, b in enumerate(self.blocks):
            for x in b:
                owner[x] = i
        return owner

    def upper_colors(self) -> tuple[str, ...]:
        if self.colors is None:
            raise ColorError("partition is uncolored")
        return self.colors[: self.upper]

    def lower_colors(self) -> tuple[str, ...]:
        if self.colors is None:
            raise ColorError("partition is uncolored")
        return self.colors[self.upper :]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Partition({serialize(self)!r})"

    def __str__(self) -> str:
        return serialize(self)

    def sort_key(self) -> tuple[int, int, str]:
        """Total order used for deterministic enumeration everywhere."""
        return (self.n_points, self.upper, serialize(self))


class PartitionStats(NamedTuple):
    """Block counts: b blocks, t through-blocks, beta = b - t."""

    b: int
    t: int
    beta: int


class CompositionResult(NamedTuple):
    """Pair (partition, removed_loops) returned by :func:`compose`."""

    partition: Partition
    removed_loops: int


# ---------------------------------------------------------------------------
# construction helpers


def empty_partition(colored: bool = False) -> Partition:
    """The diagram with no points at all; unit for the tensor product."""
    return Partition(0, 0, (), () if colored else None)


def identity(k: int, colors: Optional[Sequence[str]] = None) -> Partition:
    """k vertical strands; optional per-strand colors (same on both ends)."""
    blocks = tuple((i, k + i) for i in range(k))
    if colors is None:
        return Partition(k, k, blocks)
    return Partition.make(k, k, blocks, tuple(colors) * 2)


# ---------------------------------------------------------------------------
# one-row words

# A one-row word: a block label per point, each below the word's length, and
# the point colors (None in uncolored mode).  Words that differ only in the
# numbering of their labels stand for one diagram; a canonical word numbers
# them by first appearance (:func:`_relabel`).
Word = tuple[tuple[int, ...], Optional[tuple[str, ...]]]


def _relabel(labels: Iterable[int]) -> tuple[int, ...]:
    """Number the labels by first appearance."""
    seen: dict[int, int] = {}
    return tuple([seen.setdefault(x, len(seen)) for x in labels])


def _word(p: Partition) -> Word:
    """The word of ``p``, the diagram in P(0, k + l) that k ``ul`` rotations
    take it to, read off the blocks and labelled by block index: the upper
    points right to left with flipped colors, then the lower points left to
    right."""
    k = p.upper
    owner = p.block_of()
    colors = p.colors
    if colors is not None:
        colors = tuple(map(_flip, colors[:k][::-1])) + colors[k:]
    return tuple(owner[:k][::-1] + owner[k:]), colors


def _from_word(word: Word, k: int) -> Partition:
    """The diagram with k upper points whose word is ``word``; for each k
    from 0 to the word's length, the inverse of :func:`_word` up to the
    numbering of the labels."""
    labels, colors = word
    blocks: dict[int, list[int]] = {}
    # scanning the points in id order lists each block ascending and the
    # blocks by their least point, so the blocks come out canonical
    for x, label in enumerate(labels[:k][::-1] + labels[k:]):
        blocks.setdefault(label, []).append(x)
    if colors is not None:
        colors = tuple(map(_flip, colors[:k][::-1])) + colors[k:]
    return Partition(k, len(labels) - k, tuple(map(tuple, blocks.values())), colors)


def _glue(x: Word, y: Word, m: int) -> Optional[tuple[Word, int]]:
    """Glue the last m points of x to the first m points of y, x[a-1-i] to
    y[i], and keep the rest: x[:a-m] followed by y[m:].  Returns the glued
    word, canonical, and the number of glued pairs that merged two blocks.

    This is composition in one-row form.  Blocks that meet merge, and
    components made of glued points only vanish (they are the removed loops).
    In colored mode the two points of each glued pair need opposite colors;
    otherwise there is no gluing and None is returned.
    """
    xs, xc = x
    ys, yc = y
    a = len(xs)
    if xc is not None:
        assert yc is not None
        for i in range(m):
            if xc[a - 1 - i] == yc[i]:
                return None
    # union-find over the blocks: x's labels, then y's shifted by a (a label
    # is below its word's length)
    parent = list(range(a + len(ys)))
    merges = 0
    for i in range(m):
        r = xs[a - 1 - i]
        while parent[r] != r:
            r = parent[r]
        s = ys[i] + a
        while parent[s] != s:
            s = parent[s]
        if r != s:
            parent[s] = r
            merges += 1
    kept = list(xs[: a - m]) + [v + a for v in ys[m:]]
    for i, v in enumerate(kept):
        while parent[v] != v:
            v = parent[v]
        kept[i] = v
    colors = None if xc is None else xc[: a - m] + yc[m:]
    return (_relabel(kept), colors), merges


# ---------------------------------------------------------------------------
# the four category operations


def tensor(p: Partition, q: Partition) -> Partition:
    """Horizontal concatenation: q is placed to the right of p."""
    if p.colored != q.colored:
        raise ColorError("cannot tensor colored with uncolored")
    k, l = p.upper, p.lower
    k2, l2 = q.upper, q.lower

    def shift(x: int) -> int:
        # q's upper points slide right by k, its lower points by k + l
        return x + k if x < k2 else x + k + l

    blocks = [tuple(x if x < k else x + k2 for x in b) for b in p.blocks]
    blocks += [tuple(shift(x) for x in b) for b in q.blocks]
    blocks.sort()
    colors = None
    if p.colored:
        assert p.colors is not None and q.colors is not None
        colors = (
            p.colors[:k] + q.colors[:k2] + p.colors[k:] + q.colors[k2:]
        )
    return Partition(k + k2, l + l2, tuple(blocks), colors)


def compose(bottom: Partition, top: Partition) -> CompositionResult:
    """Stack ``top`` over ``bottom`` and read off the glued diagram.

    Requires ``top.lower == bottom.upper``; the shared points become middle
    points and are removed.  The result lives in P(top.upper, bottom.lower).
    Removed loops are the connected components of the gluing consisting of
    middle points only (an isolated middle point counts as one loop).

    The words of the two diagrams are glued over the middle points
    (:func:`_glue`).  Each gluing that merges two blocks removes one, so the
    blocks that are neither merged away nor left in the result are the loops.
    """
    if top.lower != bottom.upper:
        raise ArityError(
            f"cannot compose: top has {top.lower} lower points, "
            f"bottom has {bottom.upper} upper points"
        )
    if top.colored != bottom.colored:
        raise ColorError("cannot compose colored with uncolored")
    if top.colored and top.lower_colors() != bottom.upper_colors():
        raise ColorError("middle-row colors do not match")
    glued = _glue(_word(top), _word(bottom), top.lower)
    assert glued is not None  # the middle colors match
    word, merges = glued
    p = _from_word(word, top.upper)
    loops = len(top.blocks) + len(bottom.blocks) - merges - len(p.blocks)
    return CompositionResult(p, loops)


def involution(p: Partition) -> Partition:
    """Turn the diagram upside down; colors stay attached to their points."""
    k, l = p.upper, p.lower

    def swap(x: int) -> int:
        return x + l if x < k else x - k

    blocks = sorted(tuple(sorted(swap(x) for x in b)) for b in p.blocks)
    colors = None
    if p.colored:
        assert p.colors is not None
        colors = p.colors[k:] + p.colors[:k]
    return Partition(l, k, tuple(blocks), colors)


def rotate(p: Partition, corner: Corner) -> Partition:
    """Move one outermost point to the other row, keeping all strings.

    ``ul``: leftmost upper point becomes leftmost lower point.
    ``ll``: leftmost lower point becomes leftmost upper point.
    ``ur``: rightmost upper point becomes rightmost lower point.
    ``lr``: rightmost lower point becomes rightmost upper point.

    A rotation keeps the word (:func:`_word`) and moves the cut between the
    rows: the word is read back with one upper point fewer (``u*``) or more
    (``l*``).  At a right corner the word is first turned by one point, its
    first point going to the end (``ur``) or its last to the front
    (``lr``).  In colored mode the moved point's color flips, since the word
    holds upper colors flipped.
    """
    up = corner[0] == "u"
    if (p.upper if up else p.lower) == 0:
        raise ArityError(f"{'upper' if up else 'lower'} row is empty")
    labels, colors = _word(p)
    if corner[1] != "l":
        i = 1 if up else -1
        labels = labels[i:] + labels[:i]
        if colors is not None:
            colors = colors[i:] + colors[:i]
    return _from_word((labels, colors), p.upper - 1 if up else p.upper + 1)


# ---------------------------------------------------------------------------
# statistics and predicates


def stats(p: Partition) -> PartitionStats:
    """Counts (b, t, beta): blocks, through-blocks, non-through-blocks."""
    b, k = len(p.blocks), p.upper
    t = len([blk for blk in p.blocks if blk[0] < k <= blk[-1]])
    return PartitionStats(b, t, b - t)


def _walk(k: int, l: int) -> list[int]:
    """Point ids of P(k, l) in clockwise boundary order: the upper row left
    to right, then the lower row right to left.  Strings can be drawn inside
    the disk without crossings exactly when no two blocks interleave in this
    cyclic order, and the two rows are its two arcs."""
    return [*range(k), *range(k + l - 1, k - 1, -1)]


def is_noncrossing(p: Partition) -> bool:
    """True when no two blocks interleave on the clockwise boundary walk
    (:func:`_walk`).  One stack pass along the walk: a point must open a
    new block or continue the innermost block still open."""
    owner = p.block_of()
    left = [len(b) for b in p.blocks]
    stack: list[int] = []
    for x in _walk(p.upper, p.lower):
        b = owner[x]
        if left[b] == len(p.blocks[b]):
            stack.append(b)
        elif stack[-1] != b:
            return False
        left[b] -= 1
        if not left[b]:
            stack.pop()
    return True


def is_pair(p: Partition) -> bool:
    return all(len(b) == 2 for b in p.blocks)


def all_blocks_even(p: Partition) -> bool:
    return all(len(b) % 2 == 0 for b in p.blocks)


def blocks_at_most_two(p: Partition) -> bool:
    return all(len(b) <= 2 for b in p.blocks)


def is_projective(p: Partition) -> bool:
    """True when p = p* = p², i.e. p = r* r on one color word: the lower row
    mirrors the upper row and each through-block joins an upper block to
    its mirror (each point + k).  One scan over the blocks that meet the
    upper row, which canonical order puts first; their mirrors cover the
    lower row, so the lower-only blocks need no check.
    """
    k = p.upper
    if k != p.lower:
        raise ArityError("projectivity needs equal row sizes")
    if p.colors is not None and p.colors[:k] != p.colors[k:]:
        return False
    owner = p.block_of()
    for b in p.blocks:
        if b[0] >= k:
            break
        mirror = tuple(x + k for x in b if x < k)
        if b[-1] < k:
            if p.blocks[owner[mirror[0]]] != mirror:
                return False
        elif b[len(mirror):] != mirror:
            return False
    return True


def conjugate_colors(p: Partition) -> Partition:
    """Flip every point's color; defined for colored diagrams only."""
    if p.colors is None:
        raise ColorError("partition is uncolored")
    return Partition(p.upper, p.lower, p.blocks, tuple(map(_flip, p.colors)))


# ---------------------------------------------------------------------------
# text grammar

_LETTERS = string.ascii_lowercase + string.ascii_uppercase


def serialize(p: Partition) -> str:
    """Canonical text form; inverse of :func:`parse_partition`.

    Built afresh on each call; a diagram caches nothing beside its fields."""
    if len(p.blocks) > len(_LETTERS):
        raise ValueError("too many blocks for the letter grammar")
    owner = p.block_of()
    upper_word = "".join(_LETTERS[owner[i]] for i in range(p.upper))
    lower_word = "".join(
        _LETTERS[owner[p.upper + j]] for j in range(p.lower)
    )
    if p.colors is None:
        return f"{upper_word}:{lower_word}"
    uc = "".join(p.colors[: p.upper])
    lc = "".join(p.colors[p.upper :])
    # a colored empty row still needs the marker so parsing stays unambiguous
    up = f"{upper_word}@{uc}" if p.upper else "@"
    lo = f"{lower_word}@{lc}" if p.lower else "@"
    return f"{up}:{lo}"


def _parse_row(text: str) -> tuple[str, Optional[str]]:
    if "@" in text:
        word, _, colortext = text.partition("@")
        return word, colortext
    return text, None


def parse_partition(text: str) -> Partition:
    """Parse the letter grammar; raises :class:`GrammarError` on bad input.

    Error positions index into ``text``."""
    if text.count(":") != 1:
        second = text.find(":", text.find(":") + 1) if ":" in text else None
        raise GrammarError("expected exactly one ':'", second)
    upper_text, lower_text = text.split(":")
    lower_start = len(upper_text) + 1
    upper_word, upper_colors = _parse_row(upper_text)
    lower_word, lower_colors = _parse_row(lower_text)
    if (upper_colors is None) != (lower_colors is None):
        raise GrammarError("either both rows carry colors or neither does")
    k, l = len(upper_word), len(lower_word)
    blocks: dict[str, list[int]] = {}
    for pos, ch in enumerate(upper_word + lower_word):
        if ch not in _LETTERS:
            raise GrammarError(
                f"invalid block letter {ch!r}",
                pos if pos < k else lower_start + pos - k,
            )
        blocks.setdefault(ch, []).append(pos)
    colors = None
    if upper_colors is not None:
        assert lower_colors is not None
        if len(upper_colors) != k:
            raise GrammarError(
                f"upper row has {k} points but {len(upper_colors)} colors"
            )
        if len(lower_colors) != l:
            raise GrammarError(
                f"lower row has {l} points but {len(lower_colors)} colors"
            )
        for pos, ch in enumerate(upper_colors + lower_colors):
            if ch not in (WHITE, BLACK):
                # a row's colors follow its letters and the '@'
                raise GrammarError(
                    f"invalid color {ch!r}",
                    k + 1 + pos if pos < k else lower_start + l + 1 + pos - k,
                )
        colors = tuple(upper_colors + lower_colors)
    # letters come in order of first appearance, so the blocks are canonical
    return Partition(k, l, tuple(map(tuple, blocks.values())), colors)


# ---------------------------------------------------------------------------
# enumeration and random generation


def all_set_partitions(n: int):
    """Yield all set partitions of 0..n-1 via restricted growth strings."""
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def emit() -> tuple[tuple[int, ...], ...]:
        groups: dict[int, list[int]] = {}
        for i, g in enumerate(rgs):
            groups.setdefault(g, []).append(i)
        return tuple(tuple(g) for g in groups.values())

    def rec(i: int, max_used: int):
        if i == n:
            yield emit()
            return
        for g in range(max_used + 2):
            rgs[i] = g
            yield from rec(i + 1, max(max_used, g))

    yield from rec(1, 0)


def random_partition(rng, k: int, l: int, colored: bool = False) -> Partition:
    """A random diagram in P(k, l); block count follows a CRP-style draw,
    which opens the blocks in order of their smallest point."""
    n = k + l
    if n == 0:
        return empty_partition(colored)
    blocks: list[list[int]] = []
    for x in range(n):
        choice = rng.randrange(len(blocks) + 1)
        if choice == len(blocks):
            blocks.append([x])
        else:
            blocks[choice].append(x)
    colors = None
    if colored:
        colors = tuple(rng.choice((WHITE, BLACK)) for _ in range(n))
    return Partition(k, l, tuple(map(tuple, blocks)), colors)
