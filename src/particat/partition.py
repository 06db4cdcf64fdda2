"""
Two-row set partitions and the four diagram operations.

A partition diagram has k upper points and l lower points; the k+l points are
split into nonempty blocks, and blocks may connect the two rows.  Internally
the upper points get ids 0..k-1 (left to right) and the lower points get ids
k..k+l-1 (left to right).  A diagram is a named tuple of its row sizes, a
block label per point and its colors.  The labels number the blocks by first
appearance in id order (a restricted growth string), so a block's label is
its index among the blocks ordered by least point.  Two diagrams are equal,
and hash alike, exactly when they have the same blocks and colors.

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
one-row word: its labels with the upper row reversed.  Composing glues two
words (the one gluing routine, which the closure of
:mod:`particat.categories` shares), and rotating reads the word back with the
cut between the rows moved one point.  The word runs along the boundary, so
the crossing test scans it.  Every operation, the parser included, writes
labels and numbers them by first appearance (:func:`_relabel`); no routine
builds blocks, which :attr:`Partition.blocks` groups on demand.

Points may optionally carry a color (``w`` or ``b``); colored and uncolored
diagrams never mix.  Colors travel with their points under every operation
and flip when a point changes row under rotation.
"""

from __future__ import annotations

import string
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
        labels: a block label per point id 0..k+l-1 (ids < k are upper),
                the blocks numbered by first appearance: the first point
                has label 0 and each point's label is at most one more
                than every label before it.
        colors: ``None`` for an uncolored diagram, else a tuple of 'w'/'b'
                of length k+l (one entry per point).

    A named tuple: immutability, equality and the hash all come from the
    four fields.  The constructor trusts its arguments to be canonical
    already and checks nothing: the library builds with it where labels are
    numbered by first appearance by construction (tuples, never lists).
    Block lists handed in by callers go through :meth:`make`, which
    validates and canonicalizes them.
    """

    upper: int
    lower: int
    labels: tuple[int, ...]
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
        owner = [-1] * n  # the index of each point's block in ``blocks``
        for i, b in enumerate(blocks):
            b = tuple(b)
            if not b:
                raise ValueError("empty block")
            for x in b:
                if not 0 <= x < n or owner[x] != -1:  # out of range or twice
                    raise ValueError(f"blocks must partition the {n} points exactly")
                owner[x] = i
        if -1 in owner:
            raise ValueError(f"blocks must partition the {n} points exactly")
        col: Optional[tuple[str, ...]] = None
        if colors is not None:
            col = tuple(colors)
            if len(col) != n:
                raise ColorError(f"expected {n} colors, got {len(col)}")
            bad = [c for c in col if c not in (WHITE, BLACK)]
            if bad:
                raise ColorError(f"colors must be 'w' or 'b', got {bad[0]!r}")
        return Partition(upper, lower, _relabel(owner), col)

    @property
    def n_points(self) -> int:
        return self.upper + self.lower

    @property
    def n_blocks(self) -> int:
        labels = self.labels
        return max(labels) + 1 if labels else 0

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks, each an ascending tuple of point ids, ordered by least
        point: the points of each label, grouped on each read."""
        blocks: dict[int, list[int]] = {}
        for x, label in enumerate(self.labels):
            blocks.setdefault(label, []).append(x)
        return tuple(map(tuple, blocks.values()))

    @property
    def colored(self) -> bool:
        return self.colors is not None

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
        """Total order used for deterministic enumeration everywhere.  The
        text, not the labels: past 26 blocks the letters run on in upper
        case, which sorts before lower case."""
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
    if colors is None:
        return Partition(k, k, tuple(range(k)) * 2)
    return Partition.make(k, k, zip(range(k), range(k, 2 * k)), tuple(colors) * 2)


# ---------------------------------------------------------------------------
# point labels and one-row words

# A one-row word: a block label per point, each below the word's length, and
# the point colors (None in uncolored mode).  Words that differ only in the
# numbering of their labels stand for one diagram; a canonical word numbers
# them by first appearance (:func:`_relabel`).
Word = tuple[tuple[int, ...], Optional[tuple[str, ...]]]


def _relabel(labels: Iterable[int]) -> tuple[int, ...]:
    """Number the labels by first appearance."""
    seen: dict[int, int] = {}
    return tuple([seen.setdefault(x, len(seen)) for x in labels])


def _through(p: Partition) -> set[int]:
    """The labels of the through-blocks: those the two rows share."""
    k = p.upper
    return set(p.labels[:k]).intersection(p.labels[k:])


def _word(p: Partition) -> Word:
    """The word of ``p``, the diagram in P(0, k + l) that k ``ul`` rotations
    take it to: the upper points right to left with flipped colors, then the
    lower points left to right, each with its label."""
    k = p.upper
    labels, colors = p.labels, p.colors
    if colors is not None:
        colors = tuple(map(_flip, colors[:k][::-1])) + colors[k:]
    return labels[:k][::-1] + labels[k:], colors


def _from_word(word: Word, k: int) -> Partition:
    """The diagram with k upper points whose word is ``word``; for each k
    from 0 to the word's length, the inverse of :func:`_word` up to the
    numbering of the labels."""
    labels, colors = word
    if colors is not None:
        colors = tuple(map(_flip, colors[:k][::-1])) + colors[k:]
    labels = _relabel(labels[:k][::-1] + labels[k:])
    return Partition(k, len(labels) - k, labels, colors)


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
    """Horizontal concatenation: q is placed to the right of p.  q's labels
    shift past p's, and the rows are renumbered in their new order."""
    if p.colored != q.colored:
        raise ColorError("cannot tensor colored with uncolored")
    k, k2 = p.upper, q.upper
    shift = p.n_blocks
    ql = tuple([x + shift for x in q.labels])
    labels = _relabel(p.labels[:k] + ql[:k2] + p.labels[k:] + ql[k2:])
    colors = None
    if p.colors is not None:
        assert q.colors is not None
        colors = p.colors[:k] + q.colors[:k2] + p.colors[k:] + q.colors[k2:]
    return Partition(k + k2, p.lower + q.lower, labels, colors)


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
    loops = top.n_blocks + bottom.n_blocks - merges - p.n_blocks
    return CompositionResult(p, loops)


def involution(p: Partition) -> Partition:
    """Turn the diagram upside down; colors stay attached to their points.
    The labels are read with the two rows swapped."""
    k = p.upper
    colors = p.colors
    if colors is not None:
        colors = colors[k:] + colors[:k]
    return Partition(p.lower, k, _relabel(p.labels[k:] + p.labels[:k]), colors)


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
    b, t = p.n_blocks, len(_through(p))
    return PartitionStats(b, t, b - t)


def _block_sizes(p: Partition) -> list[int]:
    """The size of each block, by label."""
    sizes = [0] * p.n_blocks
    for x in p.labels:
        sizes[x] += 1
    return sizes


def is_noncrossing(p: Partition) -> bool:
    """True when no two blocks interleave along the boundary, walked
    counterclockwise from the upper right corner as the word (:func:`_word`)
    lists it.  One stack pass over the labels in that order: a point must
    open a new block or continue the innermost block still open."""
    k = p.upper
    word = p.labels[:k][::-1] + p.labels[k:]
    left = _block_sizes(p)
    stack = [-1]
    for b in word:
        if b != stack[-1]:
            if b in stack:  # open, but not innermost
                return False
            stack.append(b)
        left[b] -= 1
        if not left[b]:
            stack.pop()
    return True


def is_pair(p: Partition) -> bool:
    return all(s == 2 for s in _block_sizes(p))


def all_blocks_even(p: Partition) -> bool:
    return all(s % 2 == 0 for s in _block_sizes(p))


def blocks_at_most_two(p: Partition) -> bool:
    return all(s <= 2 for s in _block_sizes(p))


def is_projective(p: Partition) -> bool:
    """True when p = p* = p², i.e. p = r* r on one color word: the lower row
    mirrors the upper row and each through-block joins an upper block to
    its mirror (each point + k).  Read off the labels: the lower row,
    renumbered, is the upper row, and a lower point whose label the upper
    row has carries the label of its mirror point.
    """
    k = p.upper
    if k != p.lower:
        raise ArityError("projectivity needs equal row sizes")
    if p.colors is not None and p.colors[:k] != p.colors[k:]:
        return False
    up, low = p.labels[:k], p.labels[k:]
    if _relabel(low) != up:
        return False
    # the upper row holds the labels below u, the lower-only blocks the rest
    u = max(up) + 1 if up else 0
    return all(y == x or y >= u for x, y in zip(up, low))


def conjugate_colors(p: Partition) -> Partition:
    """Flip every point's color; defined for colored diagrams only."""
    if p.colors is None:
        raise ColorError("partition is uncolored")
    return Partition(p.upper, p.lower, p.labels, tuple(map(_flip, p.colors)))


# ---------------------------------------------------------------------------
# text grammar

_LETTERS = string.ascii_lowercase + string.ascii_uppercase
_LETTER_SET = frozenset(_LETTERS)


def serialize(p: Partition) -> str:
    """Canonical text form; inverse of :func:`parse_partition`.

    Built afresh on each call; a diagram caches nothing beside its fields."""
    try:
        word = "".join([_LETTERS[x] for x in p.labels])
    except IndexError:
        raise ValueError("too many blocks for the letter grammar") from None
    k = p.upper
    if p.colors is None:
        return f"{word[:k]}:{word[k:]}"
    colors = "".join(p.colors)
    # a colored empty row still needs the marker so parsing stays unambiguous
    up = f"{word[:k]}@{colors[:k]}" if k else "@"
    lo = f"{word[k:]}@{colors[k:]}" if p.lower else "@"
    return f"{up}:{lo}"


def parse_partition(text: str) -> Partition:
    """Parse the letter grammar; raises :class:`GrammarError` on bad input.

    Error positions index into ``text``."""
    upper_text, colon, lower_text = text.partition(":")
    lower_start = len(upper_text) + 1
    if not colon or ":" in lower_text:
        second = lower_start + lower_text.find(":") if colon else None
        raise GrammarError("expected exactly one ':'", second)
    upper_word, lower_word, colored = upper_text, lower_text, "@" in text
    if colored:  # a row's colors follow its letters and an '@'
        upper_word, upper_at, upper_colors = upper_text.partition("@")
        lower_word, lower_at, lower_colors = lower_text.partition("@")
        if upper_at != lower_at:
            raise GrammarError("either both rows carry colors or neither does")
    k, l = len(upper_word), len(lower_word)
    word = upper_word + lower_word
    # number the letters by first appearance; a letter outside the grammar
    # is looked for only once the numbering has seen one
    seen: dict[str, int] = {}
    labels = tuple([seen.setdefault(ch, len(seen)) for ch in word])
    if not _LETTER_SET.issuperset(seen):
        pos = next(i for i, ch in enumerate(word) if ch not in _LETTER_SET)
        raise GrammarError(
            f"invalid block letter {word[pos]!r}",
            pos if pos < k else lower_start + pos - k,
        )
    colors = None
    if colored:
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
                raise GrammarError(
                    f"invalid color {ch!r}",
                    k + 1 + pos if pos < k else lower_start + l + 1 + pos - k,
                )
        colors = tuple(upper_colors + lower_colors)
    return Partition(k, l, labels, colors)


# ---------------------------------------------------------------------------
# enumeration and random generation


def all_set_partitions(n: int, most: Optional[int] = None) -> list[tuple[int, ...]]:
    """The list of set partitions of 0..n-1 into at most ``most`` blocks
    (any number when None) as restricted growth strings: a block label per
    point, the blocks numbered by first appearance, as
    :attr:`Partition.labels` holds them.  Built level by level, one point
    at a time, in lexicographic order; n = 0 gives [()]."""
    cap = n if most is None else most
    gs: list[tuple[int, ...]] = [()]
    for _ in range(n):
        gs = [g + (x,) for g in gs for x in range(min(len(set(g)) + 1, cap))]
    return gs


def _draw_labels(rng, n: int) -> tuple[int, ...]:
    """A block label per point by a CRP-style draw: each point joins one of
    the blocks opened so far or opens the next, so the labels number the
    blocks by first appearance."""
    labels = []
    opened = 0
    for _ in range(n):
        label = rng.randrange(opened + 1)
        if label == opened:
            opened += 1
        labels.append(label)
    return tuple(labels)
