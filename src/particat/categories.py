"""
Categories of diagrams: built-in membership predicates and bounded closures.

A category is a family of diagram sets containing the identity strand and
stable under tensor, composition, involution and rotation.  The built-ins:

====== ====================================================================
id     members
====== ====================================================================
p      every uncolored diagram
p2     pair diagrams (all blocks of size two)
nc     noncrossing diagrams
nc2    noncrossing pair diagrams
ncb    noncrossing diagrams with blocks of size at most two
nceven noncrossing diagrams with all blocks of even size
ucol   colored noncrossing pair diagrams whose through-pairs have equal end
       colors and whose non-through pairs have opposite end colors
====== ====================================================================

Generated categories carry a generator list and a point bound; membership is
decided against the bounded closure and queries beyond the bound raise
:class:`UndecidableMembershipError` instead of guessing.  The closure is
computed in one-row form: rotation is a bijection from P(k, l) to P(0, k + l)
(a rotated point flips its color), so a category is given by its one-row
words, which are closed under cyclic rotation, reflection and nested gluing.
A closure of more than :data:`CLOSURE_CAP` words raises
:class:`BoundsExceededError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator, Optional

from .partition import (
    ArityError,
    ColorError,
    Partition,
    all_blocks_even,
    all_set_partitions,
    blocks_at_most_two,
    compose,
    identity,
    is_noncrossing,
    is_pair,
    is_projective,
    parse_partition,
    rotate,
    serialize,
    tensor,
    WHITE,
    BLACK,
)

# closure() calls neither compose nor tensor.  Both stay bound here, where
# the operation-budget test and the benchmark's tracer count calls made
# through this module.

__all__ = [
    "CategorySpec",
    "BoundsExceededError",
    "UndecidableMembershipError",
    "BUILTIN_IDS",
    "contains",
    "membership",
    "closure",
    "enumerate_in",
    "projectives",
    "is_noncrossing_spec",
    "category_from_name",
    "DEFAULT_MAX_POINTS",
    "MAX_ENUM_POINTS",
    "CLOSURE_CAP",
]

BUILTIN_IDS = ("p", "p2", "nc", "nc2", "ncb", "nceven", "ucol")

DEFAULT_MAX_POINTS = 10
MAX_ENUM_POINTS = 10


class BoundsExceededError(RuntimeError):
    """A requested enumeration or closure is beyond the configured size caps."""


class UndecidableMembershipError(RuntimeError):
    """Membership cannot be decided within the bound of a generated category."""


@dataclass(frozen=True)
class CategorySpec:
    """Either a named built-in or a generator list with a point bound."""

    builtin: Optional[str] = None
    generators: tuple[Partition, ...] = ()
    max_points: int = DEFAULT_MAX_POINTS

    def __post_init__(self) -> None:
        if self.builtin is not None:
            if self.builtin not in BUILTIN_IDS:
                raise ValueError(f"unknown builtin category {self.builtin!r}")
            if self.generators:
                raise ValueError("builtin categories take no generators")
        else:
            modes = {g.colored for g in self.generators}
            if len(modes) > 1:
                raise ColorError("generators mix colored and uncolored diagrams")

    @staticmethod
    def named(builtin: str) -> "CategorySpec":
        return CategorySpec(builtin=builtin)

    @property
    def colored(self) -> bool:
        if self.builtin is not None:
            return self.builtin == "ucol"
        return bool(self.generators) and self.generators[0].colored

    def name(self) -> str:
        if self.builtin is not None:
            return self.builtin
        gens = ",".join(serialize(g) for g in self.generators)
        return f"gen[{gens}]<= {self.max_points}"


# ---------------------------------------------------------------------------
# built-in predicates


def _ucol_colors_ok(p: Partition) -> bool:
    assert p.colors is not None
    k = p.upper
    for b in p.blocks:
        if len(b) != 2:
            return False
        x, y = b
        through = x < k <= y
        same = p.colors[x] == p.colors[y]
        if through != same:
            return False
    return True


def _builtin_contains(builtin: str, p: Partition) -> bool:
    if builtin == "ucol":
        if not p.colored:
            raise ColorError("the colored pair category needs colored diagrams")
        return is_pair(p) and is_noncrossing(p) and _ucol_colors_ok(p)
    if p.colored:
        raise ColorError(f"category {builtin!r} holds uncolored diagrams")
    if builtin == "p":
        return True
    if builtin == "p2":
        return is_pair(p)
    if builtin == "nc":
        return is_noncrossing(p)
    if builtin == "nc2":
        return is_pair(p) and is_noncrossing(p)
    if builtin == "ncb":
        return blocks_at_most_two(p) and is_noncrossing(p)
    if builtin == "nceven":
        return all_blocks_even(p) and is_noncrossing(p)
    raise ValueError(f"unknown builtin {builtin!r}")


# ---------------------------------------------------------------------------
# bounded closure of generated categories

_CLOSURE_CACHE: dict[CategorySpec, frozenset[Partition]] = {}

# One-row words a closure may hold before it is refused.  ``:a`` at 8 points
# (539 words, the ncb category) is the largest closure in use; ``:a`` at the
# default bound of 10 would need 3,562.
CLOSURE_CAP = 1_000

# A one-row word: block labels numbered by first appearance, and the point
# colors (None in uncolored mode).
Word = tuple[tuple[int, ...], Optional[tuple[str, ...]]]

_FLIP = {WHITE: BLACK, BLACK: WHITE}


def _relabel(labels: Iterable[int]) -> tuple[int, ...]:
    seen: dict[int, int] = {}
    return tuple([seen.setdefault(x, len(seen)) for x in labels])


def _word(p: Partition) -> Word:
    """The word of ``p``: k ``ul`` rotations take P(k, l) to P(0, k + l), so
    the upper points come right to left with flipped colors, then the lower
    points left to right."""
    for _ in range(p.upper):
        p = rotate(p, "ul")
    return tuple(p.block_of()), p.colors


def _diagrams(word: Word) -> Iterator[Partition]:
    """The n + 1 two-row diagrams of a word of n points, by ``ll`` rotations."""
    labels, colors = word
    blocks: dict[int, list[int]] = {}
    for i, x in enumerate(labels):
        blocks.setdefault(x, []).append(i)
    p = Partition.make(0, len(labels), blocks.values(), colors)
    yield p
    for _ in labels:
        p = rotate(p, "ll")
        yield p


def _turns(word: Word) -> list[Word]:
    """The distinct cyclic rotations of a word.  A point carried once round
    the boundary changes row twice, so colors are unchanged."""
    labels, colors = word
    out = [word]
    for i in range(1, len(labels)):
        turned = (
            _relabel(labels[i:] + labels[:i]),
            None if colors is None else colors[i:] + colors[:i],
        )
        if turned not in out:
            out.append(turned)
    return out


def _reflect(word: Word) -> Word:
    """The involution on words: reverse the points and flip every color."""
    labels, colors = word
    return (
        _relabel(reversed(labels)),
        None if colors is None else tuple(_FLIP[c] for c in reversed(colors)),
    )


def _glue(x: Word, y: Word, m: int) -> Optional[Word]:
    """Glue the last m points of x to the first m points of y, x[a-1-i] to
    y[i], and keep the rest: x[:a-m] followed by y[m:].

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
    # numbers a block, so it is below its word's length)
    parent = list(range(a + len(ys)))
    for i in range(m):
        r = xs[a - 1 - i]
        while parent[r] != r:
            r = parent[r]
        s = ys[i] + a
        while parent[s] != s:
            s = parent[s]
        parent[s] = r
    kept = list(xs[: a - m]) + [v + a for v in ys[m:]]
    for i, v in enumerate(kept):
        while parent[v] != v:
            v = parent[v]
        kept[i] = v
    colors = None if xc is None else xc[: a - m] + yc[m:]
    return _relabel(kept), colors


def closure(
    generators: Iterable[Partition], max_points: int = DEFAULT_MAX_POINTS
) -> frozenset[Partition]:
    """Smallest set within the point bound containing the generators and the
    identity strand and stable under the four operations.

    Rotation is a bijection from P(k, l) to P(0, k + l), so the closure is
    computed on one-row words (:func:`_word`) and every word of n points
    stands for its n + 1 two-row diagrams.  On words the four operations
    become cyclic rotation, reflection (the involution) and nested gluing
    (composition; tensor is the gluing of no points followed by a rotation),
    each kept within the bound.  Words are added with their whole
    rotation-reflection orbit.  Gluing x to y is a rotation of gluing a
    rotation of y to a rotation of x, and reflects to a gluing of
    reflections, so each new orbit is glued only from the rotations of its
    first word and only onto the orbits found before it and itself.  Of the
    gluings of one pair only the fewest glued points that fit the bound is
    formed: each further glued pair is a gluing with the strand (a cap) of a
    word within the bound.

    Raises :class:`BoundsExceededError` once the closure holds more than
    :data:`CLOSURE_CAP` words.
    """
    gens = tuple(generators)
    colored = bool(gens) and gens[0].colored
    for g in gens:
        if g.colored != colored:
            raise ColorError("generators mix colored and uncolored diagrams")
    words: list[Word] = []
    known: set[Word] = set()
    # per orbit: the rotations of its first word, and the number of words of
    # the orbits up to and including it
    orbits: list[tuple[list[Word], int]] = []

    def add(word: Optional[Word]) -> None:
        if word is None or len(word[0]) > max_points or word in known:
            return
        turns = _turns(word)
        orbit = turns + [w for w in _turns(_reflect(word)) if w not in turns]
        known.update(orbit)
        words.extend(orbit)
        if len(words) > CLOSURE_CAP:
            raise BoundsExceededError(
                f"the closure of {len(gens)} generator(s) within {max_points} "
                f"points exceeds the cap of {CLOSURE_CAP} one-row words"
            )
        orbits.append((turns, len(words)))

    strand = _word(identity(1, colors=WHITE if colored else None))
    add(strand)
    for g in gens:
        add(_word(g))
    caps = _turns(strand)
    for turns, end in orbits:  # grows while it is walked
        for x in turns:
            a = len(x[0])
            if a >= 2:
                for cap in caps:
                    add(_glue(x, cap, 2))
            for y in words[:end]:
                m = max(0, (a + len(y[0]) - max_points + 1) // 2)
                add(_glue(x, y, m))
    return frozenset(p for w in words for p in _diagrams(w))


def _closure_of(spec: CategorySpec) -> frozenset[Partition]:
    cached = _CLOSURE_CACHE.get(spec)
    if cached is None:
        cached = closure(spec.generators, spec.max_points)
        _CLOSURE_CACHE[spec] = cached
    return cached


# ---------------------------------------------------------------------------
# membership


def membership(spec: CategorySpec, p: Partition) -> Optional[bool]:
    """Three-valued membership: True, False, or None when undecidable."""
    if spec.builtin is not None:
        return _builtin_contains(spec.builtin, p)
    if p.colored != spec.colored:
        raise ColorError("diagram color mode does not match the category")
    if p.n_points > spec.max_points:
        return None
    return p in _closure_of(spec)


def contains(spec: CategorySpec, p: Partition) -> bool:
    """Boolean membership; undecidable queries raise instead of returning."""
    result = membership(spec, p)
    if result is None:
        raise UndecidableMembershipError(
            f"{p} has {p.n_points} points, beyond the bound "
            f"{spec.max_points} of the generated category"
        )
    return result


def is_noncrossing_spec(spec: CategorySpec) -> bool:
    """Whether every member is noncrossing (exact for built-ins; for
    generated categories it is decided on the generators, which is enough
    since the operations preserve noncrossingness)."""
    if spec.builtin is not None:
        return spec.builtin != "p" and spec.builtin != "p2"
    return all(is_noncrossing(g) for g in spec.generators)


# ---------------------------------------------------------------------------
# enumeration


def _colorings(p: Partition) -> Iterator[Partition]:
    for colors in product((WHITE, BLACK), repeat=p.n_points):
        yield Partition.make(p.upper, p.lower, p.blocks, colors)


def enumerate_in(spec: CategorySpec, k: int, l: int) -> list[Partition]:
    """All members of the category with k upper and l lower points.

    Brute force over set partitions (and colorings in colored mode), guarded
    by the Bell-number growth cap.
    """
    if k + l > MAX_ENUM_POINTS:
        raise BoundsExceededError(
            f"enumeration of {k + l} points exceeds the cap {MAX_ENUM_POINTS}"
        )
    out = []
    for blocks in all_set_partitions(k + l):
        base = Partition.make(k, l, blocks)
        if spec.colored:
            if spec.builtin == "ucol" and not (
                is_pair(base) and is_noncrossing(base)
            ):
                continue
            for cand in _colorings(base):
                if contains(spec, cand):
                    out.append(cand)
        else:
            if contains(spec, base):
                out.append(base)
    out.sort(key=Partition.sort_key)
    return out


def _noncrossing_partitions_of_row(k: int) -> list[tuple[tuple[int, ...], ...]]:
    row = []
    for blocks in all_set_partitions(k):
        if is_noncrossing(Partition.make(k, 0, blocks)):
            row.append(blocks)
    return row


def _ucol_projective_colorings(p: Partition) -> Iterator[Partition]:
    """Symmetric colorings obeying the pair color rule, block by block."""
    k = p.upper
    upper_blocks = [b for b in p.blocks if b[0] < k]
    choices = []
    for b in upper_blocks:
        if b[-1] >= k:  # through-pair {a, a'}: both ends one color
            choices.append([(WHITE,), (BLACK,)])
        else:  # upper pair {a, b}: opposite colors (mirrored below)
            choices.append([(WHITE, BLACK), (BLACK, WHITE)])
    for pick in product(*choices):
        upper_colors = [WHITE] * k
        for b, cols in zip(upper_blocks, pick):
            ups = [x for x in b if x < k]
            for x, c in zip(ups, cols):
                upper_colors[x] = c
        colors = tuple(upper_colors) * 2
        yield Partition.make(p.upper, p.lower, p.blocks, colors)


_PROJECTIVES_CACHE: dict[tuple[CategorySpec, int], list[Partition]] = {}


def projectives(spec: CategorySpec, k: int) -> list[Partition]:
    """All projective members of the category in C(k, k), canonically sorted.

    For the noncrossing built-ins these are generated directly from pairs
    (noncrossing row partition, subset of through-marked blocks) instead of
    filtering all set partitions, which keeps larger arities reachable.
    Results are cached per (category, arity).
    """
    key = (spec, k)
    cached = _PROJECTIVES_CACHE.get(key)
    if cached is not None:
        return list(cached)
    out = _projectives_uncached(spec, k)
    _PROJECTIVES_CACHE[key] = out
    return list(out)


def _projectives_uncached(spec: CategorySpec, k: int) -> list[Partition]:
    if spec.builtin in ("nc", "nc2", "ncb", "nceven", "ucol"):
        out = []
        for row_blocks in _noncrossing_partitions_of_row(k):
            nblocks = len(row_blocks)
            for mask in range(1 << nblocks):
                blocks = []
                for i, b in enumerate(row_blocks):
                    mirrored = tuple(x + k for x in b)
                    if mask >> i & 1:
                        blocks.append(b + mirrored)
                    else:
                        blocks.append(b)
                        blocks.append(mirrored)
                cand = Partition.make(k, k, blocks)
                if not is_noncrossing(cand):
                    continue
                if spec.builtin == "ucol":
                    if not is_pair(cand):
                        continue
                    out.extend(_ucol_projective_colorings(cand))
                elif _builtin_contains(spec.builtin, cand):
                    out.append(cand)
        out.sort(key=Partition.sort_key)
        return out
    return [p for p in enumerate_in(spec, k, k) if is_projective(p)]


# ---------------------------------------------------------------------------
# registry


def category_from_name(
    name: str, max_points: int = DEFAULT_MAX_POINTS
) -> CategorySpec:
    """Resolve a CLI-facing category name.

    Built-ins by id; ``gen:<file>`` loads generator diagrams from a text
    file, one per line in the module grammar (blank lines are skipped).
    """
    if name in BUILTIN_IDS:
        return CategorySpec.named(name)
    if name.startswith("gen:"):
        path = name[4:]
        gens = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    gens.append(parse_partition(line))
        return CategorySpec(generators=tuple(gens), max_points=max_points)
    raise ValueError(
        f"unknown category {name!r}; expected one of {', '.join(BUILTIN_IDS)} "
        "or gen:<file>"
    )
