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
Words, their gluing and the diagrams read back off them come from
:mod:`particat.partition`, whose composition glues the same way.  A bound
below 2 or below a generator's points raises ``ValueError``, and a closure
of more than :data:`CLOSURE_CAP` words raises :class:`BoundsExceededError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb
from typing import Iterable, Iterator, Optional

from .partition import (
    ArityError,
    ColorError,
    Partition,
    Word,
    all_blocks_even,
    all_set_partitions,
    blocks_at_most_two,
    compose,
    identity,
    is_noncrossing,
    is_pair,
    parse_partition,
    serialize,
    tensor,
    WHITE,
    BLACK,
    _flip,
    _from_word,
    _glue,
    _relabel,
    _word,
)

# closure() glues words as compose() does, with _glue, and calls neither
# compose nor tensor.  Both stay bound here, where the operation-budget test
# and the benchmark's tracer count calls made through this module.

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
    "PROJECTIVES_CAP",
    "CLOSURE_CAP",
]

BUILTIN_IDS = ("p", "p2", "nc", "nc2", "ncb", "nceven", "ucol")

DEFAULT_MAX_POINTS = 10
MAX_ENUM_POINTS = 10
PROJECTIVES_CAP = 200_000
"""Most candidates :func:`projectives` may generate at one arity."""


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


def _diagrams(word: Word) -> Iterator[Partition]:
    """The n + 1 two-row diagrams of a word of n points, one per cut."""
    for k in range(len(word[0]) + 1):
        yield _from_word(word, k)


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
        None if colors is None else tuple(map(_flip, reversed(colors))),
    )


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

    Raises ``ValueError`` when the bound is below 2, the points of the
    strand, or below the points of a generator, and
    :class:`BoundsExceededError` once the closure holds more than
    :data:`CLOSURE_CAP` words.
    """
    gens = tuple(generators)
    colored = bool(gens) and gens[0].colored
    for g in gens:
        if g.colored != colored:
            raise ColorError("generators mix colored and uncolored diagrams")
    need = max([2, *(g.n_points for g in gens)])
    if max_points < need:
        raise ValueError(
            f"the point bound {max_points} is below {need}: the strand and "
            "every generator must fit it"
        )
    words: list[Word] = []
    known: set[Word] = set()
    # per orbit: the rotations of its first word, and the number of words of
    # the orbits up to and including it
    orbits: list[tuple[list[Word], int]] = []

    def add(word: Word) -> None:
        if word in known:
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

    def glue(x: Word, y: Word, m: int) -> None:
        glued = _glue(x, y, m)
        if glued is not None:
            add(glued[0])

    # words are kept canonical; the strand's labels (0, 0) are already
    strand = _word(identity(1, colors=WHITE if colored else None))
    add(strand)
    for g in gens:
        labels, colors = _word(g)
        add((_relabel(labels), colors))
    caps = _turns(strand)
    for turns, end in orbits:  # grows while it is walked
        for x in turns:
            a = len(x[0])
            if a >= 2:
                for cap in caps:
                    glue(x, cap, 2)
            for y in words[:end]:
                # the fewest glued points that fit the bound: never more
                # than either word has, since both words fit it
                glue(x, y, max(0, (a + len(y[0]) - max_points + 1) // 2))
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
        yield Partition(p.upper, p.lower, p.blocks, colors)


def enumerate_in(spec: CategorySpec, k: int, l: int) -> list[Partition]:
    """All members of the category with k upper and l lower points.

    Brute force over set partitions (and colorings in colored mode), guarded
    by the Bell-number growth cap.
    """
    if k < 0 or l < 0:
        raise ArityError(f"row sizes must be nonnegative, got ({k}, {l})")
    if k + l > MAX_ENUM_POINTS:
        raise BoundsExceededError(
            f"enumeration of {k + l} points exceeds the cap {MAX_ENUM_POINTS}"
        )
    out = []
    for blocks in all_set_partitions(k + l):  # canonical as generated
        base = Partition(k, l, blocks)
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


_PROJECTIVES_CACHE: dict[tuple[CategorySpec, int], list[Partition]] = {}


def projectives(spec: CategorySpec, k: int) -> list[Partition]:
    """All projective members of the category in C(k, k), canonically sorted.

    A projective diagram is r* r, so it is fixed by the partition of its
    upper row, which its lower row mirrors, and by the set of those blocks
    that go through to their mirrors; colored, it carries some coloring
    c + c.  Every such candidate is generated and kept when the category
    contains it.  Categories other than the noncrossing built-ins are
    refused beyond :data:`MAX_ENUM_POINTS` points, as :func:`enumerate_in`
    refuses them, and every category past :data:`PROJECTIVES_CAP`
    candidates, before any is built.  Results are cached per (category,
    arity).
    """
    if k < 0:
        raise ArityError(f"the arity must be nonnegative, got {k}")
    key = (spec, k)
    cached = _PROJECTIVES_CACHE.get(key)
    if cached is not None:
        return list(cached)
    out = _projectives_uncached(spec, k)
    _PROJECTIVES_CACHE[key] = out
    return list(out)


def _projectives_uncached(spec: CategorySpec, k: int) -> list[Partition]:
    if 2 * k > MAX_ENUM_POINTS and not (
        spec.builtin is not None and is_noncrossing_spec(spec)
    ):
        raise BoundsExceededError(
            f"enumeration of {2 * k} points exceeds the cap {MAX_ENUM_POINTS}"
        )
    # sum_j S(n, j) 2^j candidates at arity n (a row partition, a subset of
    # its blocks cut; Touchard's recurrence), times 2^n colorings
    count, touchard = 1, [1]
    for n in range(k):
        if count > PROJECTIVES_CAP:
            break
        touchard.append(2 * sum(comb(n, i) * t for i, t in enumerate(touchard)))
        count = touchard[-1] << (n + 1 if spec.colored else 0)
    if count > PROJECTIVES_CAP:
        raise BoundsExceededError(
            f"projectives at arity {k} pass the cap of {PROJECTIVES_CAP} candidates"
        )
    if spec.colored:
        colorings = [c + c for c in product((WHITE, BLACK), repeat=k)]
    else:
        colorings = [None]
    out = []
    for row in all_set_partitions(k):
        # bit i of the mask cuts block i from its mirror; mask 0 comes first,
        # so an undecidable arity names the diagram enumerate_in names.  The
        # upper-row blocks, then the cut mirrors, are in canonical order.
        mirrors = [tuple(x + k for x in b) for b in row]
        for mask in range(1 << len(row)):
            cut = [mask >> i & 1 for i in range(len(row))]
            blocks = tuple(
                b if c else b + m for b, m, c in zip(row, mirrors, cut)
            ) + tuple(m for m, c in zip(mirrors, cut) if c)
            for colors in colorings:
                cand = Partition(k, k, blocks, colors)
                if contains(spec, cand):
                    out.append(cand)
    out.sort(key=Partition.sort_key)
    return out


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
