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
:class:`UndecidableMembershipError` instead of guessing.  A spec works out its
closure on its first query within the bound and keeps it, or its refusal;
equal specs share one closure through :data:`_CLOSURE_CACHE`.  The closure
is computed in one-row form: rotation is a bijection from P(k, l) to
P(0, k + l) (a rotated point flips its color), so a category is given by its
one-row words, which are closed under cyclic rotation, reflection and nested
gluing.  Words, their gluing and the diagrams read back off them come from
:mod:`particat.partition`, whose composition glues the same way.  A bound that
is not an int raises ``TypeError``, and a bound below 2 or below a
generator's points ``ValueError``, as the spec is built, before any query; a
closure of more than :data:`CLOSURE_CAP` words raises
:class:`BoundsExceededError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

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

DEFAULT_MAX_POINTS = 10
MAX_ENUM_POINTS = 10
PROJECTIVES_CAP = 200_000
"""Most candidates :func:`projectives` may generate at one arity."""


class BoundsExceededError(RuntimeError):
    """A requested enumeration or closure is beyond the configured size caps."""


class UndecidableMembershipError(RuntimeError):
    """Membership cannot be decided within the bound of a generated category."""


def _check_generators(gens: tuple[Partition, ...], max_points: int) -> None:
    """Refuse a point bound that is not an int (``TypeError``), generators of
    both color modes (:class:`ColorError`) and a point bound below 2, the
    points of the strand, or below the points of a generator
    (``ValueError``)."""
    if not isinstance(max_points, int):
        raise TypeError(f"the point bound must be an int, got {max_points!r}")
    if len({g.colored for g in gens}) > 1:
        raise ColorError("generators mix colored and uncolored diagrams")
    need = max([2, *(g.n_points for g in gens)])
    if max_points < need:
        raise ValueError(
            f"the point bound {max_points} is below {need}: the strand and "
            "every generator must fit it"
        )


@dataclass(frozen=True)
class CategorySpec:
    """Either a named built-in or a generator list (stored as a tuple) with a
    point bound.  Its color mode and a generated category's closure are
    worked out on first use and kept outside the three fields, which alone
    make up equality, the hash and the repr."""

    builtin: Optional[str] = None
    generators: tuple[Partition, ...] = ()
    max_points: int = DEFAULT_MAX_POINTS

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.builtin is not None:
            if self.builtin not in BUILTIN_IDS:
                raise ValueError(f"unknown builtin category {self.builtin!r}")
            if self.generators:
                raise ValueError("builtin categories take no generators")
            if self.max_points != DEFAULT_MAX_POINTS:
                raise ValueError("builtin categories take no point bound")
        else:
            _check_generators(self.generators, self.max_points)

    @staticmethod
    def named(builtin: str) -> "CategorySpec":
        return CategorySpec(builtin=builtin)

    @cached_property
    def colored(self) -> bool:
        if self.builtin is not None:
            return _BUILTINS[self.builtin].colored
        return bool(self.generators) and self.generators[0].colored

    @cached_property
    def _closure(self) -> frozenset[Partition]:
        """The bounded closure, shared by equal specs through
        :data:`_CLOSURE_CACHE`.  A closure past :data:`CLOSURE_CAP` is
        refused once: the cache keeps the refusal, which a cached_property
        cannot, and every later read raises it again."""
        members = _CLOSURE_CACHE.get(self)
        if members is None:
            try:
                members = closure(self.generators, self.max_points)
            except BoundsExceededError as refusal:
                members = refusal
            _CLOSURE_CACHE[self] = members
        if isinstance(members, BoundsExceededError):
            raise BoundsExceededError(*members.args)
        return members

    def name(self) -> str:
        if self.builtin is not None:
            return self.builtin
        gens = ",".join(serialize(g) for g in self.generators)
        return f"gen[{gens}]<= {self.max_points}"


# ---------------------------------------------------------------------------
# built-in predicates


def _ucol_colors_ok(p: Partition) -> bool:
    """For a colored pair diagram: a through-pair has equal end colors and
    any other pair opposite ones."""
    assert p.colors is not None
    k = p.upper
    first: dict[int, int] = {}  # label -> its block's first point
    for y, label in enumerate(p.labels):
        x = first.setdefault(label, y)
        if x != y and (x < k <= y) != (p.colors[x] == p.colors[y]):
            return False
    return True


class _Builtin(NamedTuple):
    colored: bool
    crossing: bool  # whether members may cross
    blocks_ok: Callable[[Partition], bool]  # the rule on blocks, crossing aside


# every built-in by id, in the order the CLI lists them
_BUILTINS: dict[str, _Builtin] = {
    "p": _Builtin(False, True, lambda p: True),
    "p2": _Builtin(False, True, is_pair),
    "nc": _Builtin(False, False, lambda p: True),
    "nc2": _Builtin(False, False, is_pair),
    "ncb": _Builtin(False, False, blocks_at_most_two),
    "nceven": _Builtin(False, False, all_blocks_even),
    "ucol": _Builtin(True, False, lambda p: is_pair(p) and _ucol_colors_ok(p)),
}
BUILTIN_IDS = tuple(_BUILTINS)


# ---------------------------------------------------------------------------
# bounded closure of generated categories

# a spec's bounded closure, or the refusal of a closure past CLOSURE_CAP
_CLOSURE_CACHE: dict[
    CategorySpec, frozenset[Partition] | BoundsExceededError
] = {}

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
    _check_generators(gens, max_points)
    colored = bool(gens) and gens[0].colored
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


# ---------------------------------------------------------------------------
# membership


def membership(spec: CategorySpec, p: Partition) -> Optional[bool]:
    """Three-valued membership: True, False, or None when undecidable.  A
    generated category checks the color mode and the bound before it reads
    the closure its spec keeps (:class:`CategorySpec`)."""
    if spec.builtin is not None:
        rule = _BUILTINS[spec.builtin]
        if p.colored != rule.colored:
            raise ColorError(
                "the colored pair category needs colored diagrams"
                if rule.colored
                else f"category {spec.builtin!r} holds uncolored diagrams"
            )
        return rule.blocks_ok(p) and (rule.crossing or is_noncrossing(p))
    if (p.colors is not None) != spec.colored:
        raise ColorError("diagram color mode does not match the category")
    if p.upper + p.lower > spec.max_points:
        return None
    return p in spec._closure


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
        return not _BUILTINS[spec.builtin].crossing
    return all(is_noncrossing(g) for g in spec.generators)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_in(spec: CategorySpec, k: int, l: int) -> list[Partition]:
    """All members of the category with k upper and l lower points.

    Brute force over the set partitions of the k + l points, each in every
    coloring in colored mode, guarded by the cap of :data:`MAX_ENUM_POINTS`
    points.  ucol tries colorings only on noncrossing pairings.
    """
    if k < 0 or l < 0:
        raise ArityError(f"row sizes must be nonnegative, got ({k}, {l})")
    if k + l > MAX_ENUM_POINTS:
        raise BoundsExceededError(
            f"enumeration of {k + l} points exceeds the cap {MAX_ENUM_POINTS}"
        )
    if spec.colored:
        colorings = list(product((WHITE, BLACK), repeat=k + l))
    else:
        colorings = [None]
    out = []
    for labels in all_set_partitions(k + l):  # canonical as generated
        if spec.builtin == "ucol":
            shape = Partition(k, l, labels)
            if not (is_pair(shape) and is_noncrossing(shape)):
                continue
        for colors in colorings:
            cand = Partition(k, l, labels, colors)
            if contains(spec, cand):
                out.append(cand)
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
        # so an undecidable arity names the diagram enumerate_in names.  A
        # cut block's mirror takes the next label past the row's, in label
        # order, which is the order of first appearance on the lower row.
        b = max(row, default=-1) + 1
        for mask in range(1 << b):
            fresh = iter(range(b, 2 * b))
            mirror = [next(fresh) if mask >> i & 1 else i for i in range(b)]
            labels = row + tuple(map(mirror.__getitem__, row))
            for colors in colorings:
                cand = Partition(k, k, labels, colors)
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
