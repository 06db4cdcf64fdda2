"""
Fusion of projective diagrams and the word calculus that labels it.

The tensor product of two projective diagrams splits along the projective
diagrams obtained by grafting a mixing diagram between their through-block
structures; inside a category the fusion set is exactly the grafted family
intersected with the category.  A brute-force realization straight from the
domination order is provided as an independent oracle.

For the standard noncrossing categories the equivalence classes of
projectives carry closed-form labels (natural numbers, words over Z2, or
alternating color words) and the fusion of labels is given by a free fusion
semiring: words over a letter set with an involution and a partial letter
fusion, tensored by

    w (x) w' = sum over w = az, w' = conj(z) b of [ab] + [a * b]

where conj reverses the word and conjugates letters, ab is concatenation and
a * b fuses the touching letters (the term is dropped when either side is
empty or the letter fusion is undefined).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from itertools import groupby, product
from typing import Optional, Union

from .partition import (
    _LETTERS,
    GrammarError,
    Partition,
    conjugate_colors,
    empty_partition,
    identity,
    is_projective,
    parse_partition,
    serialize,
    stats,
    tensor,
    WHITE,
    BLACK,
    _through,
)
from .structure import (
    _dominated_members,
    _dominator,
    _equivalence_classes,
    _graft,
    _nested_mixings,
    boxvert,
    enumerate_mixing,
    word_h,
    word_u,
)
from .categories import (
    BoundsExceededError,
    CategorySpec,
    _BUILTINS,
    contains,
    enumerate_in,
    is_noncrossing_spec,
    projectives,
)

__all__ = [
    "FusionLabel",
    "FusionResult",
    "FreeFusionSemiring",
    "fusion_candidates",
    "fusion",
    "fusion_brute_force",
    "decompose_power",
    "label_for",
    "label_to_partition",
    "labelled_fusion",
    "labels_up_to",
    "TABLE_ROWS_CAP",
    "semiring_tensor",
    "z2_semiring",
    "alternating_semiring",
    "freeness_probe",
    "LABELLED_IDS",
]

LABELLED_IDS = {
    "nc": "S",
    "nc2": "O",
    "ncb": "B",
    "nceven": "H",
    "ucol": "U",
}

TABLE_ROWS_CAP = 65_536
"""Most entries of one label fusion, in letters for words
(:func:`labelled_fusion`), and of a whole fusion table, summed over its rows
(:func:`labels_up_to`)."""


@dataclass(frozen=True)
class FusionLabel:
    """Category-specific name of an equivalence class of projectives.

    kind 'nat' carries an int, 'z2' a 0/1 word, 'alt' a w/b word, and
    'class' the canonical representative diagram.
    """

    kind: str
    value: Union[int, str, Partition]

    def render(self) -> Union[int, str]:
        if self.kind == "class":
            assert isinstance(self.value, Partition)
            return serialize(self.value)
        if self.kind == "alt":
            assert isinstance(self.value, str)
            return _runs_encode(self.value)
        return self.value

    def sort_token(self) -> tuple:
        v = self.value
        if isinstance(v, Partition):
            return (2, serialize(v))
        if isinstance(v, int):
            return (0, v)
        return (1, len(v), v)


@dataclass(frozen=True)
class FusionResult:
    """The projective diagrams of one fusion, tagged with through-counts."""

    members: tuple[tuple[Partition, int], ...]

    @property
    def partitions(self) -> list[Partition]:
        return [p for p, _ in self.members]


# ---------------------------------------------------------------------------
# partition-level fusion


def _check_projective_operands(p: Partition, q: Partition) -> None:
    if not (is_projective(p) and is_projective(q)):
        raise ValueError("fusion needs projective diagrams")
    n = p.n_blocks + q.n_blocks  # no graft has more blocks than p (x) q
    if n > len(_LETTERS):  # results are sorted by their text
        raise BoundsExceededError(f"p (x) q has {n} blocks; the grammar has 52 letters")


def _by_t_and_text(members: list[tuple[Partition, int]]) -> None:
    """Sort (diagram, t) pairs in place by t, then by text; each diagram is
    serialized once."""
    members.sort(key=lambda mt: (mt[1], serialize(mt[0])))


def fusion_candidates(p: Partition, q: Partition) -> list[Partition]:
    """All graftings of a mixing diagram between p and q, distinct by
    construction (distinct mixings give distinct grafts), sorted by
    through-block count, then text.

    Complete over the mixing enumeration at (t(p), t(q)); every candidate is
    projective and dominated by the plain tensor product.
    """
    _check_projective_operands(p, q)
    grafts = _graft(p, q, enumerate_mixing(stats(p).t, stats(q).t))
    members = [(m, stats(m).t) for m in grafts]
    _by_t_and_text(members)
    return [m for m, _ in members]


def fusion(spec: CategorySpec, p: Partition, q: Partition) -> FusionResult:
    """The fusion set inside the category: grafted candidates that belong.

    One graft routine serves both cases and builds the upper building
    diagrams of p and q once.  In a noncrossing category
    (:func:`~particat.categories.is_noncrossing_spec`) it grafts only the
    2 min(t(p), t(q)) + 1 nested mixings of :func:`~particat.structure.square`
    and :func:`~particat.structure.boxvert`; any other graft crosses.  A
    nested graft of noncrossing diagrams is noncrossing, so a noncrossing
    built-in checks its condition on the blocks alone; a generated category
    asks full membership.  Crossing categories graft every mixing diagram,
    as :func:`fusion_candidates` does, and raise
    :class:`~particat.categories.BoundsExceededError` past
    :data:`~particat.structure.MIXING_CAP` mixings.

    Distinct mixings give distinct grafts, so nothing is deduplicated; the
    members are sorted by through-block count, then text, and only they are
    serialized.  Membership of every candidate must be decidable; bounded
    generated categories raise on candidates beyond their bound rather than
    guessing.
    """
    if not (contains(spec, p) and contains(spec, q)):
        raise ValueError("both diagrams must belong to the category")
    _check_projective_operands(p, q)
    mixings = _nested_mixings if is_noncrossing_spec(spec) else enumerate_mixing
    grafts = _graft(p, q, mixings(stats(p).t, stats(q).t))
    belongs = partial(contains, spec)
    if mixings is _nested_mixings and spec.builtin is not None:
        belongs = _BUILTINS[spec.builtin].blocks_ok  # the grafts do not cross
    members = [(m, stats(m).t) for m in grafts if belongs(m)]
    _by_t_and_text(members)
    return FusionResult(tuple(members))


def fusion_brute_force(
    spec: CategorySpec, p: Partition, q: Partition
) -> FusionResult:
    """Independent oracle straight from the domination order.

    Enumerates every projective member at the joint arity, keeps those
    dominated by the tensor product, and discards any that are already
    dominated by a tensor with one factor strictly lowered inside the
    category.  Domination (pq = q) is read off the labels: p dominates q
    when p's upper-row partition refines q's and every non-through block of
    p is a block of q, so no test composes.  Each dominator, the tensor and
    every lowered tensor, is read once into a test that then runs over the
    whole pool.  Used to cross-validate :func:`fusion`; exponentially more
    expensive, so only viable at small arity.
    """
    if not (contains(spec, p) and contains(spec, q)):
        raise ValueError("both diagrams must belong to the category")
    _check_projective_operands(p, q)
    pq = tensor(p, q)
    below = _dominator(pq)
    lowered = [_dominator(tensor(l, q)) for l in _dominated_members(spec, p)] + [
        _dominator(tensor(p, r)) for r in _dominated_members(spec, q)
    ]
    out = []
    # p, q and every member kept below share color words, so domination
    # runs unchecked; uncolored members and pq both carry None
    for m in projectives(spec, p.upper + q.upper):
        if m.colors != pq.colors:
            continue
        if not below(m):
            continue
        if any(low(m) for low in lowered):
            continue
        out.append((m, stats(m).t))
    _by_t_and_text(out)
    return FusionResult(tuple(out))


# ---------------------------------------------------------------------------
# labels


def _runs_encode(word: str) -> str:
    """Run-length form of a w/b word: 'wwb' -> '2w1b'; empty word -> ''."""
    return "".join(f"{len(list(run))}{ch}" for ch, run in groupby(word))


# a run: an optional count of ASCII digits, at least 1, then its letter
_RUN = rf"(0*[1-9][0-9]*|)([{WHITE}{BLACK}])"


def runs_decode(text: str) -> str:
    """Inverse of the run-length form; also accepts a plain w/b word."""
    if not re.fullmatch(f"(?:{_RUN})*", text):
        raise ValueError(f"bad alternating word {text!r}")
    return "".join(ch * int(n or "1") for n, ch in re.findall(_RUN, text))


def label_for(spec: CategorySpec, p: Partition) -> FusionLabel:
    """The class label of a projective member in its category's scheme."""
    scheme = LABELLED_IDS.get(spec.builtin or "")
    if scheme in ("S", "O", "B"):
        return FusionLabel("nat", stats(p).t)
    if scheme == "H":
        return FusionLabel("z2", word_h(p))
    if scheme == "U":
        return FusionLabel("alt", word_u(p))
    return FusionLabel("class", p)


def _label_value(scheme: Optional[str], label: Union[int, str]) -> Union[int, str]:
    """A label, as text or value, read in its scheme: an int for S, O and B,
    a 0/1 word for H, a plain w/b word for U.  :func:`labelled_fusion` and
    :func:`label_to_partition` read every label here."""
    if scheme in ("S", "O", "B"):
        # ASCII digits only; a sign is read so that the range check refuses it
        if re.fullmatch("-?[0-9]+", str(label)):
            return int(label)
        raise GrammarError(f"expected a number label, got {label!r}")
    if scheme == "H":
        if set(str(label)) <= {"0", "1"}:
            return str(label)
        raise GrammarError(f"expected a 0/1 word label, got {label!r}")
    if scheme == "U":
        return runs_decode(str(label))
    raise GrammarError(
        f"{label!r} is not a diagram and the category has no label scheme"
    )


def label_to_partition(scheme: Optional[str], label: Union[int, str]) -> Partition:
    """Canonical representative diagram of a label, given as text or value.

    Natural number schemes use the k-strand identity, with the double
    singleton standing in for zero where singletons exist (scheme S) and the
    empty diagram elsewhere; word schemes tensor the single-block letters.
    """
    value = _label_value(scheme, label)
    if scheme in ("H", "U"):  # one single-block diagram per letter
        letters = {"0": "aa:aa", "1": "a:a", "w": "a@w:a@w", "b": "a@b:a@b"}
        rep = empty_partition(colored=scheme == "U")
        for ch in value:
            rep = tensor(rep, parse_partition(letters[ch]))
        return rep
    if value < 0:
        raise ValueError("labels are nonnegative")
    if value == 0:
        return parse_partition("a:b") if scheme == "S" else empty_partition()
    return identity(value)


def _answer_bound(k: Union[int, str], l: Union[int, str]) -> int:
    """Most entries of the fusion of two label values: 2 min(k, l) + 1
    labels, or (|k| + |l| + 1)^2 letters for words (min(|k|, |l|) + 1 cuts
    or fewer, each giving two words of at most |k| + |l| letters)."""
    if isinstance(k, str):
        return (len(k) + len(l) + 1) ** 2
    return 2 * min(k, l) + 1


def labels_up_to(scheme: str, m: int) -> list[Union[int, str]]:
    """The labels of size at most m in table order: 0..m for S, O and B;
    words over 0/1 (H) or w/b (U) by length, then letter order.  Builds
    at most the labels that :data:`TABLE_ROWS_CAP` admits, then refuses: the
    bound of :func:`labelled_fusion`, summed over the pairs of labels, caps
    the entries of the whole table."""
    if scheme in ("S", "O", "B"):
        labels = range(m + 1)
    elif scheme in ("H", "U"):
        letters = "01" if scheme == "H" else WHITE + BLACK
        labels = ("".join(w) for n in range(m + 1) for w in product(letters, repeat=n))
    else:
        raise ValueError(f"unknown label scheme {scheme!r}")
    out, entries = [], 0
    for a in labels:
        # the new pairs: (a, a), and (a, b) and (b, a) for every b before a
        entries += _answer_bound(a, a) + 2 * sum(_answer_bound(a, b) for b in out)
        if entries > TABLE_ROWS_CAP:
            raise BoundsExceededError(
                f"a fusion table up to label size {m} may pass "
                f"{TABLE_ROWS_CAP} entries"
            )
        out.append(a)
    return out


# ---------------------------------------------------------------------------
# free fusion semirings


@dataclass(frozen=True)
class FreeFusionSemiring:
    """Letters given by their involution, and a partial letter fusion law."""

    involution: tuple[tuple[str, str], ...]
    fusion_law: tuple[tuple[tuple[str, str], str], ...]

    def fuse(self, x: str, y: str) -> Optional[str]:
        return dict(self.fusion_law).get((x, y))

    def conj(self, word: str) -> str:
        bar = dict(self.involution)
        return "".join(bar[x] for x in reversed(word))


def semiring_tensor(s: FreeFusionSemiring, w: str, wp: str) -> list[str]:
    """The word tensor product, as a multiset of words.

    Sums over all splittings w = a z with the conjugate of z a prefix of w';
    each splitting contributes the concatenation and, when both remainders
    are nonempty and the touching letters fuse, the fused word.  The
    conjugate of z = w[cut:] is the prefix of conj(w) of length len(w) - cut,
    so w is conjugated once for all cuts.
    """
    wbar = s.conj(w)
    out = []
    for cut in range(len(w), -1, -1):
        zbar = wbar[: len(w) - cut]
        if not wp.startswith(zbar):
            continue
        a, b = w[:cut], wp[len(zbar) :]
        out.append(a + b)
        if a and b:
            fused = s.fuse(a[-1], b[0])
            if fused is not None:
                out.append(a[:-1] + fused + b[1:])
    return sorted(out, key=lambda word: (len(word), word))


def z2_semiring() -> FreeFusionSemiring:
    """Letters 0/1 counting block size mod 4; self-conjugate, additive fusion.

    Letter fusion is addition in Z2 because merging two through-blocks adds
    their sizes.  The letters are self-conjugate: reversing a diagram does
    not change block sizes.
    """
    return FreeFusionSemiring(
        (("0", "0"), ("1", "1")),
        ((("0", "0"), "0"), (("0", "1"), "1"), (("1", "0"), "1"), (("1", "1"), "0")),
    )


def alternating_semiring() -> FreeFusionSemiring:
    """Two mutually conjugate letters with no fusion at all."""
    return FreeFusionSemiring(((WHITE, BLACK), (BLACK, WHITE)), ())


# ---------------------------------------------------------------------------
# labelled fusion in closed form


def labelled_fusion(
    scheme: Optional[str], left: Union[int, str], right: Union[int, str]
) -> list[Union[int, str]]:
    """Closed-form fusion on labels, given as text or values, for the five
    standard schemes.

    S: all naturals from |k - l| to k + l.  O and B: the same range in steps
    of two.  H: the Z2-word semiring.  U: the alternating-word semiring.

    Raises :class:`~particat.categories.BoundsExceededError`, building
    nothing, when the answer may pass :data:`TABLE_ROWS_CAP` entries.
    """
    k, l = _label_value(scheme, left), _label_value(scheme, right)
    words = scheme in ("H", "U")
    if not words and (k < 0 or l < 0):
        raise ValueError("labels are nonnegative")
    if _answer_bound(k, l) > TABLE_ROWS_CAP:
        raise BoundsExceededError(f"label fusion may pass {TABLE_ROWS_CAP} entries")
    if words:
        semiring = z2_semiring() if scheme == "H" else alternating_semiring()
        return semiring_tensor(semiring, k, l)
    return list(range(abs(k - l), k + l + 1, 1 if scheme == "S" else 2))


# ---------------------------------------------------------------------------
# tensor power decomposition


def decompose_power(spec: CategorySpec, k: int) -> list[dict]:
    """Equivalence classes of the projective members at arity k; the one
    routine that groups an arity's projectives.

    Each record carries the canonical representative (the class's first
    member, as :func:`~particat.categories.projectives` is sorted by
    ``Partition.sort_key``), all members in that order, the through-block
    count, and the class label in the category's scheme.
    """
    records = [
        {
            "representative": cls[0],
            "members": cls,
            "t": stats(cls[0]).t,
            "label": label_for(spec, cls[0]),
        }
        for cls in _equivalence_classes(spec, projectives(spec, k))
    ]
    records.sort(key=lambda rec: (rec["t"], rec["label"].sort_token()))
    return records


# ---------------------------------------------------------------------------
# freeness evidence


def _block_as_partition(p: Partition, block: tuple[int, ...]) -> Partition:
    """A block of a diagram, re-read as a standalone single-block diagram."""
    ups = sum(1 for x in block if x < p.upper)
    colors = None if p.colors is None else tuple(p.colors[x] for x in block)
    return Partition(ups, len(block) - ups, (0,) * len(block), colors)


def freeness_probe(spec: CategorySpec, max_arity: int = 3) -> dict:
    """Evidence for a free fusion structure on a noncrossing category.

    Reports whether every block of every enumerated member stays in the
    category, the single-block letter set with its involution and merge
    fusion, and whether class labels at the tested arities embed injectively
    into words over the letters.

    Letters merge pairwise, so on a generated category the probe asks
    membership of diagrams of up to 4 * max_arity points.  A merged letter
    beyond the category's point bound raises
    :class:`~particat.categories.UndecidableMembershipError`, as
    :func:`~particat.categories.contains` does, instead of a guessed entry.
    """
    # block stability over all members at small sizes
    block_stable = all(
        contains(spec, _block_as_partition(p, b))
        for n in range(0, 2 * max_arity + 1)
        for k in range(n + 1)
        for p in enumerate_in(spec, k, n - k)
        for b in p.blocks
    )

    single_blocks = [
        p
        for k in range(1, max_arity + 1)
        for p in projectives(spec, k)
        if p.n_blocks == 1
    ]
    reps = [cls[0] for cls in _equivalence_classes(spec, single_blocks)]

    def letter_of(p: Partition) -> Optional[int]:
        # the letter whose class p joins; a class of p alone is no letter
        classes = _equivalence_classes(spec, reps + [p])
        return next((i for i, c in enumerate(classes) if p in c[1:]), None)

    involution_table = {}
    for idx, rep in enumerate(reps):
        # the conjugate letter is the mirror image: each row reversed and its
        # colors flipped; a letter's one block is its own mirror
        conj = rep
        if rep.colors is not None:
            mirror = rep.upper_colors()[::-1] + rep.lower_colors()[::-1]
            conj = conjugate_colors(Partition(rep.upper, rep.lower, rep.labels, mirror))
        involution_table[idx] = letter_of(conj)
    fusion_table = {}
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            merged = boxvert(a, b, 1)
            fusion_table[(i, j)] = (
                letter_of(merged) if contains(spec, merged) else None
            )

    # labels embed into words over the letters
    injective = complete = True
    for k in range(1, max_arity + 1):
        words = []
        for rec in decompose_power(spec, k):
            rep = rec["representative"]
            blocks = rep.blocks  # a block's label is its index
            words.append(tuple(
                letter_of(_block_as_partition(rep, blocks[x]))
                for x in sorted(_through(rep))
            ))
        complete = complete and all(None not in w for w in words)
        injective = injective and len(set(words)) == len(words)

    return {
        "category": spec.name(),
        "block_stable": block_stable,
        "letters": [serialize(r) for r in reps],
        "involution": involution_table,
        "fusion": {f"{i},{j}": v for (i, j), v in fusion_table.items()},
        "labels_injective": injective,
        "letters_complete": complete,
        "max_arity": max_arity,
    }
