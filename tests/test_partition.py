"""Core diagram type: grammar, canonical form, operations, predicates."""

import random
import sys
from typing import Iterator, NamedTuple, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from particat.partition import (
    ArityError,
    ColorError,
    GrammarError,
    Partition,
    all_set_partitions,
    compose,
    conjugate_colors,
    empty_partition,
    identity,
    involution,
    is_noncrossing,
    is_projective,
    parse_partition,
    rotate,
    serialize,
    stats,
    tensor,
    _flip,
    _from_word,
    _glue,
    _through,
    _word,
)
from particat import partition as partition_module, structure
from particat.categories import (
    CategorySpec,
    _diagrams,
    _projectives_uncached,
    enumerate_in,
)
from particat.fusion import _block_as_partition, fusion
from particat.matrix_model import t_map_rank
from particat.structure import to_through_partition, upper_building
from particat.verify import _partitions_up_to

from draws import colorings, random_partition

P1 = parse_partition("aab:accc")  # three blocks, one through
P2_CROSSING = Partition.make(2, 2, [(0, 3), (1, 2)])
P5_NESTED = Partition.make(4, 4, [(0, 3), (1, 2), (4, 7), (5, 6)])


# ---------------------------------------------------------------------------
# oracles: the former blocks-based diagram, rotation by per-corner remap
# tables and by the boundary-walk remap, the pairwise crossing test, the
# involution by a point swap and set partitions grouped from their growth
# strings, the library's former implementations


class BlockPartition(NamedTuple):
    """The diagram as the library stored it before its labels: canonical
    blocks, each an ascending tuple of point ids, ordered by least point.
    Its methods are the former operations on blocks, kept as the oracle of
    the label-based :class:`Partition`."""

    upper: int
    lower: int
    blocks: tuple[tuple[int, ...], ...]
    colors: Optional[tuple[str, ...]] = None

    @staticmethod
    def of(p: Partition) -> "BlockPartition":
        """The blocks of a diagram, grouped from its labels."""
        return BlockPartition.grouped(p.upper, p.labels, p.colors)

    def to_labels(self) -> Partition:
        return Partition(self.upper, self.lower, tuple(self.block_of()), self.colors)

    def block_of(self) -> list[int]:
        """Map point id -> index of its block in canonical order."""
        owner = [-1] * (self.upper + self.lower)
        for i, b in enumerate(self.blocks):
            for x in b:
                owner[x] = i
        return owner

    @staticmethod
    def grouped(k: int, labels, colors) -> "BlockPartition":
        """The diagram with k upper points of a block label per point."""
        groups: dict[int, list[int]] = {}
        for x, label in enumerate(labels):
            groups.setdefault(label, []).append(x)
        blocks = tuple(map(tuple, groups.values()))
        return BlockPartition(k, len(labels) - k, blocks, colors)

    def serialize(self) -> str:
        if len(self.blocks) > 52:
            raise ValueError("too many blocks for the letter grammar")
        owner = self.block_of()
        letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
        upper_word = "".join(letters[owner[i]] for i in range(self.upper))
        lower_word = "".join(letters[owner[self.upper + j]] for j in range(self.lower))
        if self.colors is None:
            return f"{upper_word}:{lower_word}"
        uc = "".join(self.colors[: self.upper])
        lc = "".join(self.colors[self.upper :])
        up = f"{upper_word}@{uc}" if self.upper else "@"
        lo = f"{lower_word}@{lc}" if self.lower else "@"
        return f"{up}:{lo}"

    @staticmethod
    def parse(text: str) -> "BlockPartition":
        """The grammar of well-formed text, grouping letters into blocks."""
        upper_text, lower_text = text.split(":")
        upper_word, _, upper_colors = upper_text.partition("@")
        lower_word, _, lower_colors = lower_text.partition("@")
        colors = tuple(upper_colors + lower_colors) if "@" in text else None
        blocks: dict[str, list[int]] = {}
        for pos, ch in enumerate(upper_word + lower_word):
            blocks.setdefault(ch, []).append(pos)
        return BlockPartition(
            len(upper_word), len(lower_word),
            tuple(map(tuple, blocks.values())), colors,
        )

    def sort_key(self) -> tuple[int, int, str]:
        return (self.upper + self.lower, self.upper, self.serialize())

    def word(self):
        k = self.upper
        owner = self.block_of()
        colors = self.colors
        if colors is not None:
            colors = tuple(map(_flip, colors[:k][::-1])) + colors[k:]
        return tuple(owner[:k][::-1] + owner[k:]), colors

    @staticmethod
    def from_word(word, k: int) -> "BlockPartition":
        labels, colors = word
        if colors is not None:
            colors = tuple(map(_flip, colors[:k][::-1])) + colors[k:]
        return BlockPartition.grouped(k, labels[:k][::-1] + labels[k:], colors)

    def tensor(self, q: "BlockPartition") -> "BlockPartition":
        k, l, k2 = self.upper, self.lower, q.upper
        blocks = [tuple(x if x < k else x + k2 for x in b) for b in self.blocks]
        blocks += [tuple(x + k if x < k2 else x + k + l for x in b) for b in q.blocks]
        blocks.sort()
        colors = None
        if self.colors is not None:
            colors = self.colors[:k] + q.colors[:k2] + self.colors[k:] + q.colors[k2:]
        return BlockPartition(k + k2, l + q.lower, tuple(blocks), colors)

    def compose(self, top: "BlockPartition") -> tuple["BlockPartition", int]:
        """``compose(self, top)``: top stacked over self, with its loops."""
        word, merges = _glue(top.word(), self.word(), top.lower)
        p = BlockPartition.from_word(word, top.upper)
        return p, len(top.blocks) + len(self.blocks) - merges - len(p.blocks)

    def involution(self) -> "BlockPartition":
        k = self.upper
        owner = self.block_of()
        colors = self.colors
        if colors is not None:
            colors = colors[k:] + colors[:k]
        return BlockPartition.grouped(self.lower, owner[k:] + owner[:k], colors)

    def rotate(self, corner: str) -> "BlockPartition":
        up = corner[0] == "u"
        if (self.upper if up else self.lower) == 0:
            raise ArityError(f"{'upper' if up else 'lower'} row is empty")
        labels, colors = self.word()
        if corner[1] != "l":
            i = 1 if up else -1
            labels = labels[i:] + labels[:i]
            if colors is not None:
                colors = colors[i:] + colors[:i]
        return BlockPartition.from_word(
            (labels, colors), self.upper - 1 if up else self.upper + 1
        )

    def stats(self) -> tuple[int, int, int]:
        b, k = len(self.blocks), self.upper
        t = len([blk for blk in self.blocks if blk[0] < k <= blk[-1]])
        return b, t, b - t

    def is_noncrossing(self) -> bool:
        k = self.upper
        owner = self.block_of()
        left = [len(b) for b in self.blocks]
        stack: list[int] = []
        for b in owner[:k][::-1] + owner[k:]:
            if left[b] == len(self.blocks[b]):
                stack.append(b)
            elif stack[-1] != b:
                return False
            left[b] -= 1
            if not left[b]:
                stack.pop()
        return True

    def is_projective(self) -> bool:
        k = self.upper
        if k != self.lower:
            raise ArityError("projectivity needs equal row sizes")
        if self.colors is not None and self.colors[:k] != self.colors[k:]:
            return False
        owner = self.block_of()
        for b in self.blocks:
            if b[0] >= k:
                break
            mirror = tuple(x + k for x in b if x < k)
            if b[-1] < k:
                if self.blocks[owner[mirror[0]]] != mirror:
                    return False
            elif b[len(mirror):] != mirror:
                return False
        return True


def rotate_by_tables(p: Partition, corner: str) -> Partition:
    """Move one outermost point to the other row, keeping all strings.

    ``ul``: leftmost upper point becomes leftmost lower point.
    ``ll``: leftmost lower point becomes leftmost upper point.
    ``ur``: rightmost upper point becomes rightmost lower point.
    ``lr``: rightmost lower point becomes rightmost upper point.

    In colored mode the moved point's color flips.
    """
    k, l = p.upper, p.lower
    if corner in ("ul", "ur"):
        if k == 0:
            raise ArityError("upper row is empty")
        new_k, new_l = k - 1, l + 1
        moved = 0 if corner == "ul" else k - 1
        if corner == "ul":
            # old upper i>0 -> i-1; old point 0 -> leftmost lower; lowers shift by 1
            remap = {0: new_k}
            for i in range(1, k):
                remap[i] = i - 1
            for j in range(l):
                remap[k + j] = new_k + 1 + j
        else:
            # old upper k-1 -> rightmost lower; lowers keep their slots
            remap = {k - 1: new_k + l}
            for i in range(k - 1):
                remap[i] = i
            for j in range(l):
                remap[k + j] = new_k + j
    else:
        if l == 0:
            raise ArityError("lower row is empty")
        new_k, new_l = k + 1, l - 1
        moved = k if corner == "ll" else k + l - 1
        if corner == "ll":
            remap = {k: 0}
            for i in range(k):
                remap[i] = i + 1
            for j in range(1, l):
                remap[k + j] = new_k + j - 1
        else:
            remap = {k + l - 1: k}
            for i in range(k):
                remap[i] = i
            for j in range(l - 1):
                remap[k + j] = new_k + j
    blocks = [tuple(remap[x] for x in b) for b in p.blocks]
    colors = None
    if p.colored:
        assert p.colors is not None
        new_colors = [""] * (k + l)
        for old, new in remap.items():
            c = p.colors[old]
            new_colors[new] = _flip(c) if old == moved else c
        colors = tuple(new_colors)
    return Partition.make(new_k, new_l, blocks, colors)


def _walk(k: int, l: int) -> list[int]:
    """Point ids of P(k, l) in clockwise boundary order: the upper row left
    to right, then the lower row right to left."""
    return [*range(k), *range(k + l - 1, k - 1, -1)]


def rotate_by_walk(p: Partition, corner: str) -> Partition:
    """Move one outermost point to the other row: the rows are the two arcs
    of the clockwise boundary walk, and the cut between them on the named
    side moves one point along the walk; a moved point's color flips."""
    k, l = p.upper, p.lower
    n = k + l
    up = corner[0] == "u"
    if (k if up else l) == 0:
        raise ArityError(f"{'upper' if up else 'lower'} row is empty")
    new_k = k - 1 if up else k + 1
    # the upper row starts one point later (earlier) on the walk when the
    # left cut moves; the right cut only changes where it ends
    start = (1 if up else -1) if corner[1] == "l" else 0
    new_walk = _walk(new_k, n - new_k)
    remap = [0] * n
    for i, x in enumerate(_walk(k, l)):
        remap[x] = new_walk[(i - start) % n]
    blocks = tuple(sorted(tuple(sorted(remap[x] for x in b)) for b in p.blocks))
    colors = None
    if p.colors is not None:
        new_colors = [""] * n
        for x, c in enumerate(p.colors):
            y = remap[x]
            new_colors[y] = c if (x < k) == (y < new_k) else _flip(c)
        colors = tuple(new_colors)
    return Partition.make(new_k, n - new_k, blocks, colors)


def involution_by_swap(p: Partition) -> Partition:
    """Turn the diagram upside down by mapping every point to its id in the
    swapped rows, then sorting each block and the block list."""
    k, l = p.upper, p.lower

    def swap(x: int) -> int:
        return x + l if x < k else x - k

    blocks = sorted(tuple(sorted(swap(x) for x in b)) for b in p.blocks)
    colors = None
    if p.colors is not None:
        colors = p.colors[k:] + p.colors[:k]
    return Partition.make(l, k, blocks, colors)


def set_partitions_by_emit(n: int):
    """All set partitions of 0..n-1 via restricted growth strings, each
    grouped by its own loop."""
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


def make_by_sets(upper, lower, blocks, colors=None) -> BlockPartition:
    """``Partition.make`` as the library first wrote it: a set, a sorted
    list and a tuple per block, then a walk over the blocks collecting the
    points.  It differs from ``make`` in two ways only: the set drops a
    point listed twice in one block, and negative row sizes pass."""
    n = upper + lower
    norm = tuple(sorted(tuple(sorted(set(b))) for b in blocks))
    seen: list[int] = []
    for b in norm:
        if not b:
            raise ValueError("empty block")
        seen.extend(b)
    if sorted(seen) != list(range(n)):
        raise ValueError(
            f"blocks must partition the {n} points exactly, got {sorted(seen)}"
        )
    col = None
    if colors is not None:
        col = tuple(colors)
        if len(col) != n:
            raise ColorError(f"expected {n} colors, got {len(col)}")
        bad = [c for c in col if c not in ("w", "b")]
        if bad:
            raise ColorError(f"colors must be 'w' or 'b', got {bad[0]!r}")
    return BlockPartition(upper, lower, norm, col)


def _boundary_positions(p: Partition) -> list[int]:
    """Position of each point on the diagram boundary, walked clockwise.

    Upper points come first left to right, then the lower points right to
    left, so strings can be drawn inside the disk without crossings exactly
    when no two blocks interleave in this order.
    """
    k, l = p.upper, p.lower
    pos = [0] * (k + l)
    for i in range(k):
        pos[i] = i
    for j in range(l):
        pos[k + j] = k + (l - 1 - j)
    return pos


def is_noncrossing_pairwise(p: Partition) -> bool:
    """True when no two blocks interleave in the cyclic boundary order."""
    pos = _boundary_positions(p)
    occ = [sorted(pos[x] for x in b) for b in p.blocks]
    nb = len(occ)
    for i in range(nb):
        for j in range(i + 1, nb):
            merged = sorted((q, 0) for q in occ[i]) + sorted((q, 1) for q in occ[j])
            merged.sort()
            changes = sum(
                1 for a, bb in zip(merged, merged[1:]) if a[1] != bb[1]
            )
            if changes >= 3:
                return False
    return True


def rand_rng():
    return random.Random(20240811)


class TestGrammar:
    def test_example_partition(self):
        assert P1.upper == 3 and P1.lower == 4
        assert P1.blocks == ((0, 1, 3), (2,), (4, 5, 6))

    def test_roundtrip(self):
        rng = rand_rng()
        for _ in range(300):
            k, l = rng.randrange(5), rng.randrange(5)
            p = random_partition(rng, k, l, colored=rng.random() < 0.5)
            assert parse_partition(serialize(p)) == p

    def test_noncanonical_letters_agree(self):
        assert parse_partition("ba:b") == parse_partition("ab:a")

    def test_empty(self):
        assert parse_partition(":") == empty_partition()

    def test_colored_crossing(self):
        p = parse_partition("ab@wb:ba@bw")
        assert p.colors == ("w", "b", "b", "w")
        assert p.blocks == ((0, 3), (1, 2))

    def test_errors(self):
        with pytest.raises(GrammarError):
            parse_partition("ab")
        with pytest.raises(GrammarError):
            parse_partition("a1:a")
        with pytest.raises(GrammarError):
            parse_partition("ab@w:ab@ww")
        with pytest.raises(GrammarError):
            parse_partition("ab@wb:ab")

    @pytest.mark.parametrize(
        "text,position",
        [
            ("ab:a1", 4),
            ("ab@wx:ab@ww", 4),
            ("ab@wb:ab@wq", 10),
            ("a:b:c", 3),
            ("abc", None),
        ],
    )
    def test_error_positions_index_the_input(self, text, position):
        with pytest.raises(GrammarError) as info:
            parse_partition(text)
        assert info.value.position == position
        assert ("position" in str(info.value)) == (position is not None)


BLOCK_KINDS = ("list", "tuple", "set", "generator")
FLAWS = (
    "empty block", "missing point", "out of range", "two blocks", "bad color",
    "repeat in block",
)


def _as_kind(kind: str, points: list[int]):
    if kind == "generator":
        return (x for x in points)
    return {"list": list, "tuple": tuple, "set": set}[kind](points)


@st.composite
def raw_make_args(draw, max_row=4):
    """Raw data for ``Partition.make``: the blocks shuffled, each block's
    points unsorted and each block a list, tuple, set or generator, with or
    without colors, and at most one flaw.  Returns the flaw (or None),
    whether a repeat within a block reaches make (a set block drops it),
    and a function building fresh arguments, since a generator is read
    once."""
    k = draw(st.integers(0, max_row))
    l = draw(st.integers(0, max_row))
    n = k + l
    blocks: list[list[int]] = []
    for x in range(n):  # a restricted growth string
        choice = draw(st.integers(0, len(blocks)))
        if choice == len(blocks):
            blocks.append([x])
        else:
            blocks[choice].append(x)
    blocks = [draw(st.permutations(b)) for b in draw(st.permutations(blocks))]
    colors = draw(st.none() | st.lists(st.sampled_from("wb"), min_size=n, max_size=n))
    flaw = draw(st.sampled_from((None,) + FLAWS))
    if not blocks and flaw in ("missing point", "two blocks", "repeat in block"):
        flaw = "out of range"
    if flaw == "empty block":
        blocks.insert(draw(st.integers(0, len(blocks))), [])
    elif flaw == "missing point":
        b = draw(st.sampled_from(blocks))
        b.remove(draw(st.sampled_from(b)))
    elif flaw == "out of range":
        point = draw(st.sampled_from((n, n + 1, -1)))
        if blocks and draw(st.booleans()):
            draw(st.sampled_from(blocks)).append(point)
        else:
            blocks.append([point])
    elif flaw == "two blocks":
        x = draw(st.integers(0, n - 1))
        others = [b for b in blocks if x not in b] + [[]]
        target = draw(st.sampled_from(others))
        if not target:
            blocks.append(target)
        target.append(x)
    elif flaw == "bad color":
        colors = draw(
            st.lists(st.sampled_from("wb"), min_size=n + 1, max_size=n + 1)
            | st.lists(st.sampled_from("wbx"), min_size=n, max_size=n).filter(
                lambda c: "x" in c
            )
        )
    elif flaw == "repeat in block":
        b = draw(st.sampled_from(blocks))
        b.insert(draw(st.integers(0, len(b))), draw(st.sampled_from(b)))
    kinds = [draw(st.sampled_from(BLOCK_KINDS)) for _ in blocks]
    outer_generator = draw(st.booleans())

    def args():
        raw = (_as_kind(kind, b) for kind, b in zip(kinds, blocks))
        return k, l, raw if outer_generator else list(raw), colors

    repeated = any(
        len(set(b)) < len(b) for kind, b in zip(kinds, blocks) if kind != "set"
    )
    if flaw == "repeat in block" and not repeated:
        flaw = None
    return flaw, repeated, args


def _outcome(make, args):
    try:
        return make(*args())
    except Exception as exc:
        return type(exc)


class TestCanonicalize:
    def test_make_validates(self):
        with pytest.raises(ValueError):
            Partition.make(1, 1, [(0,)])
        with pytest.raises(ValueError):
            Partition.make(1, 0, [(0,), (0,)])
        with pytest.raises(ColorError):
            Partition.make(1, 1, [(0, 1)], colors=("w",))

    @pytest.mark.parametrize("upper, lower", [(-1, 2), (2, -1), (-1, -1)])
    def test_negative_row_sizes_refused(self, upper, lower):
        with pytest.raises(ArityError, match="nonnegative"):
            Partition.make(upper, lower, [[0]])

    def test_point_twice_in_one_block_refused(self):
        with pytest.raises(ValueError, match="partition the 2 points exactly"):
            Partition.make(1, 1, [[0, 0, 1]])

    def test_former_make_accepted_both(self):
        # a two-point row built from one point, and a repeat dropped
        assert make_by_sets(-1, 2, [[0]]).serialize() == ":aa"
        assert make_by_sets(1, 1, [[0, 0, 1]]).serialize() == "a:a"

    @settings(max_examples=400, deadline=None)
    @given(raw_make_args())
    def test_matches_former_make(self, case):
        flaw, repeated, args = case
        got, want = _outcome(Partition.make, args), _outcome(make_by_sets, args)
        if repeated:
            # the one divergence on nonnegative rows: a repeat fails the
            # exact cover, where the former make's set dropped it
            assert got is ValueError and isinstance(want, BlockPartition)
        elif isinstance(want, BlockPartition):
            assert flaw is None
            assert got == want.to_labels() and hash(got) == hash(want.to_labels())
            assert BlockPartition.of(got) == want
            assert type(got.labels) is tuple
        else:
            assert flaw is not None
            assert got is want


class TestStats:
    def test_example_counts(self):
        assert stats(P1) == stats(P1).__class__(3, 1, 2)
        st = stats(P1)
        assert (st.b, st.t, st.beta) == (3, 1, 2)

    def test_identity(self):
        for k in range(5):
            st = stats(identity(k))
            assert (st.b, st.t, st.beta) == (k, k, 0)

    def test_beta_definition(self):
        rng = rand_rng()
        for _ in range(200):
            p = random_partition(rng, rng.randrange(6), rng.randrange(6))
            st = stats(p)
            assert st.beta == st.b - st.t >= 0

    def test_through_count_counts_through_blocks(self):
        # the labels the two rows share, against the blocks meeting both
        # rows, on every diagram of up to 7 points; t_map_rank counts them
        # too
        for p in _partitions_up_to(7):
            k = p.upper
            t = len([b for b in p.blocks if b[0] < k <= b[-1]])
            assert len(_through(p)) == stats(p).t == t
            assert t_map_rank(p, 2) == 2**t


class TestTensor:
    def test_identity_strands(self):
        assert tensor(identity(1), identity(1)) == identity(2)

    def test_example_stats_add(self):
        st = stats(tensor(P1, P1))
        assert (st.b, st.t, st.beta) == (6, 2, 4)

    def test_stats_additive_random(self):
        rng = rand_rng()
        for _ in range(500):
            p = random_partition(rng, rng.randrange(4), rng.randrange(4))
            q = random_partition(rng, rng.randrange(4), rng.randrange(4))
            sp, sq, spq = stats(p), stats(q), stats(tensor(p, q))
            assert spq.b == sp.b + sq.b
            assert spq.t == sp.t + sq.t
            assert spq.beta == sp.beta + sq.beta

    def test_empty_is_unit(self):
        rng = rand_rng()
        p = random_partition(rng, 3, 2)
        assert tensor(p, empty_partition()) == p
        assert tensor(empty_partition(), p) == p

    def test_color_mixing_rejected(self):
        with pytest.raises(ColorError):
            tensor(identity(1), identity(1, colors="w"))


class TestCompose:
    def test_identity_neutral(self):
        rng = rand_rng()
        for _ in range(100):
            p = random_partition(rng, rng.randrange(5), rng.randrange(5))
            res = compose(p, identity(p.upper))
            assert res.partition == p and res.removed_loops == 0
            res = compose(identity(p.lower), p)
            assert res.partition == p and res.removed_loops == 0

    def test_block_count_not_determined_by_invariants(self):
        # two compositions sharing all of b, t and loop data may still
        # produce different block counts
        p1 = Partition.make(4, 4, [(0, 1), (2, 3, 6, 7), (4, 5)])
        q1 = Partition.make(4, 4, [(0, 1), (2, 3, 4, 7), (5, 6)])
        p2 = Partition.make(4, 4, [(0, 1, 6, 7), (2, 3), (4, 5)])
        q2 = Partition.make(4, 4, [(0, 1), (2, 3, 6, 7), (4, 5)])
        for a, b in ((p1, p2), (q1, q2)):
            assert stats(a).b == stats(b).b and stats(a).t == stats(b).t
        r1, l1 = compose(p1, q1)
        r2, l2 = compose(p2, q2)
        assert l1 == l2 == 0
        assert stats(r1).b == 3 and stats(r2).b == 4

    def test_building_collapse_with_loop(self):
        s = parse_partition("aab:a")
        res = compose(s, involution(s))
        assert res.partition == identity(1)
        assert res.removed_loops == 1

    def test_isolated_middle_counts_as_loop(self):
        top = parse_partition("a:b")  # singleton above a singleton
        bottom = parse_partition("a:b")
        res = compose(bottom, top)
        assert res.removed_loops == 1
        assert res.partition == parse_partition("a:b")

    def test_associativity_and_loop_identity(self):
        rng = rand_rng()
        for _ in range(500):
            k, l, m, n = (rng.randrange(4) for _ in range(4))
            r = random_partition(rng, m, n)
            q = random_partition(rng, l, m)
            p = random_partition(rng, k, l)
            qp, rl_qp = compose(q, p)
            left, rl_left = compose(r, qp)
            rq, rl_rq = compose(r, q)
            right, rl_right = compose(rq, p)
            assert left == right
            assert rl_qp + rl_left == rl_rq + rl_right

    def test_through_monotone(self):
        rng = rand_rng()
        for _ in range(300):
            k, l, m = (rng.randrange(5) for _ in range(3))
            top = random_partition(rng, k, l)
            bottom = random_partition(rng, l, m)
            t_res = stats(compose(bottom, top).partition).t
            assert t_res <= min(stats(top).t, stats(bottom).t)

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            compose(identity(2), identity(3))

    def test_color_mismatch(self):
        w = identity(1, colors="w")
        b = identity(1, colors="b")
        assert compose(w, w).partition == w
        with pytest.raises(ColorError):
            compose(b, w)


class TestInvolution:
    def test_involutive(self):
        rng = rand_rng()
        for _ in range(200):
            p = random_partition(rng, rng.randrange(5), rng.randrange(5),
                                 colored=rng.random() < 0.3)
            assert involution(involution(p)) == p

    def test_identity_fixed(self):
        assert involution(identity(1)) == identity(1)

    def test_example_stats_preserved(self):
        q = involution(P1)
        assert (q.upper, q.lower) == (4, 3)
        st = stats(q)
        assert (st.b, st.t, st.beta) == (3, 1, 2)

    def test_antihomomorphism(self):
        rng = rand_rng()
        for _ in range(500):
            k, l, m = (rng.randrange(4) for _ in range(3))
            top = random_partition(rng, k, l)
            bottom = random_partition(rng, l, m)
            res, loops = compose(bottom, top)
            res_star, loops_star = compose(involution(top), involution(bottom))
            assert res_star == involution(res)
            assert loops_star == loops


class TestRotate:
    CORNERS = (("ul", "ll"), ("ll", "ul"), ("ur", "lr"), ("lr", "ur"))

    def test_rotation_inverses(self):
        rng = rand_rng()
        count = 0
        while count < 500:
            p = random_partition(rng, rng.randrange(4), rng.randrange(4),
                                 colored=rng.random() < 0.3)
            for corner, back in self.CORNERS:
                if corner in ("ul", "ur") and p.upper == 0:
                    continue
                if corner in ("ll", "lr") and p.lower == 0:
                    continue
                assert rotate(rotate(p, corner), back) == p
                count += 1

    def test_white_identity_rotates_to_mixed_pair(self):
        p = rotate(identity(1, colors="w"), "ul")
        assert (p.upper, p.lower) == (0, 2)
        assert p.blocks == ((0, 1),)
        assert set(p.colors) == {"w", "b"}

    def test_empty_row_rejected(self):
        with pytest.raises(ArityError):
            rotate(parse_partition(":a"), "ul")


def _rotation_or_error(rotation, p: Partition, corner: str):
    try:
        return rotation(p, corner)
    except ArityError as exc:
        return ArityError, str(exc)


@st.composite
def colored_partitions(draw, max_row=4):
    k = draw(st.integers(0, max_row))
    l = draw(st.integers(0, max_row))
    blocks: list[list[int]] = []
    for x in range(k + l):  # a restricted growth string
        choice = draw(st.integers(0, len(blocks)))
        if choice == len(blocks):
            blocks.append([x])
        else:
            blocks[choice].append(x)
    colors = draw(st.lists(st.sampled_from("wb"), min_size=k + l, max_size=k + l))
    return Partition.make(k, l, blocks, colors)


class TestBoundaryWalk:
    """Rotation, which reads the word back at a moved cut, and the crossing
    test, which scans the word, against the per-corner tables, the remap
    along the clockwise boundary walk (:func:`_walk`, kept here) and the
    pairwise crossing test they replaced; an empty row's refusal included."""

    CORNERS = ("ul", "ll", "ur", "lr")

    def assert_rotations_match(self, p: Partition) -> None:
        for corner in self.CORNERS:
            got = _rotation_or_error(rotate, p, corner)
            assert got == _rotation_or_error(rotate_by_tables, p, corner)
            assert got == _rotation_or_error(rotate_by_walk, p, corner)

    def test_matches_oracles_up_to_eight_points(self):
        for n in range(9):
            for labels in all_set_partitions(n):
                for k in range(n + 1):
                    p = Partition(k, n - k, labels)
                    assert is_noncrossing(p) == is_noncrossing_pairwise(p)
                    self.assert_rotations_match(p)

    @settings(max_examples=200, deadline=None)
    @given(colored_partitions())
    def test_matches_oracles_colored(self, p):
        assert is_noncrossing(p) == is_noncrossing_pairwise(p)
        self.assert_rotations_match(p)


class TestLabelReader:
    """The blocks grouped from the labels, against the growth-string
    grouping, and the involution against the point swap it replaced."""

    def test_set_partitions_match_oracle_in_order(self):
        # the order is part of the contract: _projectives_uncached names
        # the first undecidable candidate it meets
        for n in range(10):
            grouped = [Partition(0, n, rgs).blocks for rgs in all_set_partitions(n)]
            assert grouped == list(set_partitions_by_emit(n))

    def test_bounded_set_partitions_filter_the_full_list(self):
        # the block bound prunes the walk; the result is the full walk
        # filtered, in the same order, and a lazy iterator either way
        for n in range(9):
            full = all_set_partitions(n)
            assert isinstance(full, Iterator)
            full = list(full)
            for most in range(n + 2):
                bounded = all_set_partitions(n, most)
                assert isinstance(bounded, Iterator)
                assert list(bounded) == [
                    g for g in full if max(g, default=-1) < most
                ]

    @settings(max_examples=200, deadline=None)
    @given(colored_partitions())
    def test_round_trip(self, p):
        assert Partition.make(p.upper, p.lower, p.blocks, p.colors) == p

    @settings(max_examples=300, deadline=None)
    @given(colored_partitions(), st.booleans())
    @example(parse_partition("@:abba@wbbw"), True)  # k = 0
    @example(parse_partition("aab@bwb:@"), True)  # l = 0
    @example(parse_partition(":"), False)
    def test_involution_matches_swap(self, p, colored):
        if not colored:
            p = p._replace(colors=None)
        assert involution(p) == involution_by_swap(p)


@st.composite
def block_diagrams(draw, upper=None, upper_colors=None, colored=None, max_points=9):
    """A former blocks-based diagram of at most ``max_points`` points,
    colored or not; ``upper`` and ``upper_colors`` fix its upper row."""
    k = draw(st.integers(0, max_points)) if upper is None else upper
    l = draw(st.integers(0, max_points - k))
    labels, opened = [], 0
    for _ in range(k + l):  # a restricted growth string
        label = draw(st.integers(0, opened))
        opened += label == opened
        labels.append(label)
    if colored is None:
        colored = upper_colors is not None or draw(st.booleans())
    colors = None
    if colored:
        if upper_colors is None:
            upper_colors = draw(st.lists(st.sampled_from("wb"), min_size=k, max_size=k))
        lower_colors = draw(st.lists(st.sampled_from("wb"), min_size=l, max_size=l))
        colors = tuple(upper_colors) + tuple(lower_colors)
    return BlockPartition.grouped(k, tuple(labels), colors)


@st.composite
def composable_block_diagrams(draw):
    """(top, bottom) with bottom's upper row the lower row of top."""
    top = draw(block_diagrams())
    colors = None if top.colors is None else top.colors[top.upper :]
    bottom = draw(block_diagrams(top.lower, colors, top.colors is not None))
    return top, bottom


def assert_matches_former(bp: BlockPartition) -> None:
    """Every single-diagram operation on labels against the former one on
    blocks."""
    p = bp.to_labels()
    assert BlockPartition.of(p) == bp and p.blocks == bp.blocks
    text = serialize(p)
    assert text == bp.serialize()
    assert parse_partition(text) == p and BlockPartition.parse(text) == bp
    shuffled = [b[::-1] for b in reversed(bp.blocks)]
    assert Partition.make(p.upper, p.lower, shuffled, p.colors) == p
    word = _word(p)
    assert word == bp.word()
    for k in range(p.n_points + 1):
        assert _from_word(word, k) == BlockPartition.from_word(word, k).to_labels()
    assert involution(p) == bp.involution().to_labels()
    for corner in ("ul", "ll", "ur", "lr"):
        try:
            want = bp.rotate(corner).to_labels()
        except ArityError:
            with pytest.raises(ArityError):
                rotate(p, corner)
        else:
            assert rotate(p, corner) == want
    assert tuple(stats(p)) == bp.stats()
    assert is_noncrossing(p) == bp.is_noncrossing()
    if p.upper == p.lower:
        assert is_projective(p) == bp.is_projective()
    else:
        with pytest.raises(ArityError):
            is_projective(p)


def assert_pair_matches_former(top: BlockPartition, bottom: BlockPartition) -> None:
    """Composition with its loop count, the tensor products and the sort
    order on labels against the former ones on blocks."""
    p, q = top.to_labels(), bottom.to_labels()
    got = compose(q, p)
    want, loops = bottom.compose(top)
    assert got == (want.to_labels(), loops)
    assert tensor(p, q) == top.tensor(bottom).to_labels()
    assert tensor(q, p) == bottom.tensor(top).to_labels()
    diagrams = [p, q, got.partition, involution(p)]
    by_labels = sorted(diagrams, key=Partition.sort_key)
    by_blocks = sorted(map(BlockPartition.of, diagrams), key=BlockPartition.sort_key)
    assert list(map(BlockPartition.of, by_labels)) == by_blocks


class TestFormerBlocks:
    """The label-based diagram against the blocks-based one it replaced:
    text, make, words, the four operations, the counts, the predicates and
    the sort order, on up to 9 points, colored and uncolored."""

    @settings(max_examples=400, deadline=None)
    @given(block_diagrams())
    @example(BlockPartition(0, 0, (), None))
    @example(BlockPartition(0, 0, (), ()))
    def test_single_diagram(self, bp):
        assert_matches_former(bp)

    @settings(max_examples=300, deadline=None)
    @given(composable_block_diagrams())
    def test_pairs(self, pair):
        assert_pair_matches_former(*pair)

    def test_past_26_blocks(self):
        # three diagrams of P(27, 2): the 27th upper point opens block 26,
        # written 'A', or joins block 0 ('a') or block 25 ('z')
        upper = tuple(range(26))
        x = BlockPartition.grouped(27, upper + (26, 26, 0), None)
        y = BlockPartition.grouped(27, upper + (0, 0, 25), None)
        z = BlockPartition.grouped(27, upper + (25, 25, 0), None)
        for bp in (x, y, z):
            assert_matches_former(bp)
        assert x.serialize() == "abcdefghijklmnopqrstuvwxyzA:Aa"
        # text order, where 'A' sorts first, is not label order
        labels = [bp.to_labels().labels for bp in (x, y, z)]
        assert sorted(labels) == [labels[1], labels[2], labels[0]]
        assert sorted((z, y, x), key=BlockPartition.sort_key) == [x, y, z]
        assert_pair_matches_former(x, x.involution())  # 52 blocks, every letter
        assert len(x.involution().compose(x)[0].blocks) == 52
        wide = BlockPartition.grouped(53, tuple(range(53)), None)
        with pytest.raises(ValueError, match="too many blocks"):
            wide.serialize()
        with pytest.raises(ValueError, match="too many blocks"):
            serialize(wide.to_labels())


def projective_by_composition(p: Partition) -> bool:
    """The definition p = p* = p², by flipping and composing: the oracle
    for the block reading of :func:`is_projective`, the library's former
    implementation, on square diagrams."""
    return p == involution(p) and compose(p, p).partition == p


def square_diagrams(max_points: int, colored: bool):
    """Every diagram in P(k, k) with 2k <= max_points, in every coloring."""
    for k in range(max_points // 2 + 1):
        for labels in all_set_partitions(2 * k):
            p = Partition(k, k, labels)
            yield from colorings(p) if colored else [p]


class TestPredicates:
    def test_crossing_not_projective(self):
        # symmetric, but its square is the identity
        assert P2_CROSSING == involution(P2_CROSSING)
        assert not is_projective(P2_CROSSING)
        assert not projective_by_composition(P2_CROSSING)

    def test_nested_double_pair_projective(self):
        assert is_projective(P5_NESTED)
        assert projective_by_composition(P5_NESTED)

    def test_rectangular_raises(self):
        rectangular = [p for p in _partitions_up_to(5) if p.upper != p.lower]
        for p in [P1, *rectangular]:
            with pytest.raises(ArityError, match="equal row sizes"):
                is_projective(p)

    def test_crossing_detection(self):
        assert not is_noncrossing(P2_CROSSING)
        assert is_noncrossing(P1)
        assert is_noncrossing(P5_NESTED)

    def test_noncrossing_projective_iff_symmetric(self):
        for k in range(1, 4):
            for labels in all_set_partitions(2 * k):
                p = Partition(k, k, labels)
                if not is_noncrossing(p):
                    continue
                assert is_projective(p) == (p == involution(p))

    @pytest.mark.parametrize("max_points, colored", [(8, False), (6, True)])
    def test_block_reading_matches_definition(self, max_points, colored):
        seen = {True: 0, False: 0}
        for p in square_diagrams(max_points, colored):
            got = is_projective(p)
            assert got == projective_by_composition(p), p
            seen[got] += 1
        assert seen[True] and seen[False]

    def test_no_composition_or_flip(self, monkeypatch):
        # op budget: the block reading composes and flips nothing, wherever
        # compose and involution are bound, and neither do fusion's operand
        # check and its grafts of the nested mixings of id3 with itself
        calls = {"compose": 0, "involution": 0}
        for name in calls:
            real = getattr(partition_module, name)

            def counting(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            for module in list(sys.modules.values()):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counting)
        for p in square_diagrams(6, True):
            is_projective(p)
        assert calls == {"compose": 0, "involution": 0}
        res = fusion(CategorySpec.named("nc"), identity(3), identity(3))
        assert res.members
        assert calls == {"compose": 0, "involution": 0}


class TestColors:
    def test_conjugate_involutive(self):
        rng = rand_rng()
        for _ in range(100):
            p = random_partition(rng, rng.randrange(4), rng.randrange(4),
                                 colored=True)
            assert conjugate_colors(conjugate_colors(p)) == p

    def test_white_identity_flips_to_black(self):
        assert conjugate_colors(identity(1, colors="w")) == identity(1, colors="b")

    def test_uncolored_rejected(self):
        with pytest.raises(ColorError):
            conjugate_colors(identity(1))


class TestValueSemantics:
    """A diagram is a value: its fields cannot be assigned, and equality and
    the hash are those of the four fields, so set and dict layouts depend
    on the diagram's data only."""

    def test_fields_cannot_be_assigned(self):
        p = parse_partition("aab:accc")
        for field, value in (
            ("upper", 2), ("lower", 0), ("labels", ()), ("colors", ("w",))
        ):
            with pytest.raises(AttributeError):
                setattr(p, field, value)
        assert p == parse_partition("aab:accc")

    @settings(max_examples=100, deadline=None)
    @given(colored_partitions(), st.booleans())
    def test_hash_and_equality_follow_the_fields(self, p, colored):
        if not colored:
            p = Partition.make(p.upper, p.lower, p.blocks)
        assert hash(p) == hash((p.upper, p.lower, p.labels, p.colors))
        made = Partition.make(p.upper, p.lower, p.blocks, p.colors)
        assert made == p and hash(made) == hash(p)


# ---------------------------------------------------------------------------
# trusted construction: sites that build Partition directly, against make


def assert_canonical(p: Partition) -> None:
    """p is what Partition.make builds from its own blocks, with tuple
    labels (a list would compare unequal to make's tuple and break
    hashing)."""
    made = Partition.make(p.upper, p.lower, p.blocks, p.colors)
    assert made == p and hash(made) == hash(p)
    assert type(p.labels) is tuple
    assert all(type(x) is int for x in p.labels)


@st.composite
def diagram_texts(draw, max_row=4):
    """Letter-grammar text with arbitrary letters, optionally colored, and
    the raw blocks and colors it names."""
    k = draw(st.integers(0, max_row))
    l = draw(st.integers(0, max_row))
    letters = draw(st.lists(st.sampled_from("xbQaZ"), min_size=k + l, max_size=k + l))
    raw: dict[str, list[int]] = {}
    for x, ch in enumerate(letters):
        raw.setdefault(ch, []).append(x)
    upper, lower = "".join(letters[:k]), "".join(letters[k:])
    colors = None
    if draw(st.booleans()):
        colors = draw(st.lists(st.sampled_from("wb"), min_size=k + l, max_size=k + l))
        upper += "@" + "".join(colors[:k])
        lower += "@" + "".join(colors[k:])
    return f"{upper}:{lower}", k, l, list(raw.values()), colors


class TestTrustedConstruction:
    """Every library site that skips Partition.make builds what make would."""

    @settings(max_examples=200, deadline=None)
    @given(diagram_texts())
    def test_parse(self, case):
        text, k, l, raw, colors = case
        p = parse_partition(text)
        assert p == Partition.make(k, l, raw, colors)
        assert_canonical(p)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 5), st.integers(0, 5), st.booleans())
    def test_random_partition(self, seed, k, l, colored):
        assert_canonical(random_partition(random.Random(seed), k, l, colored))

    def test_empty_and_identity(self):
        for colored in (False, True):
            assert_canonical(empty_partition(colored))
        for k in range(6):
            assert_canonical(identity(k))
            assert identity(k) == Partition.make(k, k, [(i, k + i) for i in range(k)])

    @settings(max_examples=60, deadline=None)
    @given(colored_partitions())
    def test_conjugate_colors(self, p):
        assert_canonical(conjugate_colors(p))

    @settings(max_examples=60, deadline=None)
    @given(colored_partitions(max_row=3), st.booleans())
    def test_closure_diagrams_and_colorings(self, p, colored):
        if not colored:
            p = Partition.make(p.upper, p.lower, p.blocks)
        diagrams = list(_diagrams(_word(p)))
        assert p in diagrams
        for q in diagrams:
            assert_canonical(q)
        for q in colorings(Partition.make(p.upper, p.lower, p.blocks)):
            assert_canonical(q)

    @pytest.mark.parametrize(
        "name", ["p", "p2", "nc", "nc2", "ncb", "nceven", "ucol"]
    )
    def test_enumerate_in_and_projectives(self, name):
        spec = CategorySpec.named(name)
        for n in range(6):
            for k in range(n + 1):
                for q in enumerate_in(spec, k, n - k):
                    assert_canonical(q)
        for k in range(4):
            for q in _projectives_uncached(spec, k):
                assert_canonical(q)

    def test_verify_partitions(self):
        for q in _partitions_up_to(5):
            assert_canonical(q)

    @settings(max_examples=100, deadline=None)
    @given(colored_partitions(), st.booleans())
    def test_building_and_blocks(self, p, colored):
        if not colored:
            p = Partition.make(p.upper, p.lower, p.blocks)
        assert_canonical(upper_building(p))
        for b in p.blocks:
            ups = [x for x in b if x < p.upper]
            colors = None if p.colors is None else [p.colors[x] for x in b]
            single = _block_as_partition(p, b)
            raw = [range(len(b))]
            assert single == Partition.make(len(ups), len(b) - len(ups), raw, colors)
            assert_canonical(single)

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(range(5)).flatmap(
        lambda s: st.integers(0, 5).map(lambda m: tuple(x for x in s if x < m))
    ), st.booleans())
    def test_through_partition(self, sigma, colored):
        assert_canonical(to_through_partition(sigma, colored))

    def test_mixings_and_stacks(self, monkeypatch):
        for k in range(4):
            for l in range(4):
                mixings = structure.enumerate_mixing(k, l)
                for h in [*mixings, *structure._nested_mixings(k, l)]:
                    assert_canonical(h.partition)
        # every stack, recorded as the one stacking routine yields it: 17
        # grafts on one frame, 6 symmetry witnesses, 1 recomposition
        stacked = []
        real = structure._stack

        def recording(s, q, middles):
            for m in real(s, q, middles):
                stacked.append(m)
                yield m

        monkeypatch.setattr(structure, "_stack", recording)
        p = parse_partition("ab@wb:ab@wb")
        q = parse_partition("aab@bwb:aab@bwb")
        structure._graft(p, q, structure.enumerate_mixing(2, 2))
        structure.sym_group(CategorySpec.named("p"), identity(3))
        r = parse_partition("abca@wbbw:cbd@bww")
        assert structure.through_block_decomposition(r).recompose() == r
        assert len(stacked) == len(structure.enumerate_mixing(2, 2)) + 6 + 1
        for m in stacked:
            assert_canonical(m)

    def test_parse_and_enumerate_skip_make(self, monkeypatch):
        # op budget: the parser and enumerate_in build every diagram directly
        made = []
        real_make = Partition.make

        def counting_make(*args):
            made.append(args)
            return real_make(*args)

        monkeypatch.setattr(Partition, "make", staticmethod(counting_make))
        parse_partition("aab:accc")
        parse_partition("ab@wb:ba@bw")
        assert enumerate_in(CategorySpec.named("nc"), 2, 3)
        assert enumerate_in(CategorySpec.named("ucol"), 2, 2)
        assert made == []
