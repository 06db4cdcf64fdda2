"""Fusion sets, labels, free fusion semirings, freeness evidence."""

import sys
from itertools import product

import pytest

from particat import fusion as fusion_module
from particat import structure
from particat.partition import (
    GrammarError,
    Partition,
    conjugate_colors,
    empty_partition,
    identity,
    is_noncrossing,
    parse_partition,
    serialize,
    stats,
    tensor,
)
from particat.structure import boxvert, word_h, word_u
from particat.categories import (
    BoundsExceededError,
    CategorySpec,
    UndecidableMembershipError,
    contains,
    projectives,
)
from particat.fusion import (
    TABLE_ROWS_CAP,
    FreeFusionSemiring,
    alternating_semiring,
    decompose_power,
    freeness_probe,
    fusion,
    fusion_brute_force,
    fusion_candidates,
    label_for,
    label_to_partition,
    labelled_fusion,
    labels_up_to,
    runs_decode,
    semiring_tensor,
    z2_semiring,
)
from particat.matrix_model import projection_rank

NC = CategorySpec.named("nc")
NC2 = CategorySpec.named("nc2")
NCB = CategorySpec.named("ncb")
NCEVEN = CategorySpec.named("nceven")
UCOL = CategorySpec.named("ucol")
FOURBLOCK = parse_partition("aa:aa")
P2 = CategorySpec.named("p2")


def t_values(res):
    """The through-counts of a fusion result, in its order."""
    return [t for _, t in res.members]


def single_loop_semiring():
    """One self-conjugate letter that fuses with itself (scheme S)."""
    return FreeFusionSemiring((("a", "a"),), ((("a", "a"), "a"),))


def single_arc_semiring():
    """One self-conjugate letter without fusion (schemes O and B)."""
    return FreeFusionSemiring((("a", "a"),), ())


def z2_words(max_len):
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + ch for w in frontier for ch in "01"]
        out.extend(frontier)
    return out


def color_words(max_len):
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + ch for w in frontier for ch in "wb"]
        out.extend(frontier)
    return out


class TestCandidates:
    def test_counts(self):
        assert len(fusion_candidates(identity(1), identity(1))) == 3
        p0 = parse_partition("a:b")
        assert fusion_candidates(p0, identity(2)) == [tensor(p0, identity(2))]

    def test_all_distinct(self):
        pool = projectives(NC, 2)
        for p in pool:
            for q in pool:
                cands = fusion_candidates(p, q)
                assert len(cands) == len(set(cands))


class TestFusionSets:
    def test_refuses_past_the_letter_grammar(self):
        # p (x) q of 53 blocks: results are sorted by their text, which
        # names at most 52 blocks
        p, q = identity(26), identity(27)
        for call in (lambda: fusion(NC, p, q), lambda: fusion_candidates(p, q)):
            with pytest.raises(BoundsExceededError, match="53 blocks"):
                call()
        assert t_values(fusion(NC, identity(25), q)) == list(range(2, 53))

    def test_loop_family_through_values(self):
        res = fusion(NC, identity(1), identity(1))
        assert t_values(res) == [0, 1, 2]

    def test_pair_family_through_values(self):
        res = fusion(NC2, identity(1), identity(1))
        assert t_values(res) == [0, 2]

    def test_no_quadruples_in_pair_family(self):
        pool = projectives(NC2, 1) + projectives(NC2, 2)
        for p in pool:
            for q in pool:
                for m in fusion(NC2, p, q).partitions:
                    assert all(len(b) == 2 for b in m.blocks)

    def test_through_value_bookkeeping(self):
        pool = []
        for k in range(0, 3):
            pool.extend(projectives(NC, k))
        for p in pool:
            for q in pool:
                tp, tq = stats(p).t, stats(q).t
                allowed = {tp + tq - 2 * a for a in range(min(tp, tq) + 1)}
                allowed |= {
                    tp + tq - 2 * b + 1 for b in range(1, min(tp, tq) + 1)
                }
                got = t_values(fusion(NC, p, q))
                assert set(got) <= allowed
                assert len(got) == len(set(got))

    def test_oracle_agreement_small(self):
        for name in ("nc", "nc2", "nceven", "ncb", "p", "p2"):
            spec = CategorySpec.named(name)
            pool = []
            for k in range(0, 3):
                pool.extend(projectives(spec, k))
            for p in pool:
                for q in pool:
                    assert (
                        fusion(spec, p, q).members
                        == fusion_brute_force(spec, p, q).members
                    )

    def test_colored_oracle_agreement_small(self):
        pool = []
        for k in range(0, 3):
            pool.extend(projectives(UCOL, k))
        for p in pool:
            for q in pool:
                assert (
                    fusion(UCOL, p, q).members
                    == fusion_brute_force(UCOL, p, q).members
                )


class TestNestedPath:
    """Noncrossing categories graft only the nested mixings; the full
    mixing enumeration and the domination oracle must agree with that."""

    @pytest.mark.parametrize(
        "spec, max_arity",
        [
            (NC, 2),
            (NC2, 2),
            (NCB, 2),
            (NCEVEN, 3),
            (UCOL, 2),
            (CategorySpec(generators=(FOURBLOCK,), max_points=8), 2),
        ],
        ids=["nc", "nc2", "ncb", "nceven", "ucol", "gen-aa:aa"],
    )
    def test_matches_full_enumeration_and_oracle(self, spec, max_arity):
        pool = []
        for k in range(0, max_arity + 1):
            pool.extend(projectives(spec, k))
        for p in pool:
            for q in pool:
                res = fusion(spec, p, q)
                full = [m for m in fusion_candidates(p, q) if contains(spec, m)]
                assert res.partitions == full
                assert res.members == fusion_brute_force(spec, p, q).members

    @pytest.mark.parametrize(
        "spec",
        [NC, NC2, NCB, NCEVEN, UCOL],
        ids=["nc", "nc2", "ncb", "nceven", "ucol"],
    )
    def test_block_condition_matches_contains(self, spec):
        # a noncrossing built-in checks the nested grafts of its members on
        # their blocks alone; full membership keeps the same grafts, and
        # every nested graft is noncrossing
        pool = [p for k in range(4) for p in projectives(spec, k)]
        for p in pool:
            for q in pool:
                grafts = structure._graft(
                    p, q, structure._nested_mixings(stats(p).t, stats(q).t)
                )
                assert all(is_noncrossing(m) for m in grafts)
                kept = [m for m in grafts if contains(spec, m)]
                kept.sort(key=lambda m: (stats(m).t, serialize(m)))
                assert fusion(spec, p, q).partitions == kept

    def test_crossing_category_enumerates_every_mixing(self, monkeypatch):
        calls = []
        real = fusion_module.enumerate_mixing

        def counting(k, l):
            calls.append((k, l))
            return real(k, l)

        monkeypatch.setattr(fusion_module, "enumerate_mixing", counting)
        res = fusion(P2, identity(2), identity(2))
        assert calls == [(2, 2)]
        assert not all(is_noncrossing(m) for m in res.partitions)
        calls.clear()
        fusion(NC2, identity(2), identity(2))
        assert calls == []

    @pytest.mark.parametrize("t", [5, 8])
    def test_identity_ladder_mix_budget(self, monkeypatch, t):
        # op budget: one graft per nested mixing, 2t + 1 in all
        grafted = []
        real = fusion_module._graft

        def counting(p, q, mixings):
            grafted.extend(mixings)
            return real(p, q, mixings)

        monkeypatch.setattr(fusion_module, "_graft", counting)
        res = fusion(NC, identity(t), identity(t))
        assert t_values(res) == list(range(2 * t + 1))
        assert len(grafted) <= 2 * t + 1

    def test_crossing_decomposition_budget(self, monkeypatch):
        # op budget: the building diagrams of both factors are built once
        # for all 19,091 mixings, not once per graft, and without the full
        # factorization
        calls = {"upper_building": 0, "through_block_decomposition": 0}
        for name in calls:
            real = getattr(structure, name)

            def counting(p, name=name, real=real):
                calls[name] += 1
                return real(p)

            monkeypatch.setattr(structure, name, counting)
        res = fusion(P2, identity(5), identity(5))
        assert res.members
        assert calls == {"upper_building": 2, "through_block_decomposition": 0}
        # and no building diagram goes through Partition.make: its blocks
        # are canonical by construction
        p = parse_partition("abcb:cdae")
        made = []
        real_make = Partition.make

        def counting_make(*args):
            made.append(args)
            return real_make(*args)

        monkeypatch.setattr(Partition, "make", staticmethod(counting_make))
        structure.upper_building(p)
        assert made == []

    @pytest.mark.parametrize("spec", [NC2, NCEVEN, UCOL, P2], ids=lambda s: s.name())
    def test_serializes_kept_members_only(self, monkeypatch, spec):
        # op budget: one serialize per kept member at most, none for a graft
        # the category refuses; refused grafts occur, so the budget bites
        pool = [p for k in range(3) for p in projectives(spec, k)]
        grafted, serialized = [], []
        real_graft, real_serialize = fusion_module._graft, fusion_module.serialize

        def counting_graft(p, q, mixings):
            grafted.append(len(mixings))
            return real_graft(p, q, mixings)

        def counting_serialize(p):
            serialized.append(p)
            return real_serialize(p)

        monkeypatch.setattr(fusion_module, "_graft", counting_graft)
        monkeypatch.setattr(fusion_module, "serialize", counting_serialize)
        kept = 0
        for p in pool:
            for q in pool:
                before = len(serialized)
                res = fusion(spec, p, q)
                assert len(serialized) - before <= len(res.members)
                kept += len(res.members)
        assert kept < sum(grafted)

    def test_nested_mixings_built_once_per_through_counts(self, monkeypatch):
        # op budget: a second fusion at the same through-counts (3, 2)
        # builds no nested mixing diagram
        built = []
        real = structure._mixing_from_pairs

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(structure, "_mixing_from_pairs", counting)
        structure._nested_mixings.cache_clear()
        first = fusion(NC, identity(3), identity(2))
        assert len(built) == 2 * 2 + 1
        built.clear()
        second = fusion(NC, parse_partition("abcc:abcc"), parse_partition("aab:aab"))
        assert built == []
        assert t_values(first) == t_values(second) == [1, 2, 3, 4, 5]


class TestLabelledFusion:
    def test_loop_scheme(self):
        assert labelled_fusion("S", 2, 3) == [1, 2, 3, 4, 5]
        assert labelled_fusion("S", 0, 2) == [2]

    def test_negative_labels_rejected(self):
        for scheme in ("S", "O", "B"):
            with pytest.raises(ValueError):
                labelled_fusion(scheme, -3, 2)
            with pytest.raises(ValueError):
                labelled_fusion(scheme, 2, -1)

    def test_step_two_schemes(self):
        assert labelled_fusion("O", 1, 1) == [0, 2]
        assert labelled_fusion("B", 2, 2) == [0, 2, 4]

    def test_z2_scheme(self):
        assert labelled_fusion("H", "0", "0") == ["", "0", "00"]
        assert labelled_fusion("H", "01", "10") == [
            "", "0", "00", "000", "0110",
        ]

    def test_alternating_scheme(self):
        assert labelled_fusion("U", "w", "b") == ["", "wb"]
        assert labelled_fusion("U", "w", "w") == ["ww"]
        assert labelled_fusion("U", "2w", "1b1w") == ["ww", "wwbw"]

    def test_associative_on_small_labels(self):
        for scheme, labels in (
            ("S", [0, 1, 2, 3]),
            ("O", [0, 1, 2, 3]),
            ("B", [0, 1, 2]),
            ("H", z2_words(2)),
            ("U", color_words(2)),
        ):
            for a, b, c in product(labels, repeat=3):
                left = sorted(
                    x
                    for ab in labelled_fusion(scheme, a, b)
                    for x in labelled_fusion(scheme, ab, c)
                )
                right = sorted(
                    x
                    for bc in labelled_fusion(scheme, b, c)
                    for x in labelled_fusion(scheme, a, bc)
                )
                assert left == right, (scheme, a, b, c)

    def test_partition_level_matches_words_z2(self):
        for a in z2_words(2):
            for b in z2_words(2):
                pa, pb = label_to_partition("H", a), label_to_partition("H", b)
                got = sorted(word_h(m) for m in fusion(NCEVEN, pa, pb).partitions)
                assert got == sorted(labelled_fusion("H", a, b))

    def test_partition_level_matches_words_alternating(self):
        for a in color_words(2):
            for b in color_words(2):
                pa, pb = label_to_partition("U", a), label_to_partition("U", b)
                got = sorted(word_u(m) for m in fusion(UCOL, pa, pb).partitions)
                assert got == sorted(labelled_fusion("U", a, b))

    def test_conjugate_contains_trivial_once(self):
        for w in color_words(3):
            if not w:
                continue
            wbar = alternating_semiring().conj(w)
            out = labelled_fusion("U", w, wbar)
            assert out.count("") == 1


class TestLabelFusionCap:
    @staticmethod
    def size_bound(scheme, a, b):
        """The bound labelled_fusion checks: labels for numbers, letters for
        words."""
        if scheme in ("H", "U"):
            return (len(a) + len(b) + 1) ** 2
        return 2 * min(a, b) + 1

    def test_bound_covers_the_answer(self):
        for scheme, labels in (
            ("S", range(21)),
            ("O", range(21)),
            ("B", range(21)),
            ("H", z2_words(6)),
            ("U", color_words(6)),
        ):
            for a, b in product(labels, repeat=2):
                out = labelled_fusion(scheme, a, b)
                size = sum(map(len, out)) if scheme in ("H", "U") else len(out)
                assert size <= self.size_bound(scheme, a, b), (scheme, a, b)

    @pytest.mark.parametrize(
        "scheme, left, right",
        [
            ("S", 32767, 10**9),
            ("O", 32767, 32767),
            ("H", "0" * 200, "1" * 55),
            ("U", "w" * 128, "b" * 127),
        ],
    )
    def test_answered_up_to_the_cap(self, scheme, left, right):
        assert self.size_bound(scheme, left, right) <= TABLE_ROWS_CAP
        assert labelled_fusion(scheme, left, right)

    @pytest.mark.parametrize(
        "scheme, left, right",
        [
            ("S", 32768, 32768),
            ("B", 10**6, 10**6),
            ("H", "0" * 200, "1" * 56),
            ("U", "3000w", "3000b"),
        ],
    )
    def test_refused_past_the_cap(self, scheme, left, right, monkeypatch):
        # refused before the semiring builds anything
        def no_tensor(*args):
            raise AssertionError("the answer was built before the cap")

        monkeypatch.setattr(fusion_module, "semiring_tensor", no_tensor)
        with pytest.raises(BoundsExceededError, match=str(TABLE_ROWS_CAP)):
            labelled_fusion(scheme, left, right)


class TestSemiring:
    def test_empty_right_operand(self):
        s = z2_semiring()
        for w in z2_words(2):
            assert semiring_tensor(s, w, "") == [w]
            assert semiring_tensor(s, "", w) == [w]

    def test_z2_instance_reproduces_word_scheme(self):
        s = z2_semiring()
        for a in z2_words(2):
            for b in z2_words(2):
                assert semiring_tensor(s, a, b) == labelled_fusion("H", a, b)

    def test_alternating_instance_reproduces_color_scheme(self):
        s = alternating_semiring()
        for a in color_words(3):
            for b in color_words(3):
                assert semiring_tensor(s, a, b) == labelled_fusion("U", a, b)

    @pytest.mark.parametrize(
        "s, words",
        [(z2_semiring(), z2_words(5)), (alternating_semiring(), color_words(5))],
    )
    def test_matches_per_cut_conjugation(self, s, words):
        """The one conjugation of w serves every cut: same output as
        conjugating each suffix afresh."""

        def per_cut(w, wp):
            out = []
            for cut in range(len(w), -1, -1):
                a, z = w[:cut], w[cut:]
                zbar = s.conj(z)
                if not wp.startswith(zbar):
                    continue
                b = wp[len(zbar) :]
                out.append(a + b)
                if a and b:
                    fused = s.fuse(a[-1], b[0])
                    if fused is not None:
                        out.append(a[:-1] + fused + b[1:])
            return sorted(out, key=lambda word: (len(word), word))

        for w in words:
            for wp in words:
                assert semiring_tensor(s, w, wp) == per_cut(w, wp)

    def test_single_letter_instances(self):
        loop = single_loop_semiring()
        arc = single_arc_semiring()
        for k in range(0, 4):
            for l in range(0, 4):
                got = sorted(
                    len(w) for w in semiring_tensor(loop, "a" * k, "a" * l)
                )
                assert got == labelled_fusion("S", k, l)
                got = sorted(
                    len(w) for w in semiring_tensor(arc, "a" * k, "a" * l)
                )
                assert got == labelled_fusion("O", k, l)


class TestDecomposePower:
    def test_loop_family_classes(self):
        recs = decompose_power(NC, 2)
        assert [r["t"] for r in recs] == [0, 1, 2]
        assert [r["label"].value for r in recs] == [0, 1, 2]

    def test_even_family_words(self):
        recs = decompose_power(NCEVEN, 3)
        words = {r["label"].value for r in recs}
        assert {"01", "10", "111"} <= words
        assert len(words) == len(recs)

    def test_pair_family_even_counts(self):
        recs = decompose_power(NC2, 2)
        assert [r["t"] for r in recs] == [0, 2]

    def test_representative_is_minimal(self):
        for spec in (NC, NCEVEN):
            for rec in decompose_power(spec, 2):
                rep = rec["representative"]
                assert rep == min(rec["members"], key=Partition.sort_key)


class TestLabelText:
    """Labels arrive as text or values; each public label function reads
    them through one check."""

    def test_text_equals_value(self):
        assert labelled_fusion("S", "2", "3") == labelled_fusion("S", 2, 3)
        assert label_to_partition("O", "2") == label_to_partition("O", 2)

    def test_word_labels_tensor_their_letters(self):
        # one letter map: 0 -> aa:aa, 1 -> a:a, w -> a@w:a@w, b -> a@b:a@b
        pinned = {
            ("H", "0110"): "aabcdd:aabcdd",
            ("H", ""): ":",
            ("U", "3w1b"): "abcd@wwwb:abcd@wwwb",
            ("U", "wb"): "ab@wb:ab@wb",
            ("U", ""): "@:@",
        }
        for (scheme, label), text in pinned.items():
            assert serialize(label_to_partition(scheme, label)) == text
        assert labelled_fusion("U", "2w", "1b") == labelled_fusion("U", "ww", "b")

    @pytest.mark.parametrize(
        "scheme, text, message",
        [
            ("S", "x", "expected a number label, got 'x'"),
            ("B", "1.5", "expected a number label, got '1.5'"),
            ("S", "1_0", "expected a number label, got '1_0'"),
            ("O", " 1", "expected a number label, got ' 1'"),
            ("S", "\u0663", "expected a number label, got '\u0663'"),
            ("H", "012", "expected a 0/1 word label, got '012'"),
            ("U", "2x", "bad alternating word '2x'"),
            ("U", "0w", "bad alternating word '0w'"),
            ("U", "2w00b", "bad alternating word '2w00b'"),
            ("U", "\u0663w", "bad alternating word '\u0663w'"),
            (None, "1", "'1' is not a diagram and the category has no label scheme"),
        ],
    )
    def test_bad_label_messages(self, scheme, text, message):
        for call in (
            lambda: labelled_fusion(scheme, text, text),
            lambda: label_to_partition(scheme, text),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message

    def test_left_label_checked_first(self):
        with pytest.raises(GrammarError, match="'x'"):
            labelled_fusion("S", "x", "y")
        with pytest.raises(GrammarError, match="'y'"):
            labelled_fusion("S", "-1", "y")


def _table_labels_oracle(scheme, m):
    """The label enumeration of the fusion table as the command line built
    it by hand: a range for the number schemes, words grown letter by letter
    for the word schemes."""
    if scheme in ("S", "O", "B"):
        return list(range(m + 1))
    alphabet = ("0", "1") if scheme == "H" else ("w", "b")
    labels = [""]
    frontier = [""]
    for _ in range(m):
        frontier = [w + ch for w in frontier for ch in alphabet]
        labels.extend(frontier)
    return labels


class TestLabelsUpTo:
    @pytest.mark.parametrize("scheme", ["S", "O", "B", "H", "U"])
    def test_matches_table_oracle(self, scheme):
        for m in range(4):
            assert labels_up_to(scheme, m) == _table_labels_oracle(scheme, m)

    def test_negative_size_is_empty(self):
        assert labels_up_to("S", -1) == labels_up_to("H", -1) == []

    def test_largest_tables_under_the_cap(self):
        # the answer bounds of labelled_fusion, summed over the label pairs
        edges = [("S", 45, 64_906), ("O", 45, 64_906), ("H", 4, 53_773), ("U", 4, 53_773)]
        for scheme, m, entries in edges:
            labels = labels_up_to(scheme, m)
            bound = sum(
                (len(a) + len(b) + 1) ** 2 if scheme in "HU" else 2 * min(a, b) + 1
                for a in labels
                for b in labels
            )
            assert bound == entries <= TABLE_ROWS_CAP
            with pytest.raises(BoundsExceededError):
                labels_up_to(scheme, m + 1)

    @pytest.mark.parametrize(
        "scheme, m", [("S", 256), ("O", 10**30), ("H", 8), ("U", 10**6)]
    )
    def test_refuses_past_the_cap(self, scheme, m, monkeypatch):
        # no more labels than the cap admits are built before the refusal
        built = []
        real = fusion_module.product
        monkeypatch.setattr(
            fusion_module, "product",
            lambda *a, **kw: (built.append(w) or w for w in real(*a, **kw)),
        )
        with pytest.raises(BoundsExceededError):
            labels_up_to(scheme, m)
        assert len(built) <= 257

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            labels_up_to("Q", 1)


class TestRuns:
    def test_decode_encode(self):
        assert runs_decode("2w1b") == "wwb"
        assert runs_decode("wwb") == "wwb"
        assert label_for(UCOL, identity(1, colors="w")).render() == "1w"
        with pytest.raises(ValueError):
            runs_decode("2x")


class TestFreenessProbe:
    def test_even_block_category(self):
        report = freeness_probe(NCEVEN, max_arity=3)
        assert report["block_stable"]
        assert len(report["letters"]) == 2
        assert report["labels_injective"] and report["letters_complete"]
        # letters are self conjugate and fuse by size addition mod 4
        assert report["involution"] == {0: 0, 1: 1}

    def test_pair_category(self):
        report = freeness_probe(NC2, max_arity=3)
        assert report["block_stable"]
        assert len(report["letters"]) == 1
        assert report["fusion"]["0,0"] is None
        assert report["labels_injective"]

    def test_colored_pair_category(self):
        report = freeness_probe(UCOL, max_arity=3)
        assert report["block_stable"]
        assert len(report["letters"]) == 2
        assert report["involution"] == {0: 1, 1: 0}
        assert all(v is None for v in report["fusion"].values())
        assert report["labels_injective"]

    def test_conjugate_letter_is_the_mirror_image(self):
        # the conjugate of a colored letter reverses each row and flips its
        # colors: aa@bw:aa@bw is its own conjugate, not aa@wb:aa@wb
        gen = CategorySpec(
            generators=(parse_partition("@:aaaa@wbwb"),), max_points=8
        )
        report = freeness_probe(gen, max_arity=2)
        assert report["letters"] == [
            "a@b:a@b", "a@w:a@w", "aa@bw:aa@bw", "aa@wb:aa@wb"
        ]
        assert report["involution"] == {0: 1, 1: 0, 2: 2, 3: 3}

    def test_merged_letter_past_the_bound_refuses(self):
        # aa:aa merged with itself is aaaa:aaaa, 8 points past the bound 6:
        # the probe refuses rather than guess a fusion entry
        gen = CategorySpec(
            generators=(parse_partition("aa:aa"), parse_partition("ab:ba")),
            max_points=6,
        )
        with pytest.raises(UndecidableMembershipError, match="aaaa:aaaa has 8"):
            freeness_probe(gen, 2)

    def test_negative_answers(self):
        # :ab generates a category whose singletons come in pairs, so a
        # lone singleton block is no member, and at arity 2 the classes of
        # ab:ac and ab:cb both read the word of the one letter a:a
        gen = CategorySpec(generators=(parse_partition(":ab"),), max_points=6)
        report = freeness_probe(gen, 2)
        assert report["letters"] == ["a:a"]
        assert not report["block_stable"]
        assert not report["labels_injective"]
        assert report["letters_complete"]

    def test_loop_category_single_fusing_letter(self):
        report = freeness_probe(NC, max_arity=3)
        assert report["block_stable"]
        assert len(report["letters"]) == 1
        assert report["fusion"]["0,0"] == 0
        assert report["labels_injective"]

    # the probe's reports as the per-letter scan gave them, before letters
    # were read through the one class routine, _equivalence_classes
    PINNED = {
        "nc": {
            "letters": ["a:a"], "involution": {0: 0}, "fusion": {"0,0": 0},
        },
        "nc2": {
            "letters": ["a:a"], "involution": {0: 0}, "fusion": {"0,0": None},
        },
        "nceven": {
            "letters": ["a:a", "aa:aa"],
            "involution": {0: 0, 1: 1},
            "fusion": {"0,0": 1, "0,1": 0, "1,0": 0, "1,1": 1},
        },
        "ucol": {
            "letters": ["a@b:a@b", "a@w:a@w"],
            "involution": {0: 1, 1: 0},
            "fusion": {"0,0": None, "0,1": None, "1,0": None, "1,1": None},
        },
        "gen[@:aaaa@wbwb]<= 8": {
            "letters": ["a@b:a@b", "a@w:a@w", "aa@bw:aa@bw", "aa@wb:aa@wb"],
            "involution": {0: 1, 1: 0, 2: 2, 3: 3},
            "fusion": {
                "0,0": None, "0,1": 2, "0,2": None, "0,3": 0,
                "1,0": 3, "1,1": None, "1,2": 1, "1,3": None,
                "2,0": 0, "2,1": None, "2,2": 2, "2,3": None,
                "3,0": None, "3,1": 1, "3,2": None, "3,3": 3,
            },
        },
    }

    @pytest.mark.parametrize(
        "spec, max_arity",
        [(NC, 3), (NC2, 3), (NCEVEN, 3), (UCOL, 3)]
        + [(CategorySpec(
            generators=(parse_partition("@:aaaa@wbwb"),), max_points=8
        ), 2)],
        ids=["nc", "nc2", "nceven", "ucol", "gen:@:aaaa@wbwb"],
    )
    def test_reports_unchanged(self, spec, max_arity):
        name = spec.name()
        assert freeness_probe(spec, max_arity) == {
            "category": name,
            "block_stable": True,
            **self.PINNED[name],
            "labels_injective": True,
            "letters_complete": True,
            "max_arity": max_arity,
        }

    def test_no_projectivity_rechecks(self, monkeypatch):
        # letters and class representatives are projective by construction,
        # so matching them runs no is_projective, wherever it is bound
        real = structure.is_projective
        calls = []

        def counting(p):
            calls.append(p)
            return real(p)

        for module in list(sys.modules.values()):
            if getattr(module, "is_projective", None) is real:
                monkeypatch.setattr(module, "is_projective", counting)
        assert freeness_probe(NC, 3)["letters_complete"]
        assert calls == []


class TestDimensionMultiplicativity:
    def test_free_regime_products(self):
        # ranks multiply along the fusion set in the independent regime
        for N in (4, 5):
            reps = [
                label_to_partition("S", 0),
                identity(1),
            ]
            for p in reps:
                for q in reps:
                    lhs = projection_rank(NC, p, N) * projection_rank(NC, q, N)
                    rhs = sum(
                        projection_rank(NC, m, N)
                        for m in fusion(NC, p, q).partitions
                    )
                    assert lhs == rhs
