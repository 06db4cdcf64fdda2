"""Boundary refusals across the library: each raises its own exception type
with its own text, so that a simplification cannot drop a check silently."""

import pytest

from particat.categories import CategorySpec
from particat.fusion import fusion, fusion_brute_force, label_to_partition
from particat.matrix_model import (
    brauer_element,
    brauer_product,
    projection_rank,
)
from particat.partition import (
    ArityError,
    ColorError,
    GrammarError,
    identity,
    parse_partition,
)
from particat.structure import (
    dominates,
    equivalent,
    p_sigma,
    sym_group,
    word_h,
    word_u,
)
from particat.verify import run_suite

NC = CategorySpec.named("nc")
NC2 = CategorySpec.named("nc2")
SINGLETONS = parse_partition("a:b")  # projective, in nc, not in nc2
NOT_PROJECTIVE = parse_partition("ab:bb")  # square and noncrossing
CUP = parse_partition(":aa")


REFUSALS = [
    # categories
    (
        "spec_mixed_colors",
        lambda: CategorySpec(generators=(identity(1), identity(1, "w"))),
        ColorError,
        "generators mix colored and uncolored diagrams",
    ),
    (
        "spec_unknown_builtin",
        lambda: CategorySpec(builtin="zz"),
        ValueError,
        "unknown builtin category 'zz'",
    ),
    (
        "spec_builtin_with_generators",
        lambda: CategorySpec(builtin="nc", generators=(identity(1),)),
        ValueError,
        "builtin categories take no generators",
    ),
    # fusion
    (
        "fusion_not_projective",
        lambda: fusion(NC, NOT_PROJECTIVE, identity(1)),
        ValueError,
        "fusion needs projective diagrams",
    ),
    (
        "fusion_not_member",
        lambda: fusion(NC2, SINGLETONS, identity(1)),
        ValueError,
        "both diagrams must belong to the category",
    ),
    (
        "fusion_brute_force_not_member",
        lambda: fusion_brute_force(NC2, identity(1), SINGLETONS),
        ValueError,
        "both diagrams must belong to the category",
    ),
    (
        "label_negative",
        lambda: label_to_partition("O", -1),
        ValueError,
        "labels are nonnegative",
    ),
    # matrix model
    (
        "projection_not_projective",
        lambda: projection_rank(NC, NOT_PROJECTIVE, 2),
        ValueError,
        "expected a projective diagram",
    ),
    (
        "projection_not_member",
        lambda: projection_rank(NC2, SINGLETONS, 2),
        ValueError,
        "diagram does not belong to the category",
    ),
    (
        "brauer_element_not_square",
        lambda: brauer_element(CUP),
        ArityError,
        "algebra elements live on square diagrams",
    ),
    (
        "brauer_product_arities",
        lambda: brauer_product(
            brauer_element(identity(1)), brauer_element(identity(2)), 2
        ),
        ArityError,
        "algebra product needs matching arities",
    ),
    # partition
    (
        "upper_colors_uncolored",
        lambda: identity(1).upper_colors(),
        ColorError,
        "partition is uncolored",
    ),
    (
        "lower_colors_uncolored",
        lambda: identity(1).lower_colors(),
        ColorError,
        "partition is uncolored",
    ),
    (
        "parse_lower_color_count",
        lambda: parse_partition("a@w:a@"),
        GrammarError,
        "lower row has 1 points but 0 colors",
    ),
    # structure
    (
        "dominates_not_square",
        lambda: dominates(CUP, identity(1)),
        ArityError,
        "domination needs square diagrams",
    ),
    (
        "dominates_arities",
        lambda: dominates(identity(1), identity(2)),
        ArityError,
        "domination compares equal arities",
    ),
    (
        "p_sigma_not_projective",
        lambda: p_sigma(NOT_PROJECTIVE, (0,)),
        ValueError,
        "p must be projective",
    ),
    (
        "p_sigma_length",
        lambda: p_sigma(identity(2), (0,)),
        ArityError,
        "permutation acts on 1 strands, p has 2 through-blocks",
    ),
    (
        "sym_group_not_member",
        lambda: sym_group(NC2, SINGLETONS),
        ValueError,
        "p does not belong to the category",
    ),
    (
        "equivalent_not_projective",
        lambda: equivalent(NC, NOT_PROJECTIVE, identity(2)),
        ValueError,
        "equivalence is defined for projective diagrams",
    ),
    (
        "word_h_not_projective",
        lambda: word_h(NOT_PROJECTIVE),
        ValueError,
        "word invariants need a projective diagram",
    ),
    (
        "word_u_not_projective",
        lambda: word_u(NOT_PROJECTIVE),
        ValueError,
        "word invariants need a projective diagram",
    ),
    (
        "word_u_uncolored",
        lambda: word_u(identity(1)),
        ColorError,
        "the alternating word needs a colored diagram",
    ),
    # verify
    (
        "run_suite_unknown",
        lambda: run_suite("nope"),
        ValueError,
        "unknown suite 'nope'",
    ),
]


@pytest.mark.parametrize(
    "call,kind,text",
    [case[1:] for case in REFUSALS],
    ids=[case[0] for case in REFUSALS],
)
def test_refusal(call, kind, text):
    with pytest.raises(kind) as raised:
        call()
    assert raised.type is kind
    assert str(raised.value) == text
