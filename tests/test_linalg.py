"""Exact linear algebra: rank and orthogonal projections against sympy."""

from fractions import Fraction

import numpy as np
import sympy
from hypothesis import given, settings, strategies as st

from particat import linalg

ENTRIES = (0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


@st.composite
def matrices(draw, entries=st.integers(-3, 3), max_side=6):
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    flat = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=object).reshape(rows, cols)


def sympy_rank(a: np.ndarray) -> int:
    return sympy.Matrix(*a.shape, a.ravel().tolist()).rank()


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_matches_sympy(a):
    assert linalg.rank(a) == sympy_rank(a)


@settings(max_examples=100, deadline=None)
@given(matrices(entries=st.sampled_from(ENTRIES), max_side=5))
def test_projection_laws(a):
    p = linalg.projection_onto_columns(a)
    n = a.shape[0]
    assert p.shape == (n, n)
    assert np.array_equal(p, p.T)
    assert np.array_equal(p @ p, p)
    assert np.array_equal(p @ a, a)
    assert linalg.rank(p) == linalg.rank(a) == sympy_rank(a)


def test_projection_of_nothing_is_zero():
    for a in (
        np.zeros((4, 0), dtype=object),
        np.zeros((3, 2), dtype=object),
        np.zeros((0, 0), dtype=object),
    ):
        n = a.shape[0]
        assert np.array_equal(
            linalg.projection_onto_columns(a), np.zeros((n, n), dtype=object)
        )


def test_projection_onto_a_line():
    a = np.array([[1], [2]], dtype=object)
    want = [[Fraction(1, 5), Fraction(2, 5)], [Fraction(2, 5), Fraction(4, 5)]]
    assert linalg.projection_onto_columns(a).tolist() == want


def test_echelon_insert_reports_growth():
    ech = linalg.SparseEchelon()
    one = Fraction(1)
    assert ech.insert({0: one, 2: one})
    assert ech.insert({2: one})
    assert not ech.insert({0: Fraction(3)})
    assert ech.rank == 2
