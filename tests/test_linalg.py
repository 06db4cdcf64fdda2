"""Exact linear algebra: rank and orthogonal projections against sympy, the
fraction-free echelon against a Fraction elimination."""

from fractions import Fraction
from math import gcd, lcm

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
@given(matrices(entries=st.sampled_from(ENTRIES)))
def test_rational_rank_matches_sympy(a):
    assert linalg.rank(a) == sympy_rank(a)


class FractionEchelon:
    """Oracle: the echelon over Fraction, each row scaled to a lead of 1."""

    def __init__(self) -> None:
        self.basis: dict[int, dict[int, Fraction]] = {}

    def insert(self, vec: dict[int, Fraction]) -> bool:
        v = dict(vec)
        while v:
            lead = min(v)
            row = self.basis.get(lead)
            if row is None:
                lv = v[lead]
                self.basis[lead] = {k: val / lv for k, val in v.items()}
                return True
            f = v[lead]
            for k, val in row.items():
                newval = v.get(k, Fraction(0)) - f * val
                if newval:
                    v[k] = newval
                else:
                    v.pop(k, None)
        return False


@st.composite
def sparse_families(draw, entries):
    """Sparse vectors over a few indices, then integer combinations of
    pairs of them, so that dependent vectors with large entries occur."""
    vec = st.dictionaries(st.integers(0, 7), entries, max_size=5)
    vecs = draw(st.lists(vec, max_size=8))
    for _ in range(draw(st.integers(0, 4)) if vecs else 0):
        x, y = (draw(st.sampled_from(vecs)) for _ in range(2))
        a, b = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
        comb = {i: a * x.get(i, 0) + b * y.get(i, 0) for i in {*x, *y}}
        vecs.append({i: c for i, c in comb.items() if c})
    return draw(st.permutations(vecs))


NONZERO_INTS = st.integers(-9, 9).filter(bool)
NONZERO_FRACTIONS = st.fractions(-3, 3, max_denominator=5).filter(bool)


@settings(max_examples=200, deadline=None)
@given(st.one_of(sparse_families(NONZERO_INTS), sparse_families(NONZERO_FRACTIONS)))
def test_echelon_matches_fraction_oracle(vecs):
    ech, oracle = linalg.SparseEchelon(), FractionEchelon()
    for vec in vecs:
        scale = lcm(*(Fraction(x).denominator for x in vec.values()))
        ints = {i: int(x * scale) for i, x in vec.items()}
        assert ech.insert(ints) == oracle.insert(
            {i: Fraction(x) for i, x in vec.items()}
        )
        for row in ech.basis.values():
            assert row[min(row)] > 0 and gcd(*row.values()) == 1
            assert all(type(x) is int for x in row.values())
    assert ech.rank == len(oracle.basis)


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
    assert ech.insert({0: 1, 2: 1})
    assert ech.insert({2: 1})
    assert not ech.insert({0: 3})
    assert ech.rank == 2
