"""
Exact linear algebra over the rationals.

One elimination kernel, :class:`SparseEchelon`, reduces sparse vectors with
:class:`fractions.Fraction` entries against an incremental echelon basis;
:func:`rank` feeds it the rows of a matrix.  Projections need none:
:func:`orthogonal_basis` is Gram-Schmidt in integer arithmetic.  Dense
matrices are numpy arrays with ``dtype=object`` holding Python ints or
Fractions, so no floating point ever enters.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

import numpy as np

__all__ = [
    "rank",
    "orthogonal_basis",
    "basis_projection",
    "projection_onto_columns",
    "SparseEchelon",
]

Basis = list[tuple[np.ndarray, int]]  # integer vectors u with <u, u>


def rank(a: np.ndarray) -> int:
    """Exact rank: the nonzero entries of each row, fed to one echelon."""
    ech = SparseEchelon()
    for row in a.tolist():
        ech.insert({j: Fraction(x) for j, x in enumerate(row) if x})
    return ech.rank


def orthogonal_basis(cols: Iterable[np.ndarray], kept: Basis = ()) -> Basis:
    """The pairs (u, <u, u>) of orthogonal integer vectors that ``cols``
    add, in order, to the span of the pairs ``kept``: Gram-Schmidt where
    each vector, scaled to integers, loses its components along the vectors
    kept so far (u <- <v, v> u - <u, v> v stays integral; the common factor
    is then divided out), and a zero remainder, a dependent vector, is
    dropped."""
    basis = list(kept)
    start = len(basis)
    for col in cols:
        scale = lcm(*(x.denominator for x in col))
        u = np.array([int(x * scale) for x in col], dtype=object)
        for v, vv in basis:
            c = u.dot(v)
            if c:
                u = vv * u - c * v
        g = gcd(*u)
        if g:
            u //= g
            basis.append((u, u.dot(u)))
    return basis[start:]


def basis_projection(basis: Basis, n: int) -> np.ndarray:
    """The projection onto the span of an orthogonal basis of length-``n``
    vectors: the sum of u u^T / <u, u>, over one common denominator."""
    denom = lcm(*(uu for _, uu in basis))
    total = np.zeros((n, n), dtype=object)
    for u, uu in basis:
        total += np.outer(u, (denom // uu) * u)
    return total * Fraction(1, denom)


def projection_onto_columns(a: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the column space of ``a``, exactly."""
    return basis_projection(orthogonal_basis(a.T), a.shape[0])


class SparseEchelon:
    """Incremental echelon basis for sparse rational vectors.

    Vectors are dicts mapping index to a nonzero Fraction.  ``insert``
    reduces the vector against the basis and returns True when it enlarged
    the span.  Suited to the 0/1 indicator columns of the diagram matrix
    calculus, where supports are small and fill-in stays moderate.
    """

    def __init__(self) -> None:
        self.basis: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.basis)

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
