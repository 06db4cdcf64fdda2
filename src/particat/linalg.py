"""
Exact linear algebra over the rationals.

One fraction-free elimination kernel, :class:`SparseEchelon`, reduces sparse
integer vectors against an incremental echelon basis of integer rows;
:func:`rank` scales the rows of a matrix to integers and feeds them to it.
Projections need no elimination:
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
    """Exact rank: each row, scaled to integers, fed to one echelon."""
    ech = SparseEchelon()
    for row in a.tolist():
        scale = lcm(*(x.denominator for x in row))
        ech.insert({j: int(x * scale) for j, x in enumerate(row) if x})
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
    """Incremental fraction-free echelon basis for sparse integer vectors.

    Vectors are dicts mapping index to a nonzero int; a basis row is divided
    by its gcd and has a positive lead.  ``insert`` reduces the vector
    against the basis, subtracting an integer multiple of each pivot row
    (after cross-multiplying, then dividing out the gcd, where the leads do
    not divide), and returns True when it enlarged the span.  Suited to the
    0/1 indicator columns of the diagram matrix calculus, where supports
    are small and fill-in stays moderate.
    """

    def __init__(self) -> None:
        self.basis: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.basis)

    def insert(self, vec: dict[int, int]) -> bool:
        v = dict(vec)
        while v:
            lead = min(v)
            row = self.basis.get(lead)
            f = v[lead]
            if row is None:
                g = gcd(*v.values()) if f > 0 else -gcd(*v.values())
                self.basis[lead] = {k: val // g for k, val in v.items()}
                return True
            scale = row[lead] // gcd(f, row[lead])
            if scale > 1:
                v = {k: val * scale for k, val in v.items()}
            f = f * scale // row[lead]
            for k, val in row.items():
                newval = v.get(k, 0) - f * val
                if newval:
                    v[k] = newval
                else:
                    v.pop(k, None)
            if scale > 1 and (g := gcd(*v.values())) > 1:
                v = {k: val // g for k, val in v.items()}
        return False
