"""
Exact linear algebra over the rationals.

One elimination kernel, :class:`SparseEchelon`, reduces sparse vectors with
:class:`fractions.Fraction` entries against an incremental echelon basis;
:func:`rank` feeds it the rows of a matrix.  :func:`projection_onto_columns`
needs no elimination at all: it runs Gram-Schmidt over the columns in
integer arithmetic.  Dense matrices are numpy arrays with ``dtype=object``
holding Python ints or Fractions, so no floating point ever enters.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

__all__ = [
    "rank",
    "projection_onto_columns",
    "SparseEchelon",
]


def rank(a: np.ndarray) -> int:
    """Exact rank: the nonzero entries of each row, fed to one echelon."""
    ech = SparseEchelon()
    for row in a.tolist():
        ech.insert({j: Fraction(x) for j, x in enumerate(row) if x})
    return ech.rank


def projection_onto_columns(a: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the column space of ``a``, exactly.

    Gram-Schmidt in column order over integer vectors: each column, scaled
    to integers, loses its components along the vectors kept so far
    (u <- <v, v> u - <u, v> v stays integral; the common factor is then
    divided out), and a zero remainder, a dependent column, is dropped.
    The projection is the sum of u u^T / <u, u> over the kept vectors u.
    """
    n = a.shape[0]
    kept: list[tuple[np.ndarray, int]] = []
    for col in a.T:
        scale = lcm(*(Fraction(x).denominator for x in col))
        u = np.array([int(x * scale) for x in col], dtype=object)
        for v, vv in kept:
            c = u.dot(v)
            if c:
                u = vv * u - c * v
        g = gcd(*u)
        if g:
            u //= g
            kept.append((u, u.dot(u)))
    denom = lcm(*(uu for _, uu in kept))
    total = np.zeros((n, n), dtype=object)
    for u, uu in kept:
        total += np.outer(u, (denom // uu) * u)
    return total * Fraction(1, denom)


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
