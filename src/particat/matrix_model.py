"""
Exact matrix realization of diagrams on (C^N)^(tensor k).

A diagram p with k upper and l lower points acts by the 0/1 matrix whose
(j, i) entry is 1 exactly when every block of p sees equal index values in
the multi-indices i (upper row) and j (lower row).  The matrix is stored with
exact integer entries, together with the normalization exponent -beta(p) so
that the normalized map (the one that is a projection for projective p) is
N^(-beta/2) times the 0/1 matrix.  Everything downstream -- functoriality
checks, ranks of diagram-map families, the subtraction of dominated
projections, class projections, the group-algebra comparison, and the
twisted diagram algebra -- is computed in exact integer or rational
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg
from .partition import (
    ArityError,
    ColorError,
    Partition,
    compose,
    involution,
    is_projective,
    serialize,
    stats,
    tensor,
)
from .structure import (
    _dominates,
    _equivalence_classes,
    p_sigma,
    sym_group,
)
from .categories import CategorySpec, contains, enumerate_in, projectives

__all__ = [
    "MapModel",
    "BrauerElement",
    "MATRIX_ROWS_CAP",
    "PROJECTION_ENTRIES_CAP",
    "t_map",
    "t_map_rank",
    "check_functor",
    "independent",
    "projection_matrix",
    "projection_rank",
    "class_projection",
    "psi_check",
    "brauer_element",
    "brauer_product",
    "brauer_involution",
    "brauer_kernel_dim",
]

MATRIX_ROWS_CAP = 4096
PROJECTION_ENTRIES_CAP = 2 * 10**7


@dataclass(frozen=True)
class MapModel:
    """The 0/1 matrix of a diagram plus its normalization data.

    ``matrix`` has shape (N^l, N^k) with exact integer entries; the
    normalized map is N^(half_exponent / 2) * matrix, with
    half_exponent = -beta(p).  For projective diagrams beta is even, so the
    normalized matrix is rational and no square root is ever needed.
    """

    matrix: np.ndarray
    half_exponent: int
    N: int

    def normalized(self) -> np.ndarray:
        """The rational matrix N^(half_exponent/2) * matrix.

        Raises when the exponent is odd (the normalization would then live
        outside the rationals).
        """
        if self.half_exponent % 2 != 0:
            raise ValueError(
                "normalization exponent is odd; the normalized map is "
                "irrational and is not materialized"
            )
        scale = Fraction(1, self.N ** (-self.half_exponent // 2))
        out = np.empty(self.matrix.shape, dtype=object)
        flat_in = self.matrix.ravel()
        flat_out = out.ravel()
        for idx in range(flat_in.size):
            flat_out[idx] = scale * int(flat_in[idx])
        return out


# ---------------------------------------------------------------------------
# signature machinery
#
# For one row of a diagram, every assignment of values 0..N-1 to the row's
# points either violates some block (two points of one block with different
# values) or induces one value per through-block.  Encoding those values as a
# single base-N code gives, per side, a validity mask and a code vector; the
# matrix entry (j, i) is then "both valid and codes equal".


_DIGITS_CACHE: dict[tuple[int, int], list[np.ndarray]] = {}


def _digit_arrays(n: int, N: int) -> list[np.ndarray]:
    key = (n, N)
    cached = _DIGITS_CACHE.get(key)
    if cached is None:
        flat = np.arange(N**n, dtype=np.int64)
        cached = [(flat // (N ** (n - 1 - pos))) % N for pos in range(n)]
        _DIGITS_CACHE[key] = cached
    return cached


def _row_signatures(
    p: Partition, side: str, N: int
) -> tuple[np.ndarray, np.ndarray]:
    k = p.upper
    n = k if side == "upper" else p.lower
    offset = 0 if side == "upper" else k
    total = N**n
    digits = _digit_arrays(n, N)
    valid = np.ones(total, dtype=bool)
    code = np.zeros(total, dtype=np.int64)
    through_index = 0
    for b in p.blocks:
        here = [x - offset for x in b if offset <= x < offset + n]
        is_through = b[0] < k and b[-1] >= k
        if here:
            first = digits[here[0]]
            for pos in here[1:]:
                valid &= first == digits[pos]
            if is_through:
                code = code * N + first
                through_index += 1
        elif is_through:  # pragma: no cover - a through-block meets both rows
            raise AssertionError
    return valid, code


def t_map(p: Partition, N: int) -> MapModel:
    """The exact 0/1 matrix of a diagram on (C^N)^k -> (C^N)^l."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if N ** max(p.upper, p.lower) > MATRIX_ROWS_CAP:
        raise ArityError(
            f"matrix would have more than {MATRIX_ROWS_CAP} rows or columns"
        )
    valid_i, code_i = _row_signatures(p, "upper", N)
    valid_j, code_j = _row_signatures(p, "lower", N)
    m = (
        valid_j[:, None]
        & valid_i[None, :]
        & (code_j[:, None] == code_i[None, :])
    ).astype(np.int64)
    return MapModel(m.astype(object), -stats(p).beta, N)


def t_map_rank(p: Partition, N: int) -> int:
    """Exact rank of the 0/1 matrix of ``p``, without materializing it.

    Columns sharing a through-block code are equal as vectors; columns with
    different codes have disjoint supports (the rows hitting a column are
    exactly the valid j whose code matches it), so the distinct nonzero
    columns are linearly independent and the rank is the number of codes
    realized on both sides.
    """
    valid_i, code_i = _row_signatures(p, "upper", N)
    valid_j, code_j = _row_signatures(p, "lower", N)
    upper_codes = np.unique(code_i[valid_i])
    lower_codes = np.unique(code_j[valid_j])
    return int(np.intersect1d(upper_codes, lower_codes).size)


def _sparse_columns(p: Partition, N: int) -> list[dict[int, Fraction]]:
    """The distinct nonzero columns of t_map(p, N) as sparse 0/1 vectors."""
    valid_i, code_i = _row_signatures(p, "upper", N)
    valid_j, code_j = _row_signatures(p, "lower", N)
    realized = np.intersect1d(
        np.unique(code_i[valid_i]), np.unique(code_j[valid_j])
    )
    one = Fraction(1)
    cols = []
    rows_j = np.arange(code_j.size)
    for tau in realized:
        support = rows_j[valid_j & (code_j == tau)]
        cols.append({int(r): one for r in support})
    return cols


# ---------------------------------------------------------------------------
# functoriality


def _eq(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.array_equal(a, b))


def check_functor(bottom: Partition, top: Partition, N: int) -> dict:
    """Exact verification of the three structure rules on one pair.

    involution -> transpose, tensor -> Kronecker product, and composition ->
    matrix product up to the factor N^(removed loops); for a projective
    ``bottom`` the idempotence rule with its loop factor is checked as well.
    The tensor rule is skipped when the doubled arity would exceed the row
    cap.
    """
    tb = t_map(bottom, N).matrix
    tt = t_map(top, N).matrix
    report = {
        "N": N,
        "bottom": serialize(bottom),
        "top": serialize(top),
        "involution_rule": _eq(t_map(involution(bottom), N).matrix, tb.T)
        and _eq(t_map(involution(top), N).matrix, tt.T),
    }
    both = tensor(bottom, top)
    if N ** max(both.upper, both.lower) <= MATRIX_ROWS_CAP:
        report["tensor_rule"] = _eq(
            t_map(both, N).matrix, np.kron(tb, tt)
        )
    if bottom.upper == top.lower and (
        bottom.colored == top.colored
        and (not bottom.colored or bottom.upper_colors() == top.lower_colors())
    ):
        comp, loops = compose(bottom, top)
        report["composition_rule"] = _eq(
            tb @ tt, (N**loops) * t_map(comp, N).matrix
        )
        report["removed_loops"] = loops
    if (
        bottom.upper == bottom.lower
        and (not bottom.colored
             or bottom.upper_colors() == bottom.lower_colors())
    ):
        sq, loops = compose(bottom, bottom)
        if sq == bottom:
            report["idempotent_rule"] = _eq(tb @ tb, (N**loops) * tb)
    report["passed"] = all(
        v for key, v in report.items()
        if key.endswith("_rule")
    )
    return report


def _map_family_rank(spec: CategorySpec, k: int, N: int) -> tuple[int, int]:
    """Member count of C(k, k) and the exact rank of its diagram maps,
    each flattened to a sparse 0/1 vector."""
    members = enumerate_in(spec, k, k)
    ech = linalg.SparseEchelon()
    one = Fraction(1)
    for q in members:
        flat = t_map(q, N).matrix.ravel()
        ech.insert({int(i): one for i in np.flatnonzero(flat)})
    return len(members), ech.rank


def independent(spec: CategorySpec, k: int, N: int) -> dict:
    """Rank over Q of the family of all diagram maps in C(k, k).

    The family is linearly dependent exactly when the rank falls short of
    the member count.  The rank equals that of the Gram matrix
    <T_p, T_q> = N^#blocks(p v q), which is never built.  Defined for
    uncolored categories (the maps ignore colors, so mixed colorings would
    alias)."""
    if spec.colored:
        raise ColorError("independence is an uncolored-category check")
    count, rk = _map_family_rank(spec, k, N)
    return {
        "category": spec.name(),
        "k": k,
        "N": N,
        "count": count,
        "rank": rk,
        "dependent": rk < count,
    }


# ---------------------------------------------------------------------------
# dominated-projection calculus


def _check_member_projective(spec: CategorySpec, p: Partition) -> None:
    if not is_projective(p):
        raise ValueError("expected a projective diagram")
    if not contains(spec, p):
        raise ValueError("diagram does not belong to the category")


def _dominated_members(
    spec: CategorySpec, p: Partition
) -> list[Partition]:
    """Projective members strictly below p, which the caller has checked."""
    pool = projectives(spec, p.upper)
    if p.colored:
        word = p.upper_colors()
        pool = [q for q in pool if q.upper_colors() == word]
    return [q for q in pool if q != p and _dominates(p, q)]


def projection_matrix(spec: CategorySpec, p: Partition, N: int) -> np.ndarray:
    """The rational projection attached to p inside the category: the
    normalized map of p minus the orthogonal projection onto the column
    spaces of all strictly dominated projective members.

    May be the zero matrix when the diagram maps are linearly dependent at
    this N; that is reported by rank, not treated as an error.
    """
    _check_member_projective(spec, p)
    dim = N**p.upper
    below = _dominated_members(spec, p)
    cols: list[dict[int, Fraction]] = []
    for q in below:
        cols.extend(_sparse_columns(q, N))
    if dim * max(1, len(cols)) > PROJECTION_ENTRIES_CAP:
        raise ArityError("projection solve exceeds the entry cap")
    t_norm = t_map(p, N).normalized()
    if not cols:
        return t_norm
    dense = linalg.zeros_matrix(dim, len(cols))
    for cidx, col in enumerate(cols):
        for r, val in col.items():
            dense[r, cidx] = val
    r_proj = linalg.projection_onto_columns(dense)
    return t_norm - r_proj


def projection_rank(spec: CategorySpec, p: Partition, N: int) -> int:
    """Rank of the projection of p, computed without dense matrices.

    The normalized map of p is a projection of rank N^t dominating the
    projection onto the dominated column span, so the difference has rank
    N^t minus the span's rank; the span rank comes from an exact sparse
    echelon over the distinct indicator columns.
    """
    _check_member_projective(spec, p)
    ech = linalg.SparseEchelon()
    for q in _dominated_members(spec, p):
        for col in _sparse_columns(q, N):
            ech.insert(col)
    return N ** stats(p).t - ech.rank


def _trace_rank(proj: np.ndarray) -> int:
    """The rank of an exact orthogonal projection, read as its trace."""
    trace = Fraction(sum(proj.diagonal()))
    assert trace.denominator == 1
    return int(trace)


def class_projection(spec: CategorySpec, k: int, N: int) -> list[dict]:
    """Per equivalence class: the projection onto the joint image of the
    member projections, with its rank and the resulting multiplicity.

    Returns one record per class with the canonical representative (minimal
    serialization), the class size, rank of the class projection, rank of
    the representative's projection, and their quotient when integral.
    """
    members = projectives(spec, k)
    records = []
    for cls in _equivalence_classes(spec, members):
        cls_sorted = sorted(cls, key=Partition.sort_key)
        rep = cls_sorted[0]
        mats = [projection_matrix(spec, q, N) for q in cls_sorted]
        stacked = np.concatenate(mats, axis=1)
        class_proj = linalg.projection_onto_columns(stacked)
        rank_class = _trace_rank(class_proj)
        rank_rep = _trace_rank(mats[0])
        mult: Optional[int] = None
        if rank_rep and rank_class % rank_rep == 0:
            mult = rank_class // rank_rep
        records.append(
            {
                "representative": rep,
                "members": cls_sorted,
                "t": stats(rep).t,
                "projection": class_proj,
                "rank_class": rank_class,
                "rank_rep": rank_rep,
                "multiplicity": mult,
            }
        )
    records.sort(key=lambda rec: (rec["t"], serialize(rec["representative"])))
    return records


# ---------------------------------------------------------------------------
# the group-algebra comparison


def _perm_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a[b[i]] for i in range(len(a)))


def psi_check(spec: CategorySpec, p: Partition, N: int) -> dict:
    """Compare the symmetry-group algebra with the self-intertwiners of p.

    Verifies exactly that sigma -> P T(p_sigma) P is multiplicative on the
    symmetry group, and computes the dimension of the span of all compressed
    diagram maps P T(q) P; that dimension never exceeds the group order and
    matches it when the diagram maps are independent.
    """
    _check_member_projective(spec, p)
    group = sym_group(spec, p)
    proj = projection_matrix(spec, p, N)
    comp: dict[tuple[int, ...], np.ndarray] = {}
    for sigma in group:
        tsig = t_map(p_sigma(p, sigma), N).normalized()
        comp[sigma] = proj @ tsig @ proj
    multiplicative = True
    for a in group:
        for b in group:
            if not _eq(comp[a] @ comp[b], comp[_perm_compose(a, b)]):
                multiplicative = False
    identity_perm = tuple(range(len(group[0])))
    identity_maps_to_projection = _eq(comp[identity_perm], proj)

    vectors = []
    for q in enumerate_in(spec, p.upper, p.upper):
        if q.colored and q.colors != p.colors:
            continue
        tq = t_map(q, N).matrix.astype(object)
        vectors.append((proj @ tq @ proj).ravel())
    dim_aut = linalg.rank(np.array(vectors, dtype=object)) if vectors else 0
    return {
        "category": spec.name(),
        "p": serialize(p),
        "N": N,
        "group_order": len(group),
        "multiplicative": multiplicative,
        "identity_maps_to_projection": identity_maps_to_projection,
        "dim_aut": dim_aut,
        "isomorphic": dim_aut == len(group),
        "passed": multiplicative
        and identity_maps_to_projection
        and dim_aut <= len(group),
    }


# ---------------------------------------------------------------------------
# the twisted diagram algebra


@dataclass(frozen=True)
class BrauerElement:
    """A finitely supported rational combination of diagrams in C(k, k)."""

    arity: int
    terms: tuple[tuple[Partition, Fraction], ...]

    @staticmethod
    def from_dict(arity: int, data: dict[Partition, Fraction]) -> "BrauerElement":
        items = [
            (p, Fraction(c)) for p, c in data.items() if c != 0
        ]
        items.sort(key=lambda pc: Partition.sort_key(pc[0]))
        return BrauerElement(arity, tuple(items))

    def as_dict(self) -> dict[Partition, Fraction]:
        return dict(self.terms)


def brauer_element(p: Partition, coeff=1) -> BrauerElement:
    if p.upper != p.lower:
        raise ArityError("algebra elements live on square diagrams")
    return BrauerElement.from_dict(p.upper, {p: Fraction(coeff)})


def brauer_product(
    x: BrauerElement, y: BrauerElement, N: int
) -> BrauerElement:
    """Bilinear product twisted by the removed-loop count:
    on basis diagrams, a . b = N^(-rl) (a stacked under b)."""
    if x.arity != y.arity:
        raise ArityError("algebra product needs matching arities")
    if N < 1:
        raise ValueError("N must be at least 1")
    acc: dict[Partition, Fraction] = {}
    for a, ca in x.terms:
        for b, cb in y.terms:
            ab, loops = compose(a, b)
            coeff = ca * cb * Fraction(1, N**loops)
            acc[ab] = acc.get(ab, Fraction(0)) + coeff
    return BrauerElement.from_dict(x.arity, acc)


def brauer_involution(x: BrauerElement) -> BrauerElement:
    return BrauerElement.from_dict(
        x.arity, {involution(p): c for p, c in x.terms}
    )


def brauer_kernel_dim(spec: CategorySpec, k: int, N: int) -> int:
    """Dimension of the kernel of the algebra's matrix representation:
    member count minus the rank of the family of flattened diagram maps."""
    count, rk = _map_family_rank(spec, k, N)
    return count - rk
