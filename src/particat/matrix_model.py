"""
Exact matrix realization of diagrams on (C^N)^(tensor k).

A diagram p with k upper and l lower points acts by the 0/1 matrix whose
(j, i) entry is 1 exactly when every block of p sees equal index values in
the multi-indices i (upper row) and j (lower row); it is stored in int64.
The projection attached to a projective member inside a category is carried
as an integer orthogonal basis of its image.  Everything downstream --
functoriality checks, ranks of diagram-map families, projections, class
projections, the group-algebra comparison, and the twisted diagram algebra
-- is computed in exact integer or rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm

import numpy as np

from . import linalg
from .partition import (
    ArityError,
    ColorError,
    Partition,
    all_set_partitions,
    compose,
    involution,
    is_projective,
    serialize,
    stats,
    tensor,
    _through,
)
from .structure import _dominated_members, p_sigma, sym_group
from .categories import (
    BoundsExceededError, CategorySpec, contains, enumerate_in, projectives
)
from .fusion import decompose_power

__all__ = [
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
    "brauer_kernel_dim",
]

MATRIX_ROWS_CAP = 4096
PROJECTION_ENTRIES_CAP = 2 * 10**7


# ---------------------------------------------------------------------------
# rows


@cache
def _row(
    labels: tuple[int, ...], through: tuple[int, ...], N: int
) -> tuple[np.ndarray, np.ndarray]:
    """The value assignments of the blocks meeting a row with these labels,
    each read as its multi-index (a point takes its block's value) and as
    the code of the through-blocks' values, in label order on both rows;
    the map's (j, i) entry is 1 where the codes agree.  Read-only: a memo."""
    place = {x: r for r, x in enumerate(sorted(set(labels)))}
    b = len(place)
    values = np.indices((N,) * b).reshape(b, N**b)

    def code(xs: tuple[int, ...]) -> np.ndarray:
        return N ** np.arange(len(xs))[::-1] @ values[[place[x] for x in xs]]

    j, tau = code(labels), code(through)
    j.setflags(write=False)
    tau.setflags(write=False)
    return j, tau


def _check_rows(n: int, N: int) -> None:
    """Refuses a bad N, then a row of n points past the rows cap."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if N**n > MATRIX_ROWS_CAP:
        raise BoundsExceededError(
            f"matrix would have more than {MATRIX_ROWS_CAP} rows or columns"
        )


def t_map(p: Partition, N: int) -> np.ndarray:
    """The exact 0/1 matrix of a diagram on (C^N)^k -> (C^N)^l, in int64.

    int64 is exact for products of these maps: the entries are 0/1, a
    product entry sums at most N^mid <= MATRIX_ROWS_CAP ones, and the loop
    factor N^loops of a composition is at most N^mid, since every removed
    loop uses up a middle point.
    """
    k, l = p.upper, p.lower
    _check_rows(k if k > l else l, N)
    through = tuple(sorted(_through(p)))
    i, tau_i = _row(p.labels[:k], through, N)
    j, tau_j = _row(p.labels[k:], through, N)
    m = np.zeros((N**l, N**k), dtype=np.int64)
    m[j[:, None], i] = tau_j[:, None] == tau_i
    return m


def t_map_rank(p: Partition, N: int) -> int:
    """Exact rank of the 0/1 matrix of ``p``: N^t(p), read off the labels.

    Columns sharing a through-block code are equal as vectors; columns with
    different codes have disjoint supports (the rows hitting a column are
    exactly the valid j whose code matches it), so the rank is the number
    of codes realized on both rows.  Each row realizes all N^t codes: every
    through-block meets the row, so giving each through-block its digit of
    the code, every other block any one value, and each point its block's
    value is a valid assignment with that code.  So nothing is built or
    cached; a bad N and a row past the rows cap are refused first, as
    :func:`t_map` refuses them.
    """
    k, l = p.upper, p.lower
    _check_rows(k if k > l else l, N)
    return N ** len(_through(p))


def _columns(members: list[Partition], N: int) -> list[dict[int, int]]:
    """The distinct nonzero columns of the members' maps, sparse 0/1: one
    per through-block code, all N^t of them realized (see t_map_rank)."""
    cols = []
    for q in members:
        through = tuple(sorted(_through(q)))
        j, tau = _row(q.labels[q.upper:], through, N)
        cols += [
            dict.fromkeys(j[tau == c].tolist(), 1)
            for c in range(N ** len(through))
        ]
    return cols


# ---------------------------------------------------------------------------
# functoriality


def check_functor(bottom: Partition, top: Partition, N: int) -> dict:
    """Exact verification of the three structure rules on one pair.

    involution -> transpose, tensor -> Kronecker product, and composition ->
    matrix product up to the factor N^(removed loops); for an idempotent
    ``bottom`` the idempotence rule with its loop factor is checked as well.
    The tensor rule is skipped when the doubled arity would exceed the row
    cap.
    """
    tb = t_map(bottom, N)
    tt = t_map(top, N)
    report = {
        "N": N,
        "bottom": serialize(bottom),
        "top": serialize(top),
        "involution_rule": np.array_equal(t_map(involution(bottom), N), tb.T)
        and np.array_equal(t_map(involution(top), N), tt.T),
    }
    both = tensor(bottom, top)
    if N ** max(both.upper, both.lower) <= MATRIX_ROWS_CAP:
        report["tensor_rule"] = np.array_equal(t_map(both, N), np.kron(tb, tt))
    if bottom.upper == top.lower and (
        bottom.colored == top.colored
        and (not bottom.colored or bottom.upper_colors() == top.lower_colors())
    ):
        comp, loops = compose(bottom, top)
        assert N**loops <= N**bottom.upper <= MATRIX_ROWS_CAP  # int64 bound
        report["composition_rule"] = np.array_equal(
            tb @ tt, (N**loops) * t_map(comp, N)
        )
        report["removed_loops"] = loops
    if (
        bottom.upper == bottom.lower
        and (not bottom.colored
             or bottom.upper_colors() == bottom.lower_colors())
    ):
        sq, loops = compose(bottom, bottom)
        if sq == bottom:
            report["idempotent_rule"] = np.array_equal(
                tb @ tb, (N**loops) * tb
            )
    report["passed"] = all(
        v for key, v in report.items()
        if key.endswith("_rule")
    )
    return report


def _map_family_rank(spec: CategorySpec, k: int, N: int) -> tuple[int, int]:
    """Member count of C(k, k) and the rank of its maps on kernel partitions:
    with ker f the level sets of an assignment f of [N] to the 2k points,
    T_p sums the disjoint indicators of {f : ker f = r} over the coarsenings
    r of p (its labels read through a growth string of its blocks, from
    :func:`all_set_partitions`), nonzero iff r has at most N blocks.  So
    the rank is that of Z[p, r] = [p refines r, #blocks(r) <= N]
    and the Gram matrix is Z D Z^T, D = diag (N)_#blocks(r) (Banica-Curran).
    No map is built.  Colored categories are refused (the maps ignore
    colors), then the enumeration's refusals, then a bad N or the rows cap."""
    if spec.colored:
        raise ColorError("diagram-map ranks need an uncolored category")
    members = enumerate_in(spec, k, k)
    _check_rows(k, N)
    merges: dict[int, list[tuple[int, ...]]] = {}
    column: dict[tuple[int, ...], int] = {}
    ech = linalg.SparseEchelon()
    for q in members:
        b = q.n_blocks
        if b not in merges:
            merges[b] = list(all_set_partitions(b, N))
        keys = (tuple(map(g.__getitem__, q.labels)) for g in merges[b])
        ech.insert({column.setdefault(r, len(column)): 1 for r in keys})
    return len(members), ech.rank


def independent(spec: CategorySpec, k: int, N: int) -> dict:
    """Rank over Q of the family of all diagram maps in C(k, k).

    The family is linearly dependent exactly when the rank falls short of
    the member count.  It is read in the basis of kernel partitions, where
    the Gram matrix <T_p, T_q> = N^#blocks(p v q) factors as Z D Z^T and
    rank Z is the rank (:func:`_map_family_rank`); neither is built.
    Raises ``ColorError`` on a colored category."""
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


def _check_caps(spec: CategorySpec, p: Partition, N: int) -> list[Partition]:
    """The members below p, once p's projection passes the rows cap and
    then the entry cap; the dominated column count is a sum of ranks, so
    nothing is built before a refusal."""
    _check_rows(p.upper, N)
    below = _dominated_members(spec, p)
    cols = sum(t_map_rank(q, N) for q in below)
    if N**p.upper * max(1, cols) > PROJECTION_ENTRIES_CAP:
        raise BoundsExceededError("projection solve exceeds the entry cap")
    return below


def _image_basis(p: Partition, below: list[Partition], N: int) -> linalg.Basis:
    """An integer orthogonal basis of the image of p's projection: the
    normalized map of p projects onto the span of p's distinct columns,
    which holds the columns of every member below p, so the vectors that
    p's columns add to a Gram-Schmidt over those columns span the image."""

    def dense(qs: list[Partition]) -> list[np.ndarray]:
        n = N**p.upper
        return [np.bincount(list(c), minlength=n) for c in _columns(qs, N)]

    kept = linalg.orthogonal_basis(dense(below))
    return linalg.orthogonal_basis(dense([p]), kept)


def projection_matrix(spec: CategorySpec, p: Partition, N: int) -> np.ndarray:
    """The rational projection attached to p inside the category: the
    normalized map of p minus the orthogonal projection onto the column
    spaces of all strictly dominated projective members.

    May be the zero matrix when the diagram maps are linearly dependent at
    this N; that is reported by rank, not treated as an error.
    """
    _check_member_projective(spec, p)
    basis = _image_basis(p, _check_caps(spec, p, N), N)
    return linalg.basis_projection(basis, N**p.upper)


def projection_rank(spec: CategorySpec, p: Partition, N: int) -> int:
    """Rank of the projection of p, computed without dense matrices.

    The normalized map of p is a projection of rank N^t dominating the
    projection onto the dominated column span, so the difference has rank
    N^t minus the span's rank; the span rank comes from an exact sparse
    echelon over the distinct indicator columns.
    """
    _check_member_projective(spec, p)
    rank = t_map_rank(p, N)  # refuses a bad N or N^k past the rows cap
    ech = linalg.SparseEchelon()
    for col in _columns(_dominated_members(spec, p), N):
        ech.insert(col)
    return rank - ech.rank


def class_projection(spec: CategorySpec, k: int, N: int) -> list[dict]:
    """Per equivalence class: the rank of the projection onto the joint
    image of the member projections, and the resulting multiplicity.

    The records are those of :func:`~particat.fusion.decompose_power`, in
    its order, each with three fields added: the rank of the class
    projection, the rank of the representative's projection, and their
    quotient when integral (else None).  Every member passes the caps
    before any basis is built.
    """
    below = {q: _check_caps(spec, q, N) for q in projectives(spec, k)}
    records = decompose_power(spec, k)
    for rec in records:
        # members of different color words act on different tensor powers,
        # so their images are joined per word and the ranks summed
        bases = [_image_basis(q, below[q], N) for q in rec["members"]]
        words: dict = {}
        for q, b in zip(rec["members"], bases):
            words.setdefault(q.colors, []).extend(u for u, _ in b)
        rank_class = sum(linalg.rank(np.array(us)) for us in words.values())
        rank_rep = len(bases[0])
        divides = rank_rep and rank_class % rank_rep == 0
        rec["rank_class"], rec["rank_rep"] = rank_class, rank_rep
        rec["multiplicity"] = rank_class // rank_rep if divides else None
    return records


# ---------------------------------------------------------------------------
# the group-algebra comparison


def psi_check(spec: CategorySpec, p: Partition, N: int) -> dict:
    """Compare the symmetry-group algebra with the self-intertwiners of p.

    Verifies exactly that sigma -> P T(p_sigma) P is multiplicative on the
    symmetry group, and computes the dimension of the span of all compressed
    diagram maps P T(q) P; that dimension never exceeds the group order and
    matches it when the diagram maps are independent.

    With U the rows of p's image basis, D = U U^T is diagonal and
    P X P = U^T D^-1 (U X U^T) D^-1 U is injective in M = U X U^T, so with
    c = N^(beta/2) and L = lcm(D) the checks read M_a (L D^-1) M_b = L c M_ab
    and M_id = c D, on M_q = U T(q) U^T.
    """
    _check_member_projective(spec, p)
    group = sym_group(spec, p)
    basis = _image_basis(p, _check_caps(spec, p, N), N)
    u = np.array([v for v, _ in basis], dtype=object).reshape(-1, N**p.upper)
    d = np.array([vv for _, vv in basis], dtype=object)
    c = N ** (stats(p).beta // 2)

    def compressed(q: Partition) -> np.ndarray:
        return u @ t_map(q, N) @ u.T

    comp = {sigma: compressed(p_sigma(p, sigma)) for sigma in group}
    l_over_d, lc = (lcm(*d) // d)[:, None], lcm(*d) * c
    multiplicative = all(
        np.array_equal(
            comp[a] @ (l_over_d * comp[b]), lc * comp[tuple(a[x] for x in b)]
        )
        for a in group
        for b in group
    )
    identity_perm = tuple(range(len(group[0])))
    identity_maps_to_projection = np.array_equal(
        comp[identity_perm], c * np.diag(d)
    )

    vectors = [
        compressed(q).ravel()
        for q in enumerate_in(spec, p.upper, p.upper)
        if not (q.colored and q.colors != p.colors)
    ]
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
        items = [(p, Fraction(c)) for p, c in data.items() if c != 0]
        items.sort(key=lambda pc: Partition.sort_key(pc[0]))
        return BrauerElement(arity, tuple(items))


def brauer_element(p: Partition) -> BrauerElement:
    if p.upper != p.lower:
        raise ArityError("algebra elements live on square diagrams")
    return BrauerElement(p.upper, ((p, Fraction(1)),))


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


def brauer_kernel_dim(spec: CategorySpec, k: int, N: int) -> int:
    """Dimension of the kernel of the algebra's matrix representation:
    member count minus the rank of the diagram maps, read on kernel
    partitions (rank Z of the Gram matrix Z D Z^T, :func:`_map_family_rank`).
    Raises ``ColorError`` on a colored category."""
    count, rk = _map_family_rank(spec, k, N)
    return count - rk
