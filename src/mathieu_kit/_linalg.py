"""Exact dense linear algebra over a :class:`~mathieu_kit.fields.Field`.

Matrices are sequences of row tuples.  Everything here is O(rows * cols^2)
Gauss-Jordan; the dimensions in this package never exceed a few dozen, so
clarity wins over cleverness.  The reduced row-echelon form computed here is
the canonical representative used for subspace identity throughout.

Membership is tested one way only: a subspace is the solution set of its
constraint rows N (:func:`nullspace` of its basis), and ``x`` lies in it
exactly when N x = 0 (:func:`in_span`).  :func:`reduce_vector` is the
elimination residual that quotient maps project with, and
:func:`extend_echelon` grows an echelon basis one vector at a time for the
walks that stop early: the generated ideal at full rank, and the
idempotents already cleared by the criterion.

One body serves F_p and Q alike: every dot product and row operation is
formed exactly with plain ``+`` and ``*`` and passed once through the
field's reduction map :meth:`~mathieu_kit.fields.Field.reduce`, so nothing
here asks which field it is over.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .fields import Field, Scalar

Row = tuple[Scalar, ...]


def rref(field: Field, rows: Sequence[Sequence[Scalar]]) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """Reduced row-echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    reduce = field.reduce
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = field.inv(work[r][col])
        if inv != 1:
            work[r] = [reduce(inv * x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                c = work[i][col]
                work[i] = [reduce(x - c * y) for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def reduce_vector(
    field: Field,
    basis: Sequence[Row],
    pivots: Sequence[int],
    vec: Sequence[Scalar],
) -> Row:
    """Residual of ``vec`` after elimination against an RREF basis.

    The residual is zero exactly when ``vec`` lies in the row space.
    """
    reduce = field.reduce
    v = list(vec)
    for row, col in zip(basis, pivots):
        c = v[col]
        if c != 0:
            v = [reduce(x - c * y) for x, y in zip(v, row)]
    return tuple(v)


def extend_echelon(field: Field, rows: list, pivots: list, vec: Sequence[Scalar]) -> bool:
    """Append ``vec`` to an echelon basis unless it lies in the span; whether it did.

    ``rows`` and ``pivots`` grow in place.  ``vec`` is reduced against the
    rows in order (:func:`reduce_vector`), and a nonzero residual is scaled
    to 1 at its first nonzero coordinate, which becomes its pivot.  Each
    appended row is zero at every earlier pivot, so the residual of any
    vector is zero exactly when it lies in the span of the rows.
    """
    residual = reduce_vector(field, rows, pivots, vec)
    col = next((j for j, x in enumerate(residual) if x != 0), None)
    if col is not None:
        inv = field.inv(residual[col])
        rows.append(tuple(field.mul(inv, x) for x in residual))
        pivots.append(col)
    return col is not None


def in_span(field: Field, constraints: Sequence[Row], vec: Sequence[Scalar]) -> bool:
    """Whether N vec = 0 for the constraint rows N of a subspace.

    ``constraints`` spans the annihilator of the subspace (its
    :func:`nullspace`), so this is membership in the subspace.  Each dot
    product is summed exactly and reduced once, over F_p and Q alike.
    """
    reduce = field.reduce
    return all(reduce(sum(map(mul, row, vec))) == 0 for row in constraints)


def nullspace(
    field: Field, rows: Sequence[Sequence[Scalar]], ncols: int
) -> tuple[tuple[Row, ...], tuple[Row, ...], tuple[int, ...]]:
    """The solution space ``{x : M x = 0}`` of the matrix with the given rows.

    Returns ``(constraints, basis, pivots)``: the RREF of M, which spans the
    annihilator of the solution space and is its canonical list of
    constraint rows; the canonical basis of the solution space (one vector
    per free column of M, re-reduced to RREF); and that basis's pivot
    columns.  Both eliminations are done once, here.
    """
    constraints, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    out = []
    for fc in free_cols:
        v = [field.zero] * ncols
        v[fc] = field.one
        for row, pc in zip(constraints, pivots):
            # M x = 0 forces x[pc] = -sum over free columns of row[fc]*x[fc]
            v[pc] = field.neg(row[fc])
        out.append(v)
    return (constraints, *rref(field, out))


def matvec(field: Field, rows: Sequence[Row], vec: Sequence[Scalar]) -> Row:
    reduce = field.reduce
    return tuple(reduce(sum(map(mul, row, vec))) for row in rows)
