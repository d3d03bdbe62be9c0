"""Canonical linear subspaces of an algebra and the sided ideals they carry.

A :class:`Subspace` stores its basis in reduced row-echelon form, which is a
unique representative: two subspaces are equal exactly when their RREF
matrices coincide.  All counting, witness selection and set-like reporting in
the package relies on that canonical form.

The four sidedness variants (left, right, pre-two-sided, two-sided) are the
index set for both ideals and Mathieu subspaces; ``pre_two_sided`` of an
element means the sum of the left and the right ideal it generates, which for
a noncommutative algebra need not be an ideal of any kind.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Iterable, Iterator

from . import _linalg
from .algebra import Algebra, AlgebraHom, Coords, Element
from .errors import (
    AlgebraMismatch,
    InfiniteField,
    NotAnIdeal,
    TooLarge,
)
from .fields import Field

MAX_SUBSPACES_DEFAULT = 10**6


class Sidedness(Enum):
    LEFT = "left"
    RIGHT = "right"
    PRE_TWO_SIDED = "pre_two_sided"
    TWO_SIDED = "two_sided"

    @classmethod
    def parse(cls, tag) -> "Sidedness":
        if isinstance(tag, Sidedness):
            return tag
        try:
            return cls(str(tag))
        except ValueError:
            raise ValueError(
                f"unknown variant {tag!r}; expected one of "
                f"{[v.value for v in cls]}"
            ) from None


ALL_VARIANTS = tuple(Sidedness)


class Subspace:
    """Linear subspace in canonical reduced row-echelon form."""

    __slots__ = ("ambient", "basis", "pivots", "_constraints", "_idempotents")

    def __init__(self, ambient: Algebra, basis: tuple, pivots: tuple):
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots
        self._constraints = None
        self._idempotents = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def span(cls, ambient: Algebra, vectors: Iterable) -> "Subspace":
        rows = []
        for v in vectors:
            if isinstance(v, Element):
                if v.algebra != ambient:
                    raise AlgebraMismatch("spanning vector from a different algebra")
                rows.append(v.coords)
            else:
                rows.append(tuple(ambient.field.coerce(c) for c in v))
        if any(len(r) != ambient.dim for r in rows):
            raise ValueError("spanning vector length does not match the dimension")
        basis, pivots = _linalg.rref(ambient.field, rows)
        return cls(ambient, basis, pivots)

    @classmethod
    def zero(cls, ambient: Algebra) -> "Subspace":
        return cls(ambient, (), ())

    @classmethod
    def full(cls, ambient: Algebra) -> "Subspace":
        return cls.span(ambient, [ambient._basis_coords(i) for i in range(ambient.dim)])

    # -- structure ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient.dim - len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    @property
    def is_full(self) -> bool:
        return len(self.basis) == self.ambient.dim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and other.ambient == self.ambient
            and other.basis == self.basis
        )

    def __hash__(self) -> int:
        return hash(self.basis)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} of {self.ambient.label})"

    def basis_elements(self) -> list[Element]:
        return [Element(self.ambient, row) for row in self.basis]

    # -- membership --------------------------------------------------------------------

    def member(self, x) -> bool:
        coords = x.coords if isinstance(x, Element) else tuple(x)
        if isinstance(x, Element) and x.algebra != self.ambient:
            raise AlgebraMismatch("membership test across algebras")
        return _linalg.in_span(self.ambient.field, self.basis, self.pivots, coords)

    def member_coords(self, coords: Coords) -> bool:
        return _linalg.in_span(self.ambient.field, self.basis, self.pivots, coords)

    def constraints(self) -> tuple:
        """Rows N with ``x in V  iff  N x = 0`` (the annihilator of the row space)."""
        if self._constraints is None:
            self._constraints = _linalg.nullspace(
                self.ambient.field, self.basis, self.ambient.dim
            )
        return self._constraints

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.member_coords(row) for row in other.basis)

    def contains_unit(self) -> bool:
        return self.member_coords(self.ambient.unit)

    # -- lattice operations ----------------------------------------------------------------

    def _check(self, other: "Subspace") -> None:
        if other.ambient != self.ambient:
            raise AlgebraMismatch("subspaces of different algebras")

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.span(self.ambient, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check(other)
        stacked = self.constraints() + other.constraints()
        rows = _linalg.nullspace(self.ambient.field, stacked, self.ambient.dim)
        basis, pivots = _linalg.rref(self.ambient.field, rows)
        return Subspace(self.ambient, basis, pivots)

    # -- element enumeration -------------------------------------------------------------------

    def size(self) -> int:
        """Number of vectors q^dim over a finite field."""
        return self.ambient.field.order ** self.dim

    def coord_vectors(self) -> Iterator[Coords]:
        """All vectors, in lexicographic order of the coefficient tuples."""
        F = self.ambient.field
        if not F.is_finite:
            raise InfiniteField("cannot enumerate a subspace over the rationals")
        d = self.ambient.dim
        for coeffs in itertools.product(range(F.order), repeat=self.dim):
            acc = [F.zero] * d
            for c, row in zip(coeffs, self.basis):
                if c:
                    acc = [F.add(x, F.mul(c, y)) for x, y in zip(acc, row)]
            yield tuple(acc)

    def elements(self) -> Iterator[Element]:
        for coords in self.coord_vectors():
            yield Element(self.ambient, coords)


def span(ambient: Algebra, vectors: Iterable) -> Subspace:
    return Subspace.span(ambient, vectors)


def intersect(v: Subspace, w: Subspace) -> Subspace:
    return v.intersect(w)


# -- sided ideals ------------------------------------------------------------------


def theta_ideal(a: Element, variant: Sidedness) -> Subspace:
    """The sided ideal generated by ``a`` (for ``pre_two_sided``: aA + Aa).

    The ambient algebra is unital, so ``a`` itself always lies in the span.
    """
    variant = Sidedness.parse(variant)
    A = a.algebra
    basis = [A._basis_coords(i) for i in range(A.dim)]
    gens: list[Coords] = [a.coords]
    if variant in (Sidedness.LEFT, Sidedness.PRE_TWO_SIDED):
        gens.extend(A._mul_coords(b, a.coords) for b in basis)
    if variant in (Sidedness.RIGHT, Sidedness.PRE_TWO_SIDED):
        gens.extend(A._mul_coords(a.coords, b) for b in basis)
    if variant is Sidedness.TWO_SIDED:
        for b in basis:
            ba = A._mul_coords(b, a.coords)
            gens.extend(A._mul_coords(ba, c) for c in basis)
    return Subspace.span(A, gens)


def _mat_mul(field: Field, left, right):
    out = []
    for row in left:
        out_row = []
        for j in range(len(right[0])):
            acc = field.zero
            for k, x in enumerate(row):
                if x != 0 and right[k][j] != 0:
                    acc = field.add(acc, field.mul(x, right[k][j]))
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def max_theta_ideal(v: Subspace, variant: Sidedness) -> Subspace:
    """The maximum sided ideal contained in ``v``.

    Solved as one linear system per variant: x qualifies when every required
    basis translate of x stays inside ``v``.  The unit is in the basis span,
    so the solution set automatically sits inside ``v`` itself.  For
    ``pre_two_sided`` the answer is the sum of the left and right maxima,
    which need not be an ideal.
    """
    variant = Sidedness.parse(variant)
    A = v.ambient
    F = A.field
    if variant is Sidedness.PRE_TWO_SIDED:
        return max_theta_ideal(v, Sidedness.LEFT) + max_theta_ideal(v, Sidedness.RIGHT)
    constraints = v.constraints()
    if not constraints:
        return Subspace.full(A)
    stacked: list = []
    if variant is Sidedness.LEFT:
        for i in range(A.dim):
            stacked.extend(_mat_mul(F, constraints, A.left_mult_matrix(i)))
    elif variant is Sidedness.RIGHT:
        for i in range(A.dim):
            stacked.extend(_mat_mul(F, constraints, A.right_mult_matrix(i)))
    else:
        for i in range(A.dim):
            li = A.left_mult_matrix(i)
            for j in range(A.dim):
                lr = _mat_mul(F, li, A.right_mult_matrix(j))
                stacked.extend(_mat_mul(F, constraints, lr))
    rows = _linalg.nullspace(F, stacked, A.dim)
    basis, pivots = _linalg.rref(F, rows)
    return Subspace(A, basis, pivots)


def is_theta_ideal(v: Subspace, variant: Sidedness) -> bool:
    """Absorption check on basis translates (pre_two_sided means two-sided here)."""
    variant = Sidedness.parse(variant)
    A = v.ambient
    for row in v.basis:
        for i in range(A.dim):
            b = A._basis_coords(i)
            if variant in (Sidedness.LEFT, Sidedness.TWO_SIDED, Sidedness.PRE_TWO_SIDED):
                if not v.member_coords(A._mul_coords(b, row)):
                    return False
            if variant in (Sidedness.RIGHT, Sidedness.TWO_SIDED, Sidedness.PRE_TWO_SIDED):
                if not v.member_coords(A._mul_coords(row, b)):
                    return False
    return True


# -- maps ------------------------------------------------------------------------------


def preimage(hom: AlgebraHom, v: Subspace) -> Subspace:
    """Exact preimage of ``v`` under a verified algebra homomorphism."""
    if v.ambient != hom.codomain:
        raise AlgebraMismatch("subspace does not live in the codomain")
    F = hom.domain.field
    stacked = _mat_mul(F, v.constraints(), hom.matrix)
    rows = _linalg.nullspace(F, stacked, hom.domain.dim)
    basis, pivots = _linalg.rref(F, rows)
    return Subspace(hom.domain, basis, pivots)


def image(hom: AlgebraHom, v: Subspace) -> Subspace:
    """Image of ``v`` under a homomorphism (span of the mapped basis)."""
    if v.ambient != hom.domain:
        raise AlgebraMismatch("subspace does not live in the domain")
    return Subspace.span(hom.codomain, [hom.apply_coords(row) for row in v.basis])


def quotient_algebra(a: Algebra, ideal: Subspace) -> tuple[Algebra, AlgebraHom]:
    """Quotient by a two-sided ideal, with the projection homomorphism.

    The quotient is presented on the classes of the basis vectors at the
    non-pivot columns of the ideal's RREF; reduction against that RREF is the
    section used to compute the induced products.
    """
    if ideal.ambient != a:
        raise AlgebraMismatch("ideal does not live in the algebra")
    F = a.field
    for i in range(a.dim):
        b = a._basis_coords(i)
        for row in ideal.basis:
            if not ideal.member_coords(a._mul_coords(b, row)):
                raise NotAnIdeal((i, row))
            if not ideal.member_coords(a._mul_coords(row, b)):
                raise NotAnIdeal((i, row))
    complement = [j for j in range(a.dim) if j not in set(ideal.pivots)]
    if not complement:
        raise ValueError("quotient by the whole algebra is the excluded one-element ring")

    def project(coords: Coords) -> Coords:
        residual = _linalg.reduce_vector(F, ideal.basis, ideal.pivots, coords)
        return tuple(residual[j] for j in complement)

    m = len(complement)
    table = []
    for ai in range(m):
        row = []
        for bi in range(m):
            prod = a._mul_coords(a._basis_coords(complement[ai]), a._basis_coords(complement[bi]))
            row.append(project(prod))
        table.append(tuple(row))
    unit = project(a.unit)
    label = f"{a.label}/ideal(dim={ideal.dim})"
    quotient = Algebra(F, table, unit, label=label, check=False)
    matrix = tuple(
        tuple(project(a._basis_coords(j))[k] for j in range(a.dim)) for k in range(m)
    )
    return quotient, AlgebraHom(a, quotient, matrix)


# -- exhaustive enumeration -----------------------------------------------------------------


def gaussian_binomial(d: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of a d-dimensional space over F_q."""
    if r < 0 or r > d:
        return 0
    num = 1
    den = 1
    for i in range(r):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def enumerate_subspaces(
    a: Algebra, r: int, max_count: int = MAX_SUBSPACES_DEFAULT
) -> Iterator[Subspace]:
    """All r-dimensional subspaces, exactly once each.

    Emitted in ascending lexicographic order of the flattened RREF basis
    matrix, which makes "the first subspace such that ..." deterministic and
    reproducible.  Refuses (``TooLarge``) when the Gaussian-binomial count
    exceeds ``max_count``.
    """
    F = a.field
    if not F.is_finite:
        raise InfiniteField("subspace enumeration needs a finite field")
    d = a.dim
    if r < 0 or r > d:
        return iter(())
    q = F.order
    count = gaussian_binomial(d, r, q)
    if count > max_count:
        raise TooLarge(count, max_count, what=f"subspace enumeration over {a.label}")

    matrices = []
    for pivots in itertools.combinations(range(d), r):
        pivot_set = set(pivots)
        free_positions = [
            (i, j)
            for i in range(r)
            for j in range(pivots[i] + 1, d)
            if j not in pivot_set
        ]
        for values in itertools.product(range(q), repeat=len(free_positions)):
            rows = [[F.zero] * d for _ in range(r)]
            for i, p in enumerate(pivots):
                rows[i][p] = F.one
            for (i, j), val in zip(free_positions, values):
                rows[i][j] = F.coerce(val)
            matrices.append((tuple(tuple(row) for row in rows), tuple(pivots)))
    matrices.sort(key=lambda item: item[0])
    return (Subspace(a, basis, pivots) for basis, pivots in matrices)


def all_subspaces(
    a: Algebra, max_count: int = MAX_SUBSPACES_DEFAULT
) -> Iterator[Subspace]:
    """Every subspace of every dimension, zero subspace first."""
    total = sum(gaussian_binomial(a.dim, r, a.field.order) for r in range(a.dim + 1))
    if total > max_count:
        raise TooLarge(total, max_count, what=f"subspace enumeration over {a.label}")
    for r in range(a.dim + 1):
        yield from enumerate_subspaces(a, r, max_count=max_count)
