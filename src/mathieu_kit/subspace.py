"""Canonical linear subspaces of an algebra and the sided ideals they carry.

A :class:`Subspace` stores its basis in reduced row-echelon form, which is a
unique representative: two subspaces are equal exactly when their RREF
matrices coincide.  All counting, witness selection and set-like reporting in
the package relies on that canonical form.  Membership is tested through the
cached constraint rows N of a subspace: x lies in V exactly when N x = 0.

The four sidedness variants (left, right, pre-two-sided, two-sided) are the
index set for both ideals and Mathieu subspaces; ``pre_two_sided`` of an
element means the sum of the left and the right ideal it generates, which for
a noncommutative algebra need not be an ideal of any kind.  Which basis
translates of x a variant asks about is decided in one place,
:func:`translates`; the generated ideal, the ideal check and the refuting
idempotents of :mod:`mathieu_kit.mathieu` all read that list.  The maximum
ideal inside a subspace needs only the translates of basis vectors, which
are the structure constants themselves, and reads them from the table.
"""

from __future__ import annotations

import heapq
import itertools
from enum import Enum
from operator import mul
from typing import Callable, Iterable, Iterator, Optional

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
    """Linear subspace in canonical reduced row-echelon form.

    ``constraints``, when given, must be the canonical constraint rows of
    the subspace (see :meth:`constraints`); otherwise they are computed on
    first use.
    """

    __slots__ = ("ambient", "basis", "pivots", "_constraints")

    def __init__(
        self, ambient: Algebra, basis: tuple, pivots: tuple, constraints: Optional[tuple] = None
    ):
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots
        self._constraints = constraints

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
        return cls(ambient, ambient._basis, tuple(range(ambient.dim)), ())

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
        if isinstance(x, Element):
            if x.algebra != self.ambient:
                raise AlgebraMismatch("membership test across algebras")
            x = x.coords
        elif len(x) != self.ambient.dim:
            raise ValueError(f"expected {self.ambient.dim} coordinates, got {len(x)}")
        return self.member_coords(tuple(x))

    def member_coords(self, coords: Coords) -> bool:
        """Whether N x = 0 for the constraint rows N of this subspace."""
        return _linalg.in_span(self.ambient.field, self.constraints(), coords)

    def constraints(self) -> tuple:
        """Rows N with ``x in V  iff  N x = 0`` (the annihilator of the row space).

        The RREF basis of the annihilator: stored when the subspace was
        solved for as the kernel of those rows, otherwise computed once.
        """
        if self._constraints is None:
            _, self._constraints, _ = _linalg.nullspace(
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
        return _solution_space(self.ambient, self.constraints() + other.constraints())

    # -- element enumeration -------------------------------------------------------------------

    def size(self) -> int:
        """Number of vectors q^dim over a finite field."""
        return self.ambient.field.order ** self.dim

    def coord_vectors(self) -> Iterator[Coords]:
        """All vectors, in lexicographic order of the coefficient tuples."""
        F = self.ambient.field
        if not F.is_finite:
            raise InfiniteField("cannot enumerate a subspace over the rationals")
        reduce = F.reduce
        columns = [[row[k] for row in self.basis] for k in range(self.ambient.dim)]
        for coeffs in itertools.product(range(F.order), repeat=self.dim):
            yield tuple(reduce(sum(map(mul, coeffs, col))) for col in columns)

    def elements(self) -> Iterator[Element]:
        for coords in self.coord_vectors():
            yield Element(self.ambient, coords)


def span(ambient: Algebra, vectors: Iterable) -> Subspace:
    return Subspace.span(ambient, vectors)


def intersect(v: Subspace, w: Subspace) -> Subspace:
    return v.intersect(w)


# -- sided ideals ------------------------------------------------------------------


def translates(
    a: Algebra, x: Coords, variant: Sidedness
) -> Iterator[tuple[Optional[Coords], Optional[Coords], Coords]]:
    """The basis translates ``(b, c, product)`` of x that a variant asks about.

    Left and pre-two-sided: b*x for b over the basis (c is None); right and
    pre-two-sided: x*c for c over the basis (b is None), after the left ones;
    two-sided: b*x*c with b the outer loop.  This order is the witness order
    of :func:`mathieu_kit.mathieu.decide_mathieu`.
    """
    basis = a._basis
    if variant in (Sidedness.LEFT, Sidedness.PRE_TWO_SIDED):
        for b in basis:
            yield b, None, a._mul_coords(b, x)
    if variant in (Sidedness.RIGHT, Sidedness.PRE_TWO_SIDED):
        for c in basis:
            yield None, c, a._mul_coords(x, c)
    if variant is Sidedness.TWO_SIDED:
        for b in basis:
            bx = a._mul_coords(b, x)
            for c in basis:
                yield b, c, a._mul_coords(bx, c)


def theta_ideal(a: Element, variant: Sidedness) -> Subspace:
    """The sided ideal generated by ``a`` (for ``pre_two_sided``: aA + Aa).

    The ambient algebra is unital, so ``a`` itself always lies in the span.
    """
    variant = Sidedness.parse(variant)
    A = a.algebra
    gens = [a.coords] + [prod for _, _, prod in translates(A, a.coords, variant)]
    return Subspace.span(A, gens)


def _pull_back(field: Field, constraints, images) -> list[Coords]:
    """Rows N M for the linear map M whose columns are ``images``.

    x satisfies them exactly when M x satisfies the constraint rows N.
    """
    return [_linalg.matvec(field, images, row) for row in constraints]


def _solution_space(a: Algebra, rows) -> Subspace:
    """``{x : M x = 0}`` for the given rows M, with M's RREF as its constraints."""
    constraints, basis, pivots = _linalg.nullspace(a.field, rows, a.dim)
    return Subspace(a, basis, pivots, constraints)


def max_theta_ideal(v: Subspace, variant: Sidedness) -> Subspace:
    """The maximum sided ideal contained in ``v``.

    A one-sided maximum is solved as one linear system: x qualifies when
    each of its d basis translates stays inside ``v``.  The t-th translate
    is linear in x, and its columns, the products of e_t with the basis
    vectors, are structure constants: row t of the table (left, e_t*e_j)
    or column t (right, e_j*e_t).  The system is v's constraint rows pulled
    back along each translate map.  The unit is in the basis span, so the
    solution set automatically sits inside ``v`` itself.

    The two-sided maximum is two one-sided steps, the left maximum inside
    the right maximum of ``v``: x lies in it exactly when b*x*c lies in
    ``v`` for every pair of basis vectors b, c, which is the two-sided
    condition.  For ``pre_two_sided`` the answer is the sum of the left and
    right maxima, which need not be an ideal.
    """
    variant = Sidedness.parse(variant)
    A = v.ambient
    if variant is Sidedness.TWO_SIDED:
        return max_theta_ideal(max_theta_ideal(v, Sidedness.RIGHT), Sidedness.LEFT)
    if variant is Sidedness.PRE_TWO_SIDED:
        return max_theta_ideal(v, Sidedness.LEFT) + max_theta_ideal(v, Sidedness.RIGHT)
    constraints = v.constraints()
    if not constraints:
        return Subspace.full(A)
    maps = A.table if variant is Sidedness.LEFT else zip(*A.table)
    stacked = [row for images in maps for row in _pull_back(A.field, constraints, images)]
    return _solution_space(A, stacked)


def max_theta_ideals(v: Subspace, solve: Optional[Callable] = None) -> dict[Sidedness, Subspace]:
    """All four maxima, each as :func:`max_theta_ideal` gives it, from the
    left and right maxima of ``v`` solved once each: two-sided is the left
    maximum inside the right one, pre-two-sided their sum.  ``solve(w,
    side)`` gives each one-sided maximum, :func:`max_theta_ideal` unless a
    caller that keeps them passes its own."""
    solve = solve or max_theta_ideal
    left, right = solve(v, Sidedness.LEFT), solve(v, Sidedness.RIGHT)
    two_sided = solve(right, Sidedness.LEFT)
    return dict(zip(ALL_VARIANTS, (left, right, left + right, two_sided)))


def is_theta_ideal(v: Subspace, variant: Sidedness) -> bool:
    """Absorption check on the one-sided translates of the basis rows.

    For ``two_sided`` (and ``pre_two_sided``) both sides are checked; b*x*c
    then follows from the two one-sided steps.
    """
    variant = Sidedness.parse(variant)
    if variant is Sidedness.TWO_SIDED:
        variant = Sidedness.PRE_TWO_SIDED
    return all(
        v.member_coords(prod)
        for row in v.basis
        for _, _, prod in translates(v.ambient, row, variant)
    )


# -- maps ------------------------------------------------------------------------------


def preimage(hom: AlgebraHom, v: Subspace) -> Subspace:
    """Exact preimage of ``v`` under a verified algebra homomorphism."""
    if v.ambient != hom.codomain:
        raise AlgebraMismatch("subspace does not live in the codomain")
    images = [hom.apply_coords(e) for e in hom.domain._basis]
    return _solution_space(hom.domain, _pull_back(hom.domain.field, v.constraints(), images))


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
    for row in ideal.basis:
        for b, c, prod in translates(a, row, Sidedness.PRE_TWO_SIDED):
            if not ideal.member_coords(prod):
                raise NotAnIdeal((b if c is None else c, row))
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
            row.append(project(a.table[complement[ai]][complement[bi]]))
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
    """All r-dimensional subspaces, exactly once each, as a lazy generator.

    Emitted in ascending lexicographic order of the flattened RREF basis
    matrix, which makes "the first subspace such that ..." deterministic and
    reproducible.  Each pivot pattern's RREF matrices, built in
    lexicographic order of their free entries, are already in that order,
    so the streams of all patterns are merged (``heapq.merge``) and a
    subspace is built only when it is reached.  Refuses (``TooLarge``) at
    call time, before anything is built, when the Gaussian-binomial count
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

    def with_pivots(pivots: tuple[int, ...]) -> Iterator[Subspace]:
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
            yield Subspace(a, tuple(tuple(row) for row in rows), pivots)

    return heapq.merge(
        *map(with_pivots, itertools.combinations(range(d), r)), key=lambda v: v.basis
    )


def all_subspaces(
    a: Algebra, max_count: int = MAX_SUBSPACES_DEFAULT
) -> Iterator[Subspace]:
    """Every subspace of every dimension, zero subspace first."""
    total = sum(gaussian_binomial(a.dim, r, a.field.order) for r in range(a.dim + 1))
    if total > max_count:
        raise TooLarge(total, max_count, what=f"subspace enumeration over {a.label}")
    for r in range(a.dim + 1):
        yield from enumerate_subspaces(a, r, max_count=max_count)
