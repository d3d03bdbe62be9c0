"""Finite-dimensional associative unital algebras presented by structure
constants.

An :class:`Algebra` over a base field fixes a distinguished basis
``e_0, ..., e_{d-1}`` and a table ``c`` with ``e_i * e_j = sum_k c[i][j][k] e_k``.
Elements are coordinate vectors in that basis.  Associativity and the unit
law are verified at construction (``check=True``); the named constructors
(matrix algebra, polynomial quotient, direct sum, opposite) produce tables
that are correct by construction and skip the O(d^3) re-check.

The matrix algebra of n x n matrices uses the matrix-unit basis in row-major
order (E_11, E_12, ..., E_nn), so coordinate vectors of its elements are the
matrices themselves read row by row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isqrt
from typing import Iterator, Optional, Sequence

from ._linalg import matvec
from .errors import (
    AlgebraMismatch,
    BadUnit,
    FieldMismatch,
    InfiniteField,
    InvertibleInput,
    NilpotentInput,
    NotAHomomorphism,
    NotAssociative,
    NotMonic,
)
from .fields import Field, Poly, Scalar, poly_ext_gcd, poly_split_at_zero

Coords = tuple[Scalar, ...]

#: Products an algebra keeps in its memo; past it they are computed, not kept.
PRODUCT_MEMO_CAP = 1 << 14


class Algebra:
    """Associative unital algebra with a distinguished basis."""

    __slots__ = (
        "field",
        "dim",
        "table",
        "unit",
        "label",
        "_basis",
        "_sparse",
        "_commutative",
        "_matrix_size",
        "_power_data",
        "_idempotents",
        "_products",
    )

    def __init__(self, field: Field, table, unit, label: str = "", check: bool = True):
        dim = len(table)
        if dim < 1:
            raise ValueError("algebras here have dimension at least 1")
        tab = []
        for i, row in enumerate(table):
            if len(row) != dim:
                raise ValueError(f"table row {i} has length {len(row)}, expected {dim}")
            trow = []
            for j, vec in enumerate(row):
                if len(vec) != dim:
                    raise ValueError(f"table entry ({i},{j}) has length {len(vec)}")
                trow.append(tuple(field.coerce(c) for c in vec))
            tab.append(tuple(trow))
        if len(unit) != dim:
            raise ValueError("unit vector length does not match dimension")
        self.field = field
        self.dim = dim
        self.table = tuple(tab)
        self.unit = tuple(field.coerce(c) for c in unit)
        self.label = label or f"algebra(dim={dim}, {field!r})"
        self._basis = tuple(
            tuple(field.one if j == i else field.zero for j in range(dim))
            for i in range(dim)
        )
        self._sparse = None
        self._commutative: Optional[bool] = None
        self._matrix_size: Optional[int] = -1  # -1 = not yet detected
        self._power_data = None
        self._idempotents = None
        self._products: dict[tuple[Coords, Coords], Coords] = {}
        if check:
            self._verify()

    # -- validation --------------------------------------------------------------

    def _verify(self) -> None:
        d = self.dim
        basis = [self._basis_coords(i) for i in range(d)]
        for i, e in enumerate(basis):
            if self._mul_coords(self.unit, e) != e or self._mul_coords(e, self.unit) != e:
                raise BadUnit(i)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    left = self._mul_coords(self.table[i][j], basis[k])
                    right = self._mul_coords(basis[i], self.table[j][k])
                    if left != right:
                        raise NotAssociative((i, j, k))

    # -- identity -------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Algebra)
            and other.field == self.field
            and other.table == self.table
            and other.unit == self.unit
        )

    def __hash__(self) -> int:
        return hash((self.field, self.table, self.unit))

    def __repr__(self) -> str:
        return f"Algebra({self.label})"

    # -- structure ---------------------------------------------------------------------

    @property
    def is_commutative(self) -> bool:
        if self._commutative is None:
            self._commutative = all(
                self.table[i][j] == self.table[j][i]
                for i in range(self.dim)
                for j in range(i + 1, self.dim)
            )
        return self._commutative

    @property
    def matrix_size(self) -> Optional[int]:
        """n if this is M_n on the matrix-unit basis, else None."""
        if self._matrix_size == -1:
            self._matrix_size = self._detect_matrix()
        return self._matrix_size

    def _detect_matrix(self) -> Optional[int]:
        n = isqrt(self.dim)
        if n * n != self.dim:
            return None
        F = self.field
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for e in range(n):
                        vec = self.table[a * n + b][c * n + e]
                        for k, x in enumerate(vec):
                            want = F.one if (b == c and k == a * n + e) else F.zero
                            if x != want:
                                return None
        ident = tuple(
            F.one if (i // n == i % n) else F.zero for i in range(self.dim)
        )
        return n if self.unit == ident else None

    # -- element helpers -----------------------------------------------------------------

    def _basis_coords(self, i: int) -> Coords:
        return self._basis[i]

    def basis_element(self, i: int) -> "Element":
        return Element(self, self._basis_coords(i))

    def element(self, coords: Sequence) -> "Element":
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        return Element(self, tuple(self.field.coerce(c) for c in coords))

    def zero(self) -> "Element":
        return Element(self, tuple(self.field.zero for _ in range(self.dim)))

    def one(self) -> "Element":
        return Element(self, self.unit)

    def elements(self) -> Iterator["Element"]:
        """All elements in ascending lexicographic coordinate order (finite field)."""
        if not self.field.is_finite:
            raise InfiniteField("cannot enumerate an algebra over the rationals")
        for coords in itertools.product(range(self.field.order), repeat=self.dim):
            yield Element(self, coords)

    @property
    def size(self) -> int:
        """Number of elements q^dim over a finite field."""
        return self.field.order**self.dim

    # -- products ------------------------------------------------------------------------

    def _sparse_table(self):
        """The nonzero structure constants, cached on the instance.

        Entry [i][j] holds the pairs (k, c) with c = table[i][j][k] != 0, k
        ascending; the reference product and ``_scan.batch_mul`` both read it.
        """
        if self._sparse is None:
            self._sparse = tuple(
                tuple(
                    tuple((k, c) for k, c in enumerate(vec) if c != 0)
                    for vec in row
                )
                for row in self.table
            )
        return self._sparse

    def _mul_coords(self, x: Coords, y: Coords) -> Coords:
        """x*y from the structure constants, each coordinate summed exactly
        and reduced once; a coordinate whose sum is 0 is ``field.zero``.

        The product is kept in the algebra's memo, keyed by (x, y), while it
        holds fewer than ``PRODUCT_MEMO_CAP`` products, and read back from it.
        """
        prod = self._products.get((x, y))
        if prod is not None:
            return prod
        out = [0] * self.dim
        sparse = self._sparse_table()
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            row = sparse[i]
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                xy = xi * yj
                for k, c in row[j]:
                    out[k] += xy * c
        reduce, zero = self.field.reduce, self.field.zero
        prod = tuple([reduce(s) if s else zero for s in out])
        if len(self._products) < PRODUCT_MEMO_CAP:
            self._products[x, y] = prod
        return prod


def make_algebra(field: Field, table, unit, label: str = "") -> Algebra:
    """Build and validate an algebra from raw structure constants."""
    return Algebra(field, table, unit, label=label)


class Element:
    """Coordinate vector in a fixed algebra's distinguished basis."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords: Coords):
        self.algebra = algebra
        self.coords = coords

    def _check(self, other: "Element") -> None:
        if not isinstance(other, Element) or other.algebra != self.algebra:
            raise AlgebraMismatch("elements of different algebras")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and other.algebra == self.algebra
            and other.coords == self.coords
        )

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Element({list(self.coords)} in {self.algebra.label})"

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        F = self.algebra.field
        return Element(self.algebra, tuple(F.add(a, b) for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        F = self.algebra.field
        return Element(self.algebra, tuple(F.sub(a, b) for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Element":
        F = self.algebra.field
        return Element(self.algebra, tuple(F.neg(a) for a in self.coords))

    def scale(self, s: Scalar) -> "Element":
        F = self.algebra.field
        s = F.coerce(s)
        return Element(self.algebra, tuple(F.mul(s, a) for a in self.coords))

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, self.algebra._mul_coords(self.coords, other.coords))

    def __pow__(self, m: int) -> "Element":
        return elem_power(self, m)


def elem_mul(a: Element, b: Element) -> Element:
    """Product through the structure-constant table."""
    return a * b


def elem_power(a: Element, m: int) -> Element:
    """a^m by iterated squaring; a^0 is the unit."""
    if m < 0:
        raise ValueError("negative powers are not defined")
    A = a.algebra
    result = A.one()
    base = a
    while m > 0:
        if m & 1:
            result = result * base
        m >>= 1
        if m:
            base = base * base
    return result


@dataclass(frozen=True)
class MinPolyData:
    """Monic minimal polynomial with its split ``minpoly = t^k * h``, h(0) != 0."""

    minpoly: Poly
    k: int
    h: Poly

    @property
    def degree(self) -> int:
        return self.minpoly.degree


def minimal_polynomial(a: Element) -> MinPolyData:
    """Least-degree monic annihilator of ``a``.

    Found as the first linear dependence in the sequence 1, a, a^2, ...;
    the first dependence is unique, so no tie-breaking is needed.
    """
    A = a.algebra
    F = A.field
    reduce = F.reduce
    rows: list[tuple[list, int, list]] = []  # (vector, pivot, combination)
    cur = list(A.unit)
    m = 0
    while True:
        vec = list(cur)
        combo = [F.zero] * m + [F.one]
        for rvec, rpiv, rcombo in rows:
            c = vec[rpiv]
            if c != 0:
                vec = [reduce(x - c * y) for x, y in zip(vec, rvec)]
                for idx, y in enumerate(rcombo):
                    combo[idx] = reduce(combo[idx] - c * y)
        if all(x == 0 for x in vec):
            poly = Poly(F, combo)
            k, h = poly_split_at_zero(poly)
            return MinPolyData(poly, k, h)
        piv = next(idx for idx, x in enumerate(vec) if x != 0)
        inv = F.inv(vec[piv])
        if inv != 1:
            vec = [reduce(inv * x) for x in vec]
            combo = [reduce(inv * x) for x in combo]
        rows.append((vec, piv, combo))
        m += 1
        cur = A._mul_coords(tuple(cur), a.coords)


@dataclass(frozen=True)
class ElementClassification:
    nilpotent: bool
    invertible: bool
    idempotent: bool
    quasi_idempotent: bool
    degree: int


def quasi_ratio(a: Element) -> Optional[Scalar]:
    """The nonzero scalar r with a^2 = r*a, if one exists (None otherwise).

    The zero element has no such ratio even though the package-level
    predicate counts it as quasi-idempotent.
    """
    if a.is_zero:
        return None
    F = a.algebra.field
    sq = (a * a).coords
    i = next(idx for idx, c in enumerate(a.coords) if c != 0)
    r = F.div(sq[i], a.coords[i])
    if r == 0:
        return None
    if all(s == F.mul(r, c) for s, c in zip(sq, a.coords)):
        return r
    return None


def is_quasi_idempotent(a: Element) -> bool:
    """a^2 = r*a for some nonzero scalar r; the zero element counts as one."""
    return a.is_zero or quasi_ratio(a) is not None


def classify_element(a: Element) -> ElementClassification:
    mp = minimal_polynomial(a)
    return ElementClassification(
        nilpotent=mp.k >= 1 and mp.h.degree == 0,
        invertible=mp.k == 0,
        idempotent=(a * a) == a,
        quasi_idempotent=is_quasi_idempotent(a),
        degree=mp.degree,
    )


def idempotent_poly(data: MinPolyData) -> Poly:
    """Polynomial p with p(a) idempotent, built from the minimal polynomial.

    With ``minpoly = t^k * h`` and ``h(0) != 0``, the powers t^k and h are
    coprime, so Bezout gives ``1 = t^k u + h v``; the polynomial
    ``p = t^k u`` is idempotent modulo the minimal polynomial and kills
    nothing below t^k.  The result is returned reduced modulo the minimal
    polynomial (same value at ``a``, smaller degree).
    """
    if data.h.degree == 0:
        raise NilpotentInput("nilpotent elements admit no such idempotent")
    if data.k == 0:
        raise InvertibleInput("invertible elements admit only the trivial idempotent")
    F = data.minpoly.field
    t_k = Poly(F, (F.zero,) * data.k + (F.one,))
    _, u, _ = poly_ext_gcd(t_k, data.h)
    return (t_k * u) % data.minpoly


def poly_eval_element(poly: Poly, a: Element) -> Element:
    """Evaluate a polynomial at an algebra element (Horner)."""
    A = a.algebra
    acc = A.zero()
    for c in reversed(poly.coeffs):
        acc = acc * a + A.one().scale(c)
    return acc


def build_p_of_a(a: Element) -> Element:
    """The canonical nontrivial idempotent in the span of positive powers of ``a``.

    Requires ``a`` neither nilpotent nor invertible.  The result p(a)
    satisfies p(a)^2 = p(a), p(a) not in {0, 1}, and a^k = a^k p(a) where k
    is the multiplicity of 0 as a root of the minimal polynomial of ``a``.
    """
    return poly_eval_element(idempotent_poly(minimal_polynomial(a)), a)


@dataclass(frozen=True)
class CycleInfo:
    """Eventual periodicity of the power sequence a, a^2, a^3, ...

    ``a^(m + period) == a^m`` for all m >= preperiod, with preperiod minimal
    and then period minimal.  ``powers`` holds the coordinates of a^1 ..
    a^(preperiod + period - 1), every distinct power once.
    """

    preperiod: int
    period: int
    powers: tuple[Coords, ...] = ()


def power_cycle(a: Element) -> CycleInfo:
    """Minimal (preperiod, period) of the power sequence, by hashing.

    This is deliberately independent of the minimal polynomial: it grounds
    the brute-force membership oracles, so it must not share machinery with
    the window-based radical test it cross-checks.
    """
    if not a.algebra.field.is_finite:
        raise InfiniteField("power sequences need a finite field to cycle")
    seen: dict[Coords, int] = {}
    A = a.algebra
    cur = a.coords
    m = 1
    while cur not in seen:
        seen[cur] = m
        cur = A._mul_coords(cur, a.coords)
        m += 1
    mu = seen[cur]
    return CycleInfo(preperiod=mu, period=m - mu, powers=tuple(seen))


class AlgebraHom:
    """Unit-preserving algebra homomorphism given by its coordinate matrix.

    ``matrix`` has ``codomain.dim`` rows and ``domain.dim`` columns; the
    image of e_j is the j-th column.  Construction verifies the unit law and
    multiplicativity on all basis pairs.
    """

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: Algebra, codomain: Algebra, matrix):
        if domain.field != codomain.field:
            raise FieldMismatch("homomorphism between algebras over different fields")
        F = domain.field
        rows = tuple(tuple(F.coerce(c) for c in row) for row in matrix)
        if len(rows) != codomain.dim or any(len(r) != domain.dim for r in rows):
            raise ValueError("matrix shape does not match (codomain.dim, domain.dim)")
        self.domain = domain
        self.codomain = codomain
        self.matrix = rows
        self._verify()

    def _verify(self) -> None:
        F = self.domain.field
        if self.apply_coords(self.domain.unit) != self.codomain.unit:
            raise NotAHomomorphism("unit is not preserved")
        d = self.domain.dim
        images = [self.apply_coords(self.domain._basis_coords(i)) for i in range(d)]
        for i in range(d):
            for j in range(d):
                lhs = self.codomain._mul_coords(images[i], images[j])
                rhs = self.apply_coords(self.domain.table[i][j])
                if lhs != rhs:
                    raise NotAHomomorphism(f"multiplicativity fails on basis pair ({i}, {j})")

    def apply_coords(self, coords: Coords) -> Coords:
        return matvec(self.domain.field, self.matrix, coords)

    def __call__(self, a: Element) -> Element:
        if a.algebra != self.domain:
            raise AlgebraMismatch("element is not in the domain")
        return Element(self.codomain, self.apply_coords(a.coords))


# -- named constructors -------------------------------------------------------------


def matrix_algebra(n: int, field: Field) -> Algebra:
    """M_n over the given field, on the row-major matrix-unit basis."""
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    F = field
    d = n * n
    zero_vec = tuple(F.zero for _ in range(d))
    table = []
    for a in range(n):
        for b in range(n):
            row = []
            for c in range(n):
                for e in range(n):
                    if b == c:
                        row.append(
                            tuple(
                                F.one if k == a * n + e else F.zero for k in range(d)
                            )
                        )
                    else:
                        row.append(zero_vec)
            table.append(tuple(row))
    unit = tuple(F.one if (i // n == i % n) else F.zero for i in range(d))
    name = f"M_{n}({F!r})"
    alg = Algebra(F, table, unit, label=name, check=False)
    alg._matrix_size = n
    return alg


def _poly_str(g: Poly) -> str:
    body = repr(g)
    return body[len("Poly(") : -1]


def poly_quotient_algebra(g: Poly) -> Algebra:
    """The commutative quotient of the polynomial ring by a monic modulus.

    Basis 1, t, ..., t^(deg g - 1); products are reduced modulo g.
    """
    if g.is_zero or not g.is_monic:
        raise NotMonic("modulus must be monic")
    if g.degree < 1:
        raise ValueError("modulus must have degree at least 1")
    F = g.field
    d = g.degree
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            rem = Poly(F, (F.zero,) * (i + j) + (F.one,)) % g
            row.append(tuple(rem.coeff(k) for k in range(d)))
        table.append(tuple(row))
    unit = tuple(F.one if k == 0 else F.zero for k in range(d))
    name = f"{F!r}[t]/({_poly_str(g)})"
    return Algebra(F, table, unit, label=name, check=False)


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """Componentwise product algebra on the concatenated bases."""
    if a.field != b.field:
        raise FieldMismatch("direct sum needs a common base field")
    F = a.field
    d = a.dim + b.dim
    zero_vec = tuple(F.zero for _ in range(d))
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            if i < a.dim and j < a.dim:
                vec = a.table[i][j] + tuple(F.zero for _ in range(b.dim))
            elif i >= a.dim and j >= a.dim:
                vec = tuple(F.zero for _ in range(a.dim)) + b.table[i - a.dim][j - a.dim]
            else:
                vec = zero_vec
            row.append(vec)
        table.append(tuple(row))
    unit = a.unit + b.unit
    return Algebra(F, table, unit, label=f"dsum({a.label},{b.label})", check=False)


def opposite(a: Algebra) -> Algebra:
    """Same space, reversed product: the (i,j) entry is the old (j,i) entry."""
    table = tuple(
        tuple(a.table[j][i] for j in range(a.dim)) for i in range(a.dim)
    )
    return Algebra(a.field, table, a.unit, label=f"opp({a.label})", check=False)


def field_algebra(field: Field) -> Algebra:
    """The base field itself as a 1-dimensional algebra."""
    one = field.one
    return Algebra(field, (((one,),),), (one,), label=f"{field!r}", check=False)
