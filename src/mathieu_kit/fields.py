"""Exact arithmetic over prime fields F_p and the rationals, plus dense
univariate polynomials.

Scalars are plain Python values: an element of F_p is an ``int`` residue in
``[0, p)`` and a rational is a ``fractions.Fraction`` in lowest terms (the
``Fraction`` type keeps denominators positive on its own).  A :class:`Field`
carries the characteristic and implements arithmetic on these raw values;
there is no per-element wrapper object, so vectors of scalars are ordinary
tuples and exhaustive loops stay cheap.

Arithmetic tells F_p from Q in one place, the field's one reduction map
:meth:`Field.reduce`: x mod p over F_p, ``Fraction(x)`` over Q.  A sum of
products is accumulated exactly with plain ``+`` and ``*`` on Python ints or
Fractions and reduced once per result coordinate, the rule the numpy kernels
in ``_scan`` follow too; the single-operation methods (``add``, ``mul``, ...)
are one call of it each.

Polynomials are dense ascending coefficient tuples with no trailing zeros.
The zero polynomial has an empty coefficient tuple and degree -1.

Serialization: an F_p scalar renders as its decimal residue string, a
rational as ``"num/den"`` in lowest terms with positive denominator.
Polynomials serialize as ascending arrays of scalar strings.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence, Union

from .errors import (
    BothZero,
    DivisionByZero,
    FieldMismatch,
    InfiniteField,
    ZeroPolynomial,
)

Scalar = Union[int, Fraction]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for f in range(3, isqrt(n) + 1, 2):
        if n % f == 0:
            return False
    return True


class Field:
    """A prime field F_p (characteristic p) or the rationals (characteristic 0)."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int):
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError(f"characteristic must be 0 or a prime, got {characteristic}")
        self.characteristic = characteristic

    # -- identity ------------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.characteristic != 0

    @property
    def order(self) -> int:
        if not self.is_finite:
            raise InfiniteField("the rationals are infinite")
        return self.characteristic

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.characteristic == self.characteristic

    def __hash__(self) -> int:
        return hash(("Field", self.characteristic))

    def __repr__(self) -> str:
        return f"F({self.characteristic})" if self.is_finite else "QQ"

    # -- element construction --------------------------------------------------

    def reduce(self, x) -> Scalar:
        """The field's one reduction map: x mod p over F_p, ``Fraction(x)`` over Q.

        ``x`` is any exact Python int or Fraction (a Fraction only over Q), so
        a sum of products can be formed with plain ``+`` and ``*`` and
        reduced once.
        """
        return x % self.characteristic if self.characteristic else Fraction(x)

    @property
    def zero(self) -> Scalar:
        return self.reduce(0)

    @property
    def one(self) -> Scalar:
        return self.reduce(1)

    def from_int(self, n: int) -> Scalar:
        return self.reduce(n)

    def coerce(self, value) -> Scalar:
        """Validate/convert ``value`` into a scalar of this field."""
        if self.is_finite:
            if isinstance(value, bool) or not isinstance(value, int):
                raise FieldMismatch(f"{value!r} is not an F_{self.characteristic} residue")
            if not 0 <= value < self.characteristic:
                raise FieldMismatch(
                    f"residue {value} out of range [0, {self.characteristic})"
                )
            return value
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        raise FieldMismatch(f"{value!r} is not a rational scalar")

    # -- arithmetic -------------------------------------------------------------

    def add(self, x: Scalar, y: Scalar) -> Scalar:
        return self.reduce(x + y)

    def sub(self, x: Scalar, y: Scalar) -> Scalar:
        return self.reduce(x - y)

    def mul(self, x: Scalar, y: Scalar) -> Scalar:
        return self.reduce(x * y)

    def neg(self, x: Scalar) -> Scalar:
        return self.reduce(-x)

    def inv(self, x: Scalar) -> Scalar:
        if x == 0:
            raise DivisionByZero("inverse of zero")
        if self.is_finite:
            return pow(x, self.characteristic - 2, self.characteristic)
        return 1 / x

    def div(self, x: Scalar, y: Scalar) -> Scalar:
        return self.mul(x, self.inv(y))

    # -- serialization ------------------------------------------------------------

    def format(self, x: Scalar) -> str:
        if self.is_finite:
            return str(x)
        x = Fraction(x)
        return f"{x.numerator}/{x.denominator}"

    def parse(self, text: str) -> Scalar:
        text = text.strip()
        if "/" in text:
            if self.is_finite:
                raise FieldMismatch(f"fraction {text!r} is not an F_p residue")
            num, den = (int(part) for part in text.split("/", 1))
            if den == 0:
                raise DivisionByZero(f"zero denominator in {text!r}")
            return Fraction(num, den)
        return self.coerce(int(text))


#: The rationals, shared instance.
QQ = Field(0)


def GF(p: int) -> Field:
    """The prime field with ``p`` elements."""
    if p == 0:
        raise ValueError("characteristic 0 is the rationals; use QQ")
    return Field(p)


_BINARY = {"add", "sub", "mul"}
_UNARY = {"inv", "neg"}


def field_arith(field: Field, op: str, x, y=None) -> Scalar:
    """Dispatch one exact field operation by name.

    ``op`` is one of ``add``, ``sub``, ``mul``, ``inv``, ``neg``; the unary
    ones ignore ``y``.  Operands are validated against ``field`` first, so a
    stray residue from the wrong field fails loudly instead of wrapping.
    """
    x = field.coerce(x)
    if op in _BINARY:
        if y is None:
            raise ValueError(f"{op} needs two operands")
        return getattr(field, op)(x, field.coerce(y))
    if op in _UNARY:
        return getattr(field, op)(x)
    raise ValueError(f"unknown field operation {op!r}")


class Poly:
    """Dense univariate polynomial over a :class:`Field`.

    Coefficients are stored ascending with no trailing zeros, so equal
    polynomials compare equal structurally and hash consistently.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable = ()):
        cs = [field.coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (field.zero, field.one))

    @classmethod
    def from_ints(cls, field: Field, ints: Sequence[int]) -> "Poly":
        return cls(field, [field.from_int(n) for n in ints])

    # -- structure ----------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Scalar:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def coeff(self, i: int) -> Scalar:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            cs = self.field.format(c)
            if i == 0:
                terms.append(cs)
            else:
                t = "t" if i == 1 else f"t^{i}"
                terms.append(t if c == self.field.one else f"{cs}*{t}")
        return "Poly(" + " + ".join(terms) + ")"

    def _check(self, other: "Poly") -> None:
        if not isinstance(other, Poly) or other.field != self.field:
            raise FieldMismatch("polynomials over different fields")

    # -- arithmetic ------------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        add = self.field.add
        return Poly(self.field, [add(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        sub = self.field.sub
        return Poly(self.field, [sub(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __neg__(self) -> "Poly":
        return Poly(self.field, [self.field.neg(c) for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        F = self.field
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(F, map(F.reduce, out))

    def scale(self, s: Scalar) -> "Poly":
        s = self.field.coerce(s)
        return Poly(self.field, [self.field.mul(s, c) for c in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        if self.is_monic:
            return self
        return self.scale(self.field.inv(self.leading))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        F = self.field
        lead_inv = F.inv(other.leading)
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(F), self
        quo = [F.zero] * (dq + 1)
        for i in range(dq, -1, -1):
            # no later step writes rem[i + degree], so it is reduced here once
            top = F.reduce(rem[i + other.degree])
            if top == 0:
                continue
            c = F.reduce(top * lead_inv)
            quo[i] = c
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= c * b
        return Poly(F, quo), Poly(F, map(F.reduce, rem))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, x: Scalar) -> Scalar:
        """Evaluate at a scalar by Horner's rule."""
        x = self.field.coerce(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return self.field.reduce(acc)

    # -- serialization --------------------------------------------------------------

    def to_strings(self) -> list[str]:
        return [self.field.format(c) for c in self.coeffs]


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    d, _, _ = poly_ext_gcd(f, g)
    return d


def poly_ext_gcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns ``(d, u, v)`` with ``u*f + v*g = d`` and d monic."""
    f._check(g)
    if f.is_zero and g.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    F = f.field
    r0, r1 = f, g
    u0, u1 = Poly.one(F), Poly.zero(F)
    v0, v1 = Poly.zero(F), Poly.one(F)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if not r0.is_monic:
        s = F.inv(r0.leading)
        r0, u0, v0 = r0.scale(s), u0.scale(s), v0.scale(s)
    return r0, u0, v0


def poly_split_at_zero(f: Poly) -> tuple[int, Poly]:
    """Write ``f = t^k * h`` with ``h(0) != 0``; returns ``(k, h)``."""
    if f.is_zero:
        raise ZeroPolynomial("cannot split the zero polynomial")
    k = 0
    while f.coeffs[k] == 0:
        k += 1
    return k, Poly(f.field, f.coeffs[k:])
