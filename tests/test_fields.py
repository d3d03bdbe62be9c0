import random
from fractions import Fraction
from itertools import islice, product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_kit._linalg import in_span, matvec, nullspace
from mathieu_kit.algebra import matrix_algebra
from mathieu_kit.errors import BothZero, DivisionByZero, FieldMismatch, ZeroPolynomial
from mathieu_kit.fields import (
    GF,
    QQ,
    Field,
    Poly,
    field_arith,
    poly_ext_gcd,
    poly_gcd,
    poly_split_at_zero,
)
from mathieu_kit.matrixlab import trace_of_product
from mathieu_kit.subspace import span

F2 = GF(2)
F5 = GF(5)


def test_characteristic_must_be_prime_or_zero():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(1)
    assert Field(0) == QQ
    assert GF(7).order == 7


def test_basic_arith_examples():
    assert field_arith(F5, "mul", 2, 3) == 1  # 6 mod 5
    assert field_arith(QQ, "inv", Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(DivisionByZero):
        field_arith(F5, "inv", 0)
    with pytest.raises(DivisionByZero):
        field_arith(QQ, "inv", Fraction(0))


def test_field_arith_rejects_foreign_scalars():
    with pytest.raises(FieldMismatch):
        field_arith(F5, "add", 7, 1)  # out of range residue
    with pytest.raises(FieldMismatch):
        field_arith(F5, "add", Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        field_arith(F5, "frobnicate", 1, 1)


def test_scalar_serialization_round_trip():
    assert F5.format(3) == "3"
    assert F5.parse("3") == 3
    assert QQ.format(Fraction(-3, 2)) == "-3/2"
    assert QQ.parse("-3/2") == Fraction(-3, 2)
    assert QQ.format(Fraction(4)) == "4/1"
    assert QQ.parse("4") == Fraction(4)


def test_parse_rejects_residues_out_of_range():
    for text in ("7", "5", "-1"):
        with pytest.raises(FieldMismatch):
            F5.parse(text)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_field_axioms_f5(a, b, c):
    assert F5.add(F5.add(a, b), c) == F5.add(a, F5.add(b, c))
    assert F5.mul(F5.mul(a, b), c) == F5.mul(a, F5.mul(b, c))
    assert F5.mul(a, F5.add(b, c)) == F5.add(F5.mul(a, b), F5.mul(a, c))
    assert F5.add(a, F5.neg(a)) == 0
    if a != 0:
        assert F5.mul(a, F5.inv(a)) == 1


@given(
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
)
def test_field_axioms_rationals(a, b, c):
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    assert QQ.sub(a, a) == 0
    if a != 0:
        assert QQ.mul(a, QQ.inv(a)) == 1


# -- polynomials ----------------------------------------------------------------


def t_poly(field, *ints):
    return Poly.from_ints(field, ints)


def test_poly_normalization_and_degree():
    assert t_poly(F5, 1, 2, 0, 0).coeffs == (1, 2)
    assert Poly.zero(F5).degree == -1
    assert Poly.x(F5).degree == 1
    assert t_poly(F5, 0).is_zero


def test_poly_divmod_exact():
    f = t_poly(F5, 1, 0, 1)  # 1 + t^2
    g = t_poly(F5, 1, 1)  # 1 + t
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_ext_gcd_frozen_examples():
    # gcd(t, t-1) = 1 with 1 = 1*t + (-1)*(t-1)
    t = Poly.x(QQ)
    one = Poly.one(QQ)
    tm1 = t - one
    d, u, v = poly_ext_gcd(t, tm1)
    assert (d, u, v) == (one, one, -one)
    assert u * t + v * tm1 == one

    # gcd(t^2, t-1) = 1 with 1 = t^2 - (t+1)(t-1)
    t2 = t * t
    d, u, v = poly_ext_gcd(t2, tm1)
    assert d == one
    assert u == one
    assert v == -(t + one)
    assert u * t2 + v * tm1 == one

    # gcd(t^2 - t, t) = t
    d, u, v = poly_ext_gcd(t2 - t, t)
    assert d == t
    assert (u, v) == (Poly.zero(QQ), one)
    assert u * (t2 - t) + v * t == t


def test_ext_gcd_both_zero():
    with pytest.raises(BothZero):
        poly_ext_gcd(Poly.zero(F5), Poly.zero(F5))


def test_split_at_zero_examples():
    t = Poly.x(QQ)
    one = Poly.one(QQ)
    assert poly_split_at_zero(t * t - t) == (1, t - one)
    assert poly_split_at_zero(t * t * t) == (3, one)
    assert poly_split_at_zero(t * t * t - t * t) == (2, t - one)
    with pytest.raises(ZeroPolynomial):
        poly_split_at_zero(Poly.zero(QQ))


@st.composite
def f5_polys(draw, max_degree=6):
    coeffs = draw(st.lists(st.integers(0, 4), max_size=max_degree + 1))
    return Poly(F5, coeffs)


@given(f5_polys(), f5_polys())
@settings(max_examples=200)
def test_bezout_identity_random(f, g):
    if f.is_zero and g.is_zero:
        return
    d, u, v = poly_ext_gcd(f, g)
    assert u * f + v * g == d
    assert d.is_monic
    if not f.is_zero:
        assert (f % d).is_zero
    if not g.is_zero:
        assert (g % d).is_zero
    assert poly_gcd(f, g) == d


@given(f5_polys())
def test_split_round_trip_random(f):
    if f.is_zero:
        return
    k, h = poly_split_at_zero(f)
    assert h(0) != 0
    assert h.shift(k) == f


def test_poly_eval_horner():
    f = t_poly(F5, 1, 2, 3)  # 1 + 2t + 3t^2
    assert f(2) == (1 + 4 + 12) % 5
    g = Poly(QQ, [Fraction(1, 2), Fraction(1)])
    assert g(Fraction(3)) == Fraction(7, 2)


P31 = 2**31 - 1  # products of two residues pass 2^62


def _scalars(field, rng, count):
    if field.is_finite:
        p = field.characteristic
        return [rng.choice([0, 1, p - 1, p - 2, rng.randrange(p)]) for _ in range(count)]
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(count)]


def _assert_reduced(field, values):
    # a stray unreduced int or NotImplemented would hide behind Fraction(0) == 0
    for x in values:
        if field.is_finite:
            assert type(x) is int and 0 <= x < field.characteristic, x
        else:
            assert type(x) is Fraction, x


@pytest.mark.parametrize("field", [GF(P31), QQ], ids=repr)
def test_sums_of_products_are_exact_and_reduced(field):
    """Every pure-Python sum of products against plain nested loops."""
    p = field.characteristic
    norm = (lambda w: w % p) if p else (lambda w: w)
    rng = random.Random(P31)
    alg = matrix_algebra(3, field)
    for _ in range(25):
        x, y = _scalars(field, rng, 9), _scalars(field, rng, 9)
        prod = alg._mul_coords(tuple(x), tuple(y))
        assert prod == tuple(
            norm(sum(x[3 * i + k] * y[3 * k + j] for k in range(3)))
            for i in range(3) for j in range(3)
        )
        trace = trace_of_product(alg.element(x), alg.element(y))
        assert trace == norm(sum(x[3 * i + j] * y[3 * j + i] for i in range(3) for j in range(3)))
        rows = [_scalars(field, rng, 9) for _ in range(3)]
        image = matvec(field, rows, x)
        assert image == tuple(norm(sum(map(mul, row, x))) for row in rows)
        zero = alg._mul_coords(tuple(x), alg.zero().coords)  # no term reaches any coordinate
        assert zero == (0,) * 9
        sparse = alg._mul_coords(alg._basis_coords(1), tuple(y))  # E_12 y reaches row 0 only
        assert sparse == tuple(y[3:6]) + (0,) * 6
        _assert_reduced(field, prod + zero + sparse + (trace,) + image)

        constraints, basis, _ = nullspace(field, rows, 9)
        coeffs = _scalars(field, rng, len(basis))
        member = [norm(sum(c * b[k] for c, b in zip(coeffs, basis))) for k in range(9)]
        assert in_span(field, constraints, member)
        off = [norm(m + 1) for m in member]
        assert in_span(field, constraints, off) == all(
            norm(sum(map(mul, row, off))) == 0 for row in constraints
        )

        f, g = Poly(field, x[:5]), Poly(field, y[:4])
        want = [0] * 8
        for i, a in enumerate(x[:5]):
            for j, b in enumerate(y[:4]):
                want[i + j] += a * b
        assert f * g == Poly(field, [norm(w) for w in want])
        _assert_reduced(field, (f * g).coeffs)
        if not g.is_zero:
            quo, rem = divmod(f, g)
            assert quo * g + rem == f and rem.degree < g.degree
            _assert_reduced(field, quo.coeffs + rem.coeffs)
        value = f(x[5])
        assert value == norm(sum(c * x[5] ** i for i, c in enumerate(f.coeffs)))
        _assert_reduced(field, [value])


def test_coord_vectors_sum_exactly():
    # itertools.product holds range(p) as a tuple, so the largest prime this
    # can walk is far below 2^31 - 1
    field = GF(65521)
    p = field.characteristic
    rng = random.Random(65521)
    alg = matrix_algebra(3, field)
    v = span(alg, [_scalars(field, rng, 9) for _ in range(2)])
    # every 101st of the coefficient pairs (0, c) and (1, c)
    got = list(islice(v.coord_vectors(), 0, 2 * p, 101))
    want = [
        tuple(sum(c * b[k] for c, b in zip(coeffs, v.basis)) % p for k in range(9))
        for coeffs in islice(product(range(p), repeat=v.dim), 0, 2 * p, 101)
    ]
    assert got == want
    _assert_reduced(field, [c for vec in got for c in vec])
