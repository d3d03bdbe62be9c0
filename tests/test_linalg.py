"""The exact RREF engine against sympy as an independent oracle."""

import random
from fractions import Fraction

import sympy

from mathieu_kit._linalg import in_span, nullspace, reduce_vector, rref
from mathieu_kit.fields import GF, QQ

F5 = GF(5)


def random_matrix(rng, rows, cols, entries):
    return [[entries(rng) for _ in range(cols)] for _ in range(rows)]


def test_rref_matches_sympy_over_rationals():
    rng = random.Random(101)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 6)
        mat = random_matrix(rng, rows, cols, lambda r: Fraction(r.randint(-4, 4), r.randint(1, 3)))
        ours, pivots = rref(QQ, mat)
        sym = sympy.Matrix([[sympy.Rational(c) for c in row] for row in mat])
        expected, expected_pivots = sym.rref()
        assert pivots == tuple(expected_pivots)
        got = sympy.Matrix(len(ours), cols, lambda i, j: sympy.Rational(ours[i][j]))
        assert got == expected[: len(ours), :]


def test_rref_matches_sympy_mod_5():
    from sympy.polys.domains import GF as sym_gf
    from sympy.polys.matrices import DomainMatrix

    domain = sym_gf(5)
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 6)
        mat = random_matrix(rng, rows, cols, lambda r: r.randrange(5))
        ours, pivots = rref(F5, mat)
        dm = DomainMatrix([[domain(c) for c in row] for row in mat], (rows, cols), domain)
        expected, expected_pivots = dm.rref()
        assert pivots == tuple(expected_pivots)
        rendered = [[int(c) % 5 for c in row] for row in expected.to_list()]
        assert [list(row) for row in ours] == rendered[: len(ours)]
        assert all(all(c == 0 for c in row) for row in rendered[len(ours) :])


def test_nullspace_is_exact_kernel():
    rng = random.Random(55)
    for field, entry in [(QQ, lambda r: Fraction(r.randint(-3, 3))), (F5, lambda r: r.randrange(5))]:
        for _ in range(20):
            rows = rng.randrange(0, 4)
            cols = rng.randrange(1, 6)
            mat = random_matrix(rng, rows, cols, entry)
            constraints, basis, pivots = nullspace(field, mat, cols)
            reduced, _ = rref(field, mat)
            assert constraints == reduced
            assert (basis, pivots) == rref(field, basis)  # already canonical
            assert len(basis) == cols - len(reduced)  # rank-nullity
            for vec in basis:
                for row in mat:
                    acc = field.zero
                    for a, x in zip(row, vec):
                        acc = field.add(acc, field.mul(a, x))
                    assert acc == 0


def test_reduce_vector_detects_membership():
    # in_span tests N v = 0 against the annihilator rows; reduce_vector's
    # residual is zero on the same vectors
    rng = random.Random(2)
    outside_seen = 0
    for _ in range(30):
        mat = random_matrix(rng, 2, 4, lambda r: r.randrange(5))
        basis, pivots = rref(F5, mat)
        _, constraints, _ = nullspace(F5, basis, 4)
        inside = [0, 0, 0, 0]
        for row in basis:
            s = rng.randrange(5)
            inside = [(a + s * b) % 5 for a, b in zip(inside, row)]
        assert in_span(F5, constraints, inside)
        residual = reduce_vector(F5, basis, pivots, inside)
        assert all(c == 0 for c in residual)
        for _ in range(5):
            vec = [rng.randrange(5) for _ in range(4)]
            residual = reduce_vector(F5, basis, pivots, vec)
            expected = all(c == 0 for c in residual)
            assert in_span(F5, constraints, vec) == expected
            outside_seen += not expected
    assert outside_seen > 0
