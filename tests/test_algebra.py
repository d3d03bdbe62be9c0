import itertools
import pathlib
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from mathieu_kit import _scan
from mathieu_kit.algebra import (
    PRODUCT_MEMO_CAP,
    Algebra,
    AlgebraHom,
    build_p_of_a,
    classify_element,
    direct_sum,
    elem_mul,
    elem_power,
    field_algebra,
    idempotent_poly,
    is_quasi_idempotent,
    make_algebra,
    matrix_algebra,
    minimal_polynomial,
    opposite,
    poly_eval_element,
    poly_quotient_algebra,
    power_cycle,
    quasi_ratio,
)
from mathieu_kit.errors import (
    AlgebraMismatch,
    BadUnit,
    InfiniteField,
    InvertibleInput,
    NilpotentInput,
    NotAssociative,
    NotAHomomorphism,
    NotMonic,
)
from mathieu_kit.experiments import catalog, run_suite
from mathieu_kit.fields import GF, QQ, Poly
from mathieu_kit.mathieu import _idempotents_of, radical_enumerate
from mathieu_kit.subspace import Subspace
from test_kernels import _negated_transposed_basis

F2, F3, F5 = GF(2), GF(3), GF(5)


def unit_matrix(n, i, j):
    m = np.zeros((n, n), dtype=int)
    m[i, j] = 1
    return m


def mat_of(elem, n):
    return np.array(elem.coords, dtype=int).reshape(n, n)


def elem_of(algebra, mat):
    p = algebra.field.characteristic
    flat = [int(x) for x in np.asarray(mat).reshape(-1)]
    return algebra.element([x % p if p else Fraction(x) for x in flat])


# -- construction ---------------------------------------------------------------


def test_one_dimensional_algebra_is_the_field():
    a = make_algebra(F2, [[[1]]], [1])
    assert a.dim == 1
    x = a.element([1])
    assert (x * x).coords == (1,)
    assert a.is_commutative


def test_matrix_algebra_agrees_with_numpy_products():
    # independent oracle: actual matrix multiplication of matrix units
    for n, field in [(2, F2), (2, F5), (3, F3)]:
        a = matrix_algebra(n, field)
        p = field.characteristic
        for i, j, k, l in itertools.product(range(n), repeat=4):
            left = a.element(unit_matrix(n, i, j).reshape(-1).tolist())
            right = a.element(unit_matrix(n, k, l).reshape(-1).tolist())
            expected = (unit_matrix(n, i, j) @ unit_matrix(n, k, l)) % p
            assert mat_of(left * right, n).tolist() == expected.tolist()


def test_matrix_algebra_validates_as_associative():
    a = matrix_algebra(2, F2)
    make_algebra(F2, a.table, a.unit)  # full check enabled, must not raise


def test_matrix_algebra_spec_points():
    a1 = matrix_algebra(1, F3)
    assert a1.dim == 1 and a1.unit == (1,)
    a2 = matrix_algebra(2, F2)
    e11, e12 = a2.basis_element(0), a2.basis_element(1)
    assert (e11 * e12) == e12
    assert (e12 * e11).is_zero
    a3 = matrix_algebra(3, QQ)
    assert a3.dim == 9
    # unit selects the diagonal matrix units E_11, E_22, E_33
    assert [i for i, c in enumerate(a3.unit) if c != 0] == [0, 4, 8]


def test_bad_table_raises():
    # e_1*e_1 = e_2 with e_2*e_2 = e_1 is not associative (no unit either)
    table = [
        [[0, 1], [0, 0]],
        [[0, 0], [1, 0]],
    ]
    with pytest.raises((NotAssociative, BadUnit)):
        make_algebra(F2, table, [1, 0])


def test_bad_unit_raises():
    a = matrix_algebra(2, F2)
    with pytest.raises(BadUnit):
        make_algebra(F2, a.table, [1, 0, 0, 0])


def test_poly_quotient_f4():
    g = Poly.from_ints(F2, [1, 1, 1])  # t^2 + t + 1, no roots in F_2
    assert g(0) != 0 and g(1) != 0
    f4 = poly_quotient_algebra(g)
    assert f4.dim == 2 and f4.is_commutative
    t = f4.basis_element(1)
    assert (t * t).coords == (1, 1)  # t^2 = 1 + t
    # every nonzero element invertible: it is a field
    for coords in [(1, 0), (0, 1), (1, 1)]:
        assert classify_element(f4.element(coords)).invertible


def test_poly_quotient_local_and_idempotent_cases():
    local = poly_quotient_algebra(Poly.from_ints(F2, [0, 0, 0, 1]))  # t^3
    t = local.basis_element(1)
    assert classify_element(t).nilpotent
    split = poly_quotient_algebra(Poly.from_ints(F3, [0, 2, 1]))  # t^2 - t
    t = split.basis_element(1)
    assert (t * t) == t
    with pytest.raises(NotMonic):
        poly_quotient_algebra(Poly.from_ints(F3, [1, 2]))


def test_direct_sum_structure():
    a = direct_sum(field_algebra(F2), field_algebra(F2))
    x = a.element([1, 0])
    y = a.element([0, 1])
    assert (x * x) == x and (y * y) == y
    assert (x * y).is_zero and (y * x).is_zero
    assert a.one().coords == (1, 1)
    b = direct_sum(matrix_algebra(1, F2), matrix_algebra(1, F2))
    assert b.table == a.table and b.unit == a.unit


def test_opposite():
    comm = poly_quotient_algebra(Poly.from_ints(F2, [0, 0, 1]))
    assert opposite(comm).table == comm.table
    m2 = matrix_algebra(2, F2)
    op = opposite(m2)
    e11, e12 = op.basis_element(0), op.basis_element(1)
    # opposite product: E_11 o E_12 = E_12 * E_11 = 0
    assert (e11 * e12).is_zero
    assert opposite(op).table == m2.table


def test_matrix_detection():
    assert matrix_algebra(2, F3).matrix_size == 2
    assert opposite(matrix_algebra(2, F3)).matrix_size is None
    assert poly_quotient_algebra(Poly.from_ints(F2, [1, 1, 1])).matrix_size is None
    assert field_algebra(F5).matrix_size == 1
    for f in (F5, QQ):
        for n in (1, 2, 3):
            m = matrix_algebra(n, f)
            # a raw-table copy is detected from its structure constants
            assert make_algebra(f, m.table, m.unit).matrix_size == n
            # -1 != 1 here, so even M_1 on the basis -E^T is not on matrix units
            assert _negated_transposed_basis(m, n).matrix_size is None
    sum4 = direct_sum(field_algebra(F5), poly_quotient_algebra(Poly.from_ints(F5, [0, 0, 0, 1])))
    assert sum4.dim == 4 and sum4.matrix_size is None


# -- element arithmetic -------------------------------------------------------------


def test_elem_mul_and_power_spec_points():
    a = matrix_algebra(2, F2)
    e11 = a.basis_element(0)
    e12 = a.basis_element(1)
    e21 = a.basis_element(2)
    assert elem_mul(e12, e21) == e11
    assert elem_power(e12, 2).is_zero
    assert elem_power(e12, 0) == a.one()


def test_elem_power_matches_repeated_multiplication():
    rng = random.Random(7)
    a = matrix_algebra(2, F5)
    for _ in range(25):
        x = a.element([rng.randrange(5) for _ in range(4)])
        acc = a.one()
        for m in range(7):
            assert elem_power(x, m) == acc
            acc = acc * x


def test_algebra_mismatch():
    x = matrix_algebra(2, F2).basis_element(0)
    y = matrix_algebra(2, F3).basis_element(0)
    with pytest.raises(AlgebraMismatch):
        x * y


# -- minimal polynomials ----------------------------------------------------------------


def char_poly_left_regular(a):
    """Independent oracle: determinant of (t*I - L_a) by permutation expansion."""
    alg = a.algebra
    f = alg.field
    d = alg.dim
    # L_a[k][j]: coordinate k of a * e_j
    cols = [alg._mul_coords(a.coords, alg._basis_coords(j)) for j in range(d)]
    entries = [
        [
            Poly(f, [f.neg(cols[j][k]), f.one] if j == k else [f.neg(cols[j][k])])
            for j in range(d)
        ]
        for k in range(d)
    ]
    total = Poly.zero(f)
    for perm in itertools.permutations(range(d)):
        sign = 1
        seen = [False] * d
        for start in range(d):  # permutation parity by cycle counting
            if seen[start]:
                continue
            length = 0
            cur = start
            while not seen[cur]:
                seen[cur] = True
                cur = perm[cur]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = Poly.one(f)
        for i in range(d):
            term = term * entries[i][perm[i]]
        total = total + (term if sign > 0 else -term)
    return total


def test_minpoly_spec_points():
    a = matrix_algebra(2, F5)
    t = Poly.x(F5)
    one = Poly.one(F5)
    mp = minimal_polynomial(a.basis_element(0))  # E_11
    assert mp.minpoly == t * t - t and mp.k == 1 and mp.h == t - one
    mp = minimal_polynomial(a.basis_element(1))  # E_12
    assert mp.minpoly == t * t and mp.k == 2 and mp.h == one
    mp = minimal_polynomial(a.one())
    assert mp.minpoly == t - one and mp.k == 0


def test_minpoly_annihilates_and_divides_charpoly():
    rng = random.Random(11)
    cases = [matrix_algebra(2, F3), poly_quotient_algebra(Poly.from_ints(F2, [0, 0, 0, 1]))]
    for alg in cases:
        for _ in range(12):
            x = alg.element([rng.randrange(alg.field.order) for _ in range(alg.dim)])
            mp = minimal_polynomial(x)
            assert poly_eval_element(mp.minpoly, x).is_zero
            cp = char_poly_left_regular(x)
            assert (cp % mp.minpoly).is_zero


def test_minpoly_over_rationals():
    a = matrix_algebra(2, QQ)
    x = a.element([Fraction(1), Fraction(1), Fraction(0), Fraction(1)])  # [[1,1],[0,1]]
    mp = minimal_polynomial(x)
    t = Poly.x(QQ)
    one = Poly.one(QQ)
    assert mp.minpoly == (t - one) * (t - one)


# -- classification -------------------------------------------------------------------------


def test_classify_spec_points():
    a = matrix_algebra(2, F5)
    two_e11 = a.element([2, 0, 0, 0])
    cls = classify_element(two_e11)
    assert cls.quasi_idempotent and not cls.idempotent
    assert quasi_ratio(two_e11) == 2
    cls = classify_element(a.basis_element(1))  # E_12
    assert cls.nilpotent and not cls.quasi_idempotent
    cls = classify_element(a.one())
    assert cls.invertible and cls.idempotent
    assert is_quasi_idempotent(a.zero())
    assert quasi_ratio(a.zero()) is None


def test_local_algebras_have_only_nilpotent_or_invertible():
    for alg in [
        poly_quotient_algebra(Poly.from_ints(F2, [1, 1, 1])),
        poly_quotient_algebra(Poly.from_ints(F2, [0, 0, 0, 1])),
    ]:
        for x in alg.elements():
            cls = classify_element(x)
            assert cls.nilpotent or cls.invertible


# -- the constructed idempotent p(a) ----------------------------------------------------------


def test_p_of_a_e11_case():
    a = matrix_algebra(2, QQ)
    e11 = a.basis_element(0)
    mp = minimal_polynomial(e11)
    p = idempotent_poly(mp)
    assert p == Poly.x(QQ)  # p(t) = t
    assert build_p_of_a(e11) == e11


def test_p_of_a_jordan_block_case():
    a = matrix_algebra(3, QQ)
    # diag(J, 1) with J the 2x2 nilpotent Jordan block
    x = elem_of(a, np.array([[0, 1, 0], [0, 0, 0], [0, 0, 1]]))
    mp = minimal_polynomial(x)
    t = Poly.x(QQ)
    one = Poly.one(QQ)
    assert mp.minpoly == t * t * (t - one) and mp.k == 2
    p = idempotent_poly(mp)
    assert p == t * t  # Bezout: 1 = t^2 - (t-1)(t+1)
    assert build_p_of_a(x) == x * x


def test_p_of_a_guards():
    a = matrix_algebra(2, QQ)
    with pytest.raises(NilpotentInput):
        build_p_of_a(a.basis_element(1))  # E_12 nilpotent
    with pytest.raises(InvertibleInput):
        build_p_of_a(a.one())


def test_p_of_a_properties_exhaustive_m2_f3():
    a = matrix_algebra(2, F3)
    checked = 0
    for x in a.elements():
        cls = classify_element(x)
        if cls.nilpotent or cls.invertible:
            continue
        checked += 1
        mp = minimal_polynomial(x)
        p = idempotent_poly(mp)
        f, t_k = mp.minpoly, Poly(F3, (0,) * mp.k + (1,))
        # congruences satisfied by the idempotent polynomial
        assert all(c == 0 for c in (p % t_k).coeffs)
        assert ((p * p - p) % f).is_zero
        assert ((t_k - t_k * p) % f).is_zero
        assert not (p % f).is_zero and not ((p - Poly.one(F3)) % f).is_zero
        e = poly_eval_element(p, x)
        assert e * e == e
        assert not e.is_zero and e != a.one()
        assert elem_power(x, mp.k) * e == elem_power(x, mp.k)
    assert checked > 0


# -- power cycles ---------------------------------------------------------------------------------


def test_power_cycle_spec_points():
    a = matrix_algebra(2, F2)
    info = power_cycle(a.basis_element(0))  # idempotent
    assert (info.preperiod, info.period) == (1, 1)
    info = power_cycle(a.basis_element(1))  # nilpotent of index 2
    assert (info.preperiod, info.period) == (2, 1)
    f4 = poly_quotient_algebra(Poly.from_ints(F2, [1, 1, 1]))
    info = power_cycle(f4.basis_element(1))  # t^3 = 1
    assert (info.preperiod, info.period) == (1, 3)


def test_power_cycle_minimality_by_rescan():
    rng = random.Random(3)
    a = matrix_algebra(2, F3)
    for _ in range(30):
        x = a.element([rng.randrange(3) for _ in range(4)])
        info = power_cycle(x)
        assert elem_power(x, info.preperiod + info.period) == elem_power(x, info.preperiod)
        # minimality: no smaller preperiod, then no smaller period
        for mu in range(1, info.preperiod):
            assert elem_power(x, mu + info.period) != elem_power(x, mu)
        for lam in range(1, info.period):
            assert elem_power(x, info.preperiod + lam) != elem_power(x, info.preperiod)


def test_power_cycle_needs_finite_field():
    with pytest.raises(InfiniteField):
        power_cycle(matrix_algebra(2, QQ).one())


# -- homomorphisms ----------------------------------------------------------------------------------


def test_hom_validation():
    f4 = poly_quotient_algebra(Poly.from_ints(F2, [1, 1, 1]))
    # Frobenius x -> x^2 is an F_2-algebra endomorphism: 1 -> 1, t -> t^2 = 1 + t
    frob = AlgebraHom(f4, f4, [[1, 1], [0, 1]])
    t = f4.basis_element(1)
    assert frob(t) == t * t
    with pytest.raises(NotAHomomorphism):
        AlgebraHom(f4, f4, [[1, 1], [0, 0]])  # not multiplicative
    with pytest.raises(NotAHomomorphism):
        AlgebraHom(f4, f4, [[0, 1], [1, 0]])  # unit not preserved


# -- the product memo ---------------------------------------------------------------------------------


def _matrix_product(field, n, x, y):
    return tuple(
        field.reduce(sum(x[n * i + k] * y[n * k + j] for k in range(n)))
        for i in range(n) for j in range(n)
    )


@pytest.mark.parametrize("field", [F5, QQ], ids=repr)
def test_products_read_from_the_memo_equal_fresh_ones(field):
    rng = random.Random(7)

    def scalar():  # zeros often, so that some output coordinates get no term
        if rng.random() < 0.4:
            return field.zero
        return rng.randrange(5) if field.is_finite else Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))

    warm = matrix_algebra(3, field)
    pairs = [tuple(tuple(scalar() for _ in range(9)) for _ in range(2)) for _ in range(40)]
    first = [warm._mul_coords(x, y) for x, y in pairs]
    assert len(warm._products) == len(set(pairs))
    for (x, y), prod in zip(pairs, first):
        assert warm._mul_coords(x, y) is prod  # read back, not recomputed
        fresh = matrix_algebra(3, field)
        assert prod == fresh._mul_coords(x, y) == _matrix_product(field, 3, x, y)
        assert all(type(c) is (int if field.is_finite else Fraction) for c in prod), prod
        assert (warm.element(x) * warm.element(y)).coords is prod


def test_product_memo_stops_at_its_cap():
    f13 = GF(13)
    a = matrix_algebra(2, f13)
    y = (1, 2, 3, 4)
    xs = [x.coords for x in itertools.islice(a.elements(), PRODUCT_MEMO_CAP + 50)]
    for x in xs:
        a._mul_coords(x, y)
    assert len(a._products) == PRODUCT_MEMO_CAP
    assert (xs[-1], y) not in a._products
    # past the cap, products are computed and not kept
    for x in xs[-50:] + xs[:50]:
        assert a._mul_coords(x, y) == _matrix_product(f13, 2, x, y)
    assert len(a._products) == PRODUCT_MEMO_CAP


def test_idempotent_criterion_computes_each_product_once(monkeypatch):
    for entry in catalog().values():
        entry.algebra._products.clear()
    computed, algebras = Counter(), {}
    mul = Algebra._mul_coords

    def counting(self, x, y):
        if (x, y) not in self._products:
            algebras[id(self)] = self  # kept alive, so the id stays its own
            computed[id(self), x, y] += 1
        return mul(self, x, y)

    monkeypatch.setattr(Algebra, "_mul_coords", counting)
    assert run_suite("idempotent_criterion").passed
    assert computed and set(computed.values()) == {1}


# -- what an algebra keeps: Algebra.derived ------------------------------------------------------


def _unprimed_m2_f3():
    """M_2(F_3) with nothing derived yet, not even its matrix size."""
    m = matrix_algebra(2, F3)
    return Algebra(F3, m.table, m.unit, label="M_2(F_3)", check=False)


#: Each kept structure, read through the module that owns it.
DERIVED_READS = {
    "sparse": lambda a: a._sparse_table(),
    "commutative": lambda a: a.is_commutative,
    "matrix_size": lambda a: a.matrix_size,
    "product_bound": lambda a: _scan.product_dtype(a),
    "power_table": lambda a: list(_scan.power_chunks(a, 10**7)),
    "idempotents": lambda a: _idempotents_of(Subspace.full(a), 10**7),
    "elements": lambda a: radical_enumerate(Subspace.zero(a)),
}


def _spy_builds(monkeypatch, alg, key, fail_first=False):
    """Count the builds of ``key`` on ``alg`` through ``Algebra.derived``;
    with ``fail_first`` the first one raises before it builds anything."""
    builds = []
    derived = Algebra.derived

    def spying(self, k, build=None):
        if self is alg and k == key and build is not None:
            inner = build

            def build():
                builds.append(k)
                if fail_first and len(builds) == 1:
                    raise RuntimeError("this build fails")
                return inner()

        return derived(self, k, build)

    monkeypatch.setattr(Algebra, "derived", spying)
    return builds


@pytest.mark.parametrize("key", list(DERIVED_READS))
def test_each_derived_structure_is_built_once_and_only_on_success(monkeypatch, key):
    read = DERIVED_READS[key]
    alg = _unprimed_m2_f3()
    # a read with no builder never builds
    assert alg.derived(key) is None and alg.derived(key) is None
    builds = _spy_builds(monkeypatch, alg, key, fail_first=True)
    with pytest.raises(RuntimeError, match="this build fails"):
        read(alg)
    assert builds == [key] and alg.derived(key) is None  # a failed build keeps nothing
    first = read(alg)
    kept = alg.derived(key)
    assert builds == [key, key] and kept is not None
    # the second read builds nothing and reads what the first kept
    assert read(alg) == first
    assert builds == [key, key] and alg.derived(key) is kept
    assert alg.derived(key, lambda: pytest.fail("kept, so not built")) is kept


def test_matrix_algebra_primes_its_matrix_size(monkeypatch):
    monkeypatch.setattr(Algebra, "_detect_matrix", lambda self: pytest.fail("primed"))
    assert matrix_algebra(3, F2).matrix_size == 3
    assert matrix_algebra(3, F2).derived("matrix_size") == 3


def test_radical_queries_build_the_power_table_only_in_the_first(monkeypatch):
    alg = matrix_algebra(2, F3)
    built = []
    build = _scan.build_power_chunk

    def counting(a, start, stop):
        built.append((start, stop))
        return build(a, start, stop)

    monkeypatch.setattr(_scan, "build_power_chunk", counting)
    first = radical_enumerate(Subspace.zero(alg))
    assert built == [(0, 81)]
    assert radical_enumerate(Subspace.full(alg)) and radical_enumerate(Subspace.zero(alg)) == first
    assert built == [(0, 81)]


def test_only_algebra_names_what_an_algebra_keeps():
    # every derived structure is kept through Algebra.derived: no module but
    # algebra.py names its dict, and the slots it replaced are gone
    package = pathlib.Path(__file__).resolve().parent.parent / "src" / "mathieu_kit"
    deleted = ("_sparse", "_commutative", "_matrix_size", "_product_bound",
               "_power_data", "_idempotents", "_element_memo")
    named = re.compile(r"(?<!\w)(%s)(?!\w)" % "|".join(("_derived",) + deleted))
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 10
    for path in sources:
        found = set(named.findall(path.read_text()))
        if path.name == "algebra.py":
            found.discard("_derived")
        assert not found, f"{path.name} names {sorted(found)}"
    assert not set(deleted) & set(Algebra.__slots__)
