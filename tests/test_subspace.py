import functools
import itertools
import random
import types
from fractions import Fraction

import pytest

from mathieu_kit._linalg import matvec, nullspace, reduce_vector, rref
from mathieu_kit.algebra import (
    AlgebraHom,
    direct_sum,
    field_algebra,
    matrix_algebra,
    opposite,
    poly_quotient_algebra,
)
from mathieu_kit.errors import (
    AlgebraMismatch,
    FieldMismatch,
    InfiniteField,
    NotAnIdeal,
    TooLarge,
)
from mathieu_kit import subspace
from mathieu_kit.experiments import _small_f23_entries, catalog
from mathieu_kit.fields import GF, QQ, Poly
from mathieu_kit.matrixlab import trace_orthogonal
from mathieu_kit.subspace import (
    ALL_VARIANTS,
    Sidedness,
    Subspace,
    all_subspaces,
    enumerate_subspaces,
    gaussian_binomial,
    image,
    intersect,
    is_theta_ideal,
    max_theta_ideal,
    max_theta_ideals,
    preimage,
    quotient_algebra,
    span,
    theta_ideal,
    translates,
)

F2, F3, F5 = GF(2), GF(3), GF(5)


def f9():
    return poly_quotient_algebra(Poly.from_ints(F3, [1, 0, 1]))  # t*t = 2


def q_cubic():
    # t^3 - t/4 = t(t - 1/2)(t + 1/2) over Q
    return poly_quotient_algebra(Poly(QQ, [0, Fraction(-1, 4), 0, 1]))


def assert_same_subspace(got, want, *context):
    assert got.basis == want.basis, context
    assert got.pivots == want.pivots, context
    assert got.constraints() == want.constraints(), context


def trace_zero_plane(alg):
    n = alg.matrix_size
    f = alg.field
    rows = []
    for i in range(n):
        for j in range(n):
            if i != j:
                rows.append(alg._basis_coords(i * n + j))
    for i in range(1, n):
        vec = [f.zero] * alg.dim
        vec[0] = f.one
        vec[i * n + i] = f.neg(f.one)
        rows.append(vec)
    return span(alg, rows)


def test_span_dedup_and_rank():
    a = matrix_algebra(2, F5)
    v = span(a, [a.basis_element(0), a.basis_element(0)])
    assert v.dim == 1


def test_rref_canonicity_under_shuffle_and_scale():
    rng = random.Random(5)
    a = matrix_algebra(2, F5)
    vectors = [[1, 2, 0, 3], [0, 1, 4, 4], [2, 0, 1, 0]]
    reference = span(a, vectors)
    for _ in range(20):
        shuffled = [list(v) for v in vectors]
        rng.shuffle(shuffled)
        scaled = []
        for row in shuffled:
            s = rng.randrange(1, 5)
            scaled.append([(c * s) % 5 for c in row])
        again = span(a, scaled)
        assert again.basis == reference.basis
        assert again == reference


def test_membership_and_zero_subspace():
    a = matrix_algebra(2, F5)
    z = Subspace.zero(a)
    assert z.member(a.zero())
    assert not z.member(a.one())
    assert z.dim == 0 and z.codim == 4
    # a vector of the wrong length is refused, not truncated or padded
    line = span(a, [[1, 0, 0, 0]])
    assert line.member([1, 0, 0, 0])
    for short_or_long in ([1, 0], [1, 0, 0, 0, 3]):
        with pytest.raises(ValueError, match="expected 4 coordinates"):
            line.member(short_or_long)


def test_membership_refuses_malformed_coordinates():
    # a residue out of range, a float or a bool is refused, never reduced
    a = matrix_algebra(2, GF(3))
    v = span(a, [[1, 0, 0, 0]])
    assert v.member((1, 0, 0, 0)) and v.member(a.element((1, 0, 0, 0)))
    for bad in ((4, 0, 0, 0), (1.0, 0, 0, 0), (True, 0, 0, 0)):
        with pytest.raises(FieldMismatch):
            v.member(bad)


def test_intersection_of_trace_plane_and_diagonal():
    a = matrix_algebra(2, F5)
    h = trace_zero_plane(a)
    assert h.dim == 3
    diag = span(a, [a._basis_coords(0), a._basis_coords(3)])
    got = intersect(h, diag)
    assert got == span(a, [[1, 0, 0, 4]])  # E_11 - E_22


def test_sum_and_intersect_dimension_formula():
    rng = random.Random(9)
    a = matrix_algebra(2, F3)
    for _ in range(30):
        v = span(a, [[rng.randrange(3) for _ in range(4)] for _ in range(rng.randrange(4))])
        w = span(a, [[rng.randrange(3) for _ in range(4)] for _ in range(rng.randrange(4))])
        assert (v + w).dim + intersect(v, w).dim == v.dim + w.dim
        assert (v + w).contains(v) and (v + w).contains(w)
        assert v.contains(intersect(v, w))


def test_constraints_characterize_membership():
    # member is the constraint test N x = 0; compare it with the
    # enumerated vectors of V over F_3 and with the elimination residual
    # over the rationals
    a = matrix_algebra(2, F3)
    v = span(a, [[1, 1, 0, 0], [0, 0, 1, 2]])
    inside = set(v.coord_vectors())
    assert len(inside) == 9
    for coords in itertools.product(range(3), repeat=4):
        assert v.member(coords) == (coords in inside)

    rng = random.Random(17)
    q = matrix_algebra(2, QQ)

    def rational():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    outside_seen = 0
    for _ in range(20):
        w = span(q, [[rational() for _ in range(4)] for _ in range(rng.randrange(4))])
        combo = [Fraction(0)] * 4
        for row in w.basis:
            s = rational()
            combo = [x + s * y for x, y in zip(combo, row)]
        assert w.member(tuple(combo))
        for _ in range(5):
            vec = tuple(rational() for _ in range(4))
            residual = reduce_vector(QQ, w.basis, w.pivots, vec)
            expected = all(c == 0 for c in residual)
            assert w.member(vec) == expected
            outside_seen += not expected
    assert outside_seen > 0


def test_stored_constraints_equal_recomputed():
    # subspaces solved for as kernels store the RREF of their system as
    # constraint rows; a wrong stored row would corrupt every membership test
    for name in ["M2(F3)", "opp(M2(F2))", "F2[t]/t3", "F3+F3", "M3(F2)"]:
        a = catalog()[name].algebra
        rng = random.Random(name)
        f, d = a.field, a.dim
        for _ in range(6):
            v, w = (
                span(a, [[rng.randrange(f.order) for _ in range(d)] for _ in range(rng.randrange(d))])
                for _ in range(2)
            )
            ideal = max_theta_ideal(v, Sidedness.TWO_SIDED)
            quotient, proj = quotient_algebra(a, Subspace.zero(a) if ideal.is_full else ideal)
            line = span(quotient, [[rng.randrange(f.order) for _ in range(quotient.dim)]])
            solved = [Subspace.full(a), intersect(v, w), preimage(proj, line)]
            solved += [max_theta_ideal(v, variant) for variant in ALL_VARIANTS]
            if a.matrix_size is not None:
                solved.append(trace_orthogonal(a.element(w.basis[0] if w.basis else a.unit)))
            for s in solved:
                stored = s.constraints()
                assert stored == nullspace(f, s.basis, d)[1]
                assert all(s.member(row) for row in s.basis)


# -- sided ideals -----------------------------------------------------------------


def test_theta_ideal_spec_points():
    a = matrix_algebra(2, F2)
    e11 = a.basis_element(0)
    left = theta_ideal(e11, Sidedness.LEFT)
    assert left == span(a, [[1, 0, 0, 0], [0, 0, 1, 0]])  # first column span
    assert left.dim == 2
    for variant in ALL_VARIANTS:
        assert theta_ideal(a.zero(), variant).is_zero
        assert theta_ideal(a.one(), variant).is_full


def test_theta_ideal_contains_generator_and_absorbs():
    rng = random.Random(2)
    a = matrix_algebra(2, F3)
    for _ in range(20):
        x = a.element([rng.randrange(3) for _ in range(4)])
        for variant in ALL_VARIANTS:
            ideal = theta_ideal(x, variant)
            assert ideal.member(x)
            if variant in (Sidedness.LEFT, Sidedness.TWO_SIDED):
                for i in range(a.dim):
                    for row in ideal.basis:
                        assert ideal.member(
                            a._mul_coords(a._basis_coords(i), row)
                        )
            if variant in (Sidedness.RIGHT, Sidedness.TWO_SIDED):
                for i in range(a.dim):
                    for row in ideal.basis:
                        assert ideal.member(
                            a._mul_coords(row, a._basis_coords(i))
                        )


def test_theta_ideal_equals_the_span_of_every_translate():
    rng = random.Random(33)
    mq = matrix_algebra(2, QQ)
    cases = [
        (a, list(a.elements()))
        for a in (
            matrix_algebra(2, F2),
            opposite(matrix_algebra(2, F2)),
            direct_sum(field_algebra(F2), field_algebra(F2)),
            poly_quotient_algebra(Poly.from_ints(F2, [0, 0, 0, 1])),
            f9(),
        )
    ]
    cases.append((mq, [mq.element([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                   if rng.random() < 0.6 else 0 for _ in range(4)])
                       for _ in range(40)]))
    for a, elements in cases:
        for x in elements:
            for variant in ALL_VARIANTS:
                gens = [x.coords] + [prod for _, _, prod in translates(a, x.coords, variant)]
                assert_same_subspace(
                    theta_ideal(x, variant), Subspace.span(a, gens), a.label, x.coords, variant
                )


def test_theta_ideal_stops_forming_translates_at_full_rank(monkeypatch):
    seen = []

    def spy(a, x, variant):
        for item in translates(a, x, variant):
            seen.append(item)
            yield item

    monkeypatch.setattr(subspace, "translates", spy)
    m3 = matrix_algebra(3, F2)
    assert theta_ideal(m3.one(), Sidedness.TWO_SIDED).is_full
    assert 0 < len(seen) < m3.dim**2
    # a proper ideal is only known once every translate is in
    seen.clear()
    a = direct_sum(matrix_algebra(2, F2), matrix_algebra(1, F2))
    ideal = theta_ideal(a.element([1, 0, 0, 0, 0]), Sidedness.TWO_SIDED)
    assert ideal.dim == 4 and len(seen) == a.dim**2


def dense_max_theta_ideal(v, variant):
    """The maximum ideal pulled back through the dense table, one dot product per entry."""
    a = v.ambient
    if variant is Sidedness.TWO_SIDED:
        return dense_max_theta_ideal(dense_max_theta_ideal(v, Sidedness.RIGHT), Sidedness.LEFT)
    if variant is Sidedness.PRE_TWO_SIDED:
        return dense_max_theta_ideal(v, Sidedness.LEFT) + dense_max_theta_ideal(v, Sidedness.RIGHT)
    if not v.constraints():
        return Subspace.full(a)
    maps = a.table if variant is Sidedness.LEFT else zip(*a.table)
    rows = [matvec(a.field, images, n) for images in maps for n in v.constraints()]
    return subspace._solution_space(a, rows)


def test_max_theta_ideal_and_preimage_match_the_dense_pullback():
    rng = random.Random(7)
    dsum = direct_sum(matrix_algebra(2, F2), matrix_algebra(1, F2))
    cases = [(a, all_subspaces(a)) for a in (f9(), opposite(matrix_algebra(2, F2)), dsum)]
    qa = q_cubic()
    cases.append((qa, [span(qa, [[Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                                  for _ in range(3)] for _ in range(rng.randrange(4))])
                       for _ in range(30)]
                      + [span(qa, [[0, 1, 0], [0, 0, 1]]), span(qa, [[0, 1, 2]])]))
    for a, spaces in cases:
        for v in spaces:
            for variant in ALL_VARIANTS:
                assert_same_subspace(
                    max_theta_ideal(v, variant), dense_max_theta_ideal(v, variant),
                    a.label, v.basis, variant,
                )
    assert max_theta_ideal(span(qa, [[0, 1, 0], [0, 0, 1]]), Sidedness.TWO_SIDED).dim == 2

    cat = catalog()
    homs = [
        AlgebraHom(cat["F2[t]/t3"].algebra, cat["F2[t]/t2"].algebra, [[1, 0, 0], [0, 1, 0]]),
        AlgebraHom(cat["F2+F2"].algebra, cat["F2"].algebra, [[0, 1]]),
        AlgebraHom(cat["F4"].algebra, cat["F4"].algebra, [[1, 1], [0, 1]]),
        AlgebraHom(cat["F3[t]/t2-t"].algebra, cat["F3"].algebra, [[1, 1]]),
        AlgebraHom(cat["F2"].algebra, cat["F2[t]/t2"].algebra, [[1], [0]]),
    ]
    for hom in homs:
        images = [hom.apply_coords(e) for e in hom.domain._basis]
        for v in all_subspaces(hom.codomain):
            rows = [matvec(hom.domain.field, images, n) for n in v.constraints()]
            assert_same_subspace(
                preimage(hom, v), subspace._solution_space(hom.domain, rows), v.basis
            )


def test_sidedness_lookups_hash_by_identity():
    assert Sidedness.__hash__ is object.__hash__
    by_variant = {v: v.value for v in ALL_VARIANTS}
    lookup = functools.cache(lambda v: v.value.upper())
    for v in ALL_VARIANTS:
        parsed = Sidedness.parse(v.value)
        assert parsed is v and hash(parsed) == hash(v)
        assert by_variant[parsed] == v.value
        assert lookup(parsed) == lookup(v) == v.value.upper()
    assert lookup.cache_info().currsize == len(ALL_VARIANTS)


def test_max_theta_ideal_spec_points():
    a5 = matrix_algebra(2, F5)
    h = trace_zero_plane(a5)
    assert max_theta_ideal(h, Sidedness.TWO_SIDED).is_zero
    assert max_theta_ideal(Subspace.full(a5), Sidedness.TWO_SIDED).is_full
    local = poly_quotient_algebra(Poly.from_ints(F2, [0, 0, 0, 1]))
    t2_ideal = span(local, [[0, 0, 1]])
    assert max_theta_ideal(t2_ideal, Sidedness.TWO_SIDED) == t2_ideal


def test_max_theta_ideal_is_maximal_ideal_inside():
    # exhaustive over small F_2 algebras: contained in V, absorbing, and
    # contains every sided ideal of an element that fits inside V
    # (the opposite algebra swaps left and right, so a swap in translates shows)
    algebras = [
        matrix_algebra(2, F2),
        opposite(matrix_algebra(2, F2)),
        poly_quotient_algebra(Poly.from_ints(F2, [0, 0, 0, 1])),
    ]
    for a in algebras:
        for v in all_subspaces(a):
            for variant in ALL_VARIANTS:
                ideal = max_theta_ideal(v, variant)
                assert v.contains(ideal)
                if variant is not Sidedness.PRE_TWO_SIDED:
                    assert is_theta_ideal(ideal, variant)
                    # absorption by member against the pulled-back system
                    assert is_theta_ideal(v, variant) == (ideal == v)
                for x in a.elements():
                    gen = theta_ideal(x, variant)
                    if v.contains(gen):
                        assert ideal.contains(gen)


def test_max_theta_ideals_solve_each_one_sided_maximum_once(monkeypatch):
    # left and right once each, then the left maximum inside the right one;
    # asking max_theta_ideal for the four variants one by one solves six
    solve = subspace._solution_space
    calls = []

    def counted(a, rows):
        calls.append(rows)
        return solve(a, rows)

    for entry in _small_f23_entries():
        for v in all_subspaces(entry.algebra):
            monkeypatch.setattr(subspace, "_solution_space", counted)
            calls.clear()
            ideals = max_theta_ideals(v)
            assert len(calls) == (3 if v.constraints() else 0), (entry.name, v.basis)
            monkeypatch.undo()
            assert list(ideals) == list(ALL_VARIANTS)
            for variant in ALL_VARIANTS:
                assert ideals[variant] == max_theta_ideal(v, variant), (entry.name, v.basis)


def test_max_theta_ideal_pre_two_sided_is_sum():
    a = matrix_algebra(2, F3)
    for v in [trace_zero_plane(a), span(a, [[1, 0, 0, 0], [0, 1, 0, 0]])]:
        left = max_theta_ideal(v, Sidedness.LEFT)
        right = max_theta_ideal(v, Sidedness.RIGHT)
        assert max_theta_ideal(v, Sidedness.PRE_TWO_SIDED) == left + right


# -- maps ----------------------------------------------------------------------------


def test_preimage_identity():
    a = matrix_algebra(2, F3)
    ident = AlgebraHom(a, a, [[1 if i == j else 0 for j in range(4)] for i in range(4)])
    v = span(a, [[1, 0, 0, 2]])
    assert preimage(ident, v) == v


def test_preimage_quotient_reduction():
    big = poly_quotient_algebra(Poly.from_ints(F2, [0, 0, 0, 1]))  # F_2[t]/(t^3)
    small = poly_quotient_algebra(Poly.from_ints(F2, [0, 0, 1]))  # F_2[t]/(t^2)
    # reduction map: 1 -> 1, t -> t, t^2 -> 0
    phi = AlgebraHom(big, small, [[1, 0, 0], [0, 1, 0]])
    v = span(small, [[0, 1]])
    assert preimage(phi, v) == span(big, [[0, 1, 0], [0, 0, 1]])
    assert image(phi, span(big, [[0, 1, 0], [0, 0, 1]])) == v


def test_quotient_by_zero_is_identity_copy():
    a = matrix_algebra(2, F2)
    q, proj = quotient_algebra(a, Subspace.zero(a))
    assert q.table == a.table and q.unit == a.unit
    assert proj(a.basis_element(1)).coords == a.basis_element(1).coords


def test_quotient_of_truncated_polynomials():
    big = poly_quotient_algebra(Poly.from_ints(F2, [0, 0, 0, 1]))
    small = poly_quotient_algebra(Poly.from_ints(F2, [0, 0, 1]))
    ideal = span(big, [[0, 0, 1]])
    q, proj = quotient_algebra(big, ideal)
    assert q.dim == 2
    assert q.table == small.table and q.unit == small.unit
    t = big.basis_element(1)
    assert proj(t * t).is_zero


def test_quotient_rejects_non_ideal():
    a = matrix_algebra(2, F2)
    with pytest.raises(NotAnIdeal):
        quotient_algebra(a, span(a, [[0, 1, 0, 0]]))  # span{E_12}


# -- enumeration -----------------------------------------------------------------------


def brute_bases(d, r, q):
    """Independent oracle: the RREF bases of all r-dim subspaces, collected
    from the row spans of every r vectors."""
    f = GF(q)
    seen = set()
    vectors = list(itertools.product(range(q), repeat=d))
    for rows in itertools.combinations(vectors, r):
        basis, _ = rref(f, rows)
        if len(basis) == r:
            seen.add(basis)
    return seen


def test_gaussian_binomial_against_brute_force():
    for d, r, q in [(2, 1, 2), (3, 1, 2), (3, 2, 2), (4, 2, 2), (2, 1, 3), (3, 2, 3)]:
        assert gaussian_binomial(d, r, q) == len(brute_bases(d, r, q))


def test_enumerate_subspaces_counts_and_order():
    a2 = poly_quotient_algebra(Poly.from_ints(F2, [1, 1, 1]))  # dim 2 over F_2
    lines = list(enumerate_subspaces(a2, 1))
    assert len(lines) == 3
    assert [l.basis[0] for l in lines] == [(0, 1), (1, 0), (1, 1)]  # flattened lex order
    m3 = matrix_algebra(2, F3)
    assert len(list(enumerate_subspaces(m3, 1))) == 40
    zero_only = list(enumerate_subspaces(m3, 0))
    assert len(zero_only) == 1 and zero_only[0].is_zero


def test_enumerate_subspaces_unique_and_complete():
    a = matrix_algebra(2, F2)
    for r in range(5):
        subs = list(enumerate_subspaces(a, r))
        assert len(subs) == gaussian_binomial(4, r, 2)
        assert len({s.basis for s in subs}) == len(subs)
        flat = [sum(s.basis, ()) for s in subs]
        assert flat == sorted(flat)


@pytest.mark.parametrize(
    "d, r, q", [(3, 0, 2), (3, 1, 2), (4, 2, 2), (3, 3, 2), (3, 2, 3), (2, 1, 5), (2, 2, 5)]
)
def test_enumerate_subspaces_is_the_sorted_rref_list(d, r, q):
    # the merged per-pivot streams against the sorted brute-force list
    f = GF(q)
    lazy = enumerate_subspaces(poly_quotient_algebra(Poly.from_ints(f, [0] * d + [1])), r)
    assert isinstance(lazy, types.GeneratorType)
    subs = list(lazy)
    assert [v.basis for v in subs] == sorted(brute_bases(d, r, q))
    assert all(rref(f, v.basis) == (v.basis, v.pivots) for v in subs)


def test_enumerate_guardrail_and_infinite_field():
    # both refusals come at call time, before anything is built; an
    # enumeration is priced at its count, 130 planes in M_2(F_3)
    a = matrix_algebra(2, F3)
    assert gaussian_binomial(4, 2, 3) == 130
    with pytest.raises(TooLarge, match=r"M_2\(F\(3\)\) needs 130 evaluations, budget is 129"):
        enumerate_subspaces(a, 2, max_scan=129)
    assert len(list(enumerate_subspaces(a, 2, max_scan=130))) == 130
    # every subspace of M_2(F_2): 1 + 15 + 35 + 15 + 1
    b = matrix_algebra(2, F2)
    assert subspace.subspace_count(b) == 67
    with pytest.raises(TooLarge, match="needs 67 evaluations, budget is 66"):
        next(all_subspaces(b, max_scan=66))
    assert len(list(all_subspaces(b, max_scan=67))) == 67
    with pytest.raises(InfiniteField):
        enumerate_subspaces(matrix_algebra(2, QQ), 1)


def test_subspace_element_enumeration():
    a = matrix_algebra(2, F2)
    v = span(a, [[1, 0, 0, 1], [0, 1, 0, 0]])
    elems = list(v.coord_vectors())
    assert len(elems) == 4
    assert len(set(elems)) == 4
    assert all(v.member(x) for x in elems)


def test_cross_algebra_guards():
    a, b = matrix_algebra(2, F2), matrix_algebra(2, F3)
    with pytest.raises(AlgebraMismatch):
        span(a, [b.basis_element(0)])
    with pytest.raises(AlgebraMismatch):
        intersect(Subspace.zero(a), Subspace.zero(b))
