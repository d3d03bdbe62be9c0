import random

import pytest

from mathieu_kit import _linalg, _scan, mathieu
from mathieu_kit.algebra import (
    Algebra,
    classify_element,
    direct_sum,
    field_algebra,
    matrix_algebra,
    opposite,
    poly_quotient_algebra,
)
from mathieu_kit.errors import (
    FieldMismatch,
    InfiniteField,
    InfiniteFieldNoDecision,
    NotCommutative,
    NotInRadical,
    OnlyTrivial,
    TooLarge,
    ZeroElement,
)
from mathieu_kit.experiments import _small_f23_entries
from mathieu_kit.fields import GF, QQ, Poly
from mathieu_kit.mathieu import (
    MathieuVerdict,
    Witness,
    certify_radical_membership,
    decide_all_variants,
    decide_mathieu,
    find_nontrivial_mathieu,
    is_mathieu_commutative,
    is_quasi_stable,
    is_stable,
    line_is_mathieu,
    oracle_all_variants,
    oracle_mathieu,
    radical_enumerate,
    radical_member,
    verify_witness,
    _cycle_radical_member,
)
from mathieu_kit.serialize import parse_algebra_spec
from mathieu_kit.subspace import (
    ALL_VARIANTS,
    Sidedness,
    Subspace,
    all_subspaces,
    max_theta_ideal,
    span,
    theta_ideal,
    translates,
)

F2, F3, F5 = GF(2), GF(3), GF(5)


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


def f4():
    return poly_quotient_algebra(Poly.from_ints(F2, [1, 1, 1]))


def truncated(p, k):
    return poly_quotient_algebra(Poly.from_ints(GF(p), [0] * k + [1]))


# -- radical membership -------------------------------------------------------------


def test_radical_member_spec_points():
    a = matrix_algebra(2, F5)
    h = trace_zero_plane(a)
    assert radical_member(h, a.basis_element(1))  # E_12 nilpotent
    assert not radical_member(h, a.basis_element(0))  # E_11, powers constant
    assert not radical_member(Subspace.zero(a), a.one())


def test_radical_member_works_over_rationals():
    a = matrix_algebra(2, QQ)
    h = span(a, [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, -1]])
    assert radical_member(h, a.basis_element(1))
    assert not radical_member(h, a.one())


def test_radical_window_equals_cycle_definition_randomized():
    rng = random.Random(123)
    algebras = [matrix_algebra(2, F3), truncated(2, 3), f4(), direct_sum(field_algebra(F3), field_algebra(F3))]
    for alg in algebras:
        for _ in range(40):
            rows = [
                [rng.randrange(alg.field.order) for _ in range(alg.dim)]
                for _ in range(rng.randrange(alg.dim + 1))
            ]
            v = span(alg, rows)
            x = alg.element([rng.randrange(alg.field.order) for _ in range(alg.dim)])
            assert radical_member(v, x) == _cycle_radical_member(v.member, x)


def test_radical_enumerate_h_is_the_nilpotent_cone():
    a = matrix_algebra(2, F5)
    h = trace_zero_plane(a)
    rad = radical_enumerate(h)
    assert len(rad) == 25  # q^(n^2-n) nilpotent matrices
    assert all(classify_element(x).nilpotent for x in rad)
    full = Subspace.full(a)
    assert len(radical_enumerate(full)) == a.size


def test_radical_enumerate_truncated_polynomials():
    a = truncated(2, 3)
    rad = radical_enumerate(span(a, [[0, 1, 0]]))
    assert sorted(x.coords for x in rad) == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
    ]


def test_radical_enumerate_guardrail():
    with pytest.raises(TooLarge):
        radical_enumerate(Subspace.zero(matrix_algebra(2, F5)), max_scan=100)
    with pytest.raises(InfiniteField):
        radical_enumerate(Subspace.zero(matrix_algebra(2, QQ)))


# -- certificates ----------------------------------------------------------------------


def test_certificate_spec_points():
    a = matrix_algebra(2, F5)
    e12 = a.basis_element(1)
    for variant in ALL_VARIANTS:
        cert = certify_radical_membership(Subspace.zero(a), variant, e12)
        assert cert.exponent == 2 and cert.ideal.is_zero
    h = trace_zero_plane(a)
    cert = certify_radical_membership(h, Sidedness.TWO_SIDED, e12)
    assert cert.exponent == 2
    cert = certify_radical_membership(Subspace.full(a), Sidedness.LEFT, a.one())
    assert cert.exponent == 0 and cert.ideal.is_full


def test_certificate_rejects_non_members():
    a = matrix_algebra(2, F5)
    with pytest.raises(NotInRadical):
        certify_radical_membership(Subspace.zero(a), Sidedness.LEFT, a.one())


def test_certificates_work_over_rationals():
    a = matrix_algebra(2, QQ)
    e12 = a.basis_element(1)
    for variant in ALL_VARIANTS:
        cert = certify_radical_membership(Subspace.zero(a), variant, e12)
        assert cert.exponent == 2 and cert.ideal.is_zero
    with pytest.raises(NotInRadical):
        certify_radical_membership(Subspace.zero(a), Sidedness.LEFT, a.one())


def test_witness_replay_over_rationals():
    from mathieu_kit.mathieu import Witness

    a = matrix_algebra(2, QQ)
    v = span(a, [[1, 0, 0, 0]])  # the line of E_11
    e = (1, 0, 0, 0)
    b = (0, 0, 1, 0)  # E_21, with E_21 E_11 = E_21 outside the line
    assert verify_witness(v, Sidedness.LEFT, Witness(e, b, None, b))
    assert not verify_witness(v, Sidedness.LEFT, Witness(e, b, None, (1, 0, 0, 0)))


def test_certificate_ideal_is_contained():
    rng = random.Random(31)
    a = truncated(3, 3)
    m = span(a, [[0, 1, 0]])
    for _ in range(10):
        x = a.element([0, rng.randrange(3), rng.randrange(3)])
        if not radical_member(m, x):
            continue
        for variant in ALL_VARIANTS:
            cert = certify_radical_membership(m, variant, x)
            assert m.contains(cert.ideal)
            # minimality: smaller exponents fail
            from mathieu_kit.subspace import theta_ideal
            from mathieu_kit.algebra import elem_power

            for smaller in range(cert.exponent):
                assert not m.contains(theta_ideal(elem_power(x, smaller), variant))


# -- the full decision --------------------------------------------------------------------


def test_decide_trace_plane_f3_true_every_variant():
    h = trace_zero_plane(matrix_algebra(2, F3))
    for variant in ALL_VARIANTS:
        verdict = decide_mathieu(h, variant)
        assert verdict.is_mathieu and verdict.witness is None
        assert verdict.method == "idempotent_criterion"


def test_decide_trace_plane_f2_false_with_identity_witness():
    a = matrix_algebra(2, F2)
    h = trace_zero_plane(a)
    for variant in ALL_VARIANTS:
        verdict = decide_mathieu(h, variant)
        assert not verdict.is_mathieu
        assert verdict.witness.e == a.unit  # I_2 has trace 2 = 0
        assert verify_witness(h, variant, verdict.witness)


def test_decide_e11_line_left_witness():
    a = matrix_algebra(2, F2)
    v = span(a, [[1, 0, 0, 0]])
    verdict = decide_mathieu(v, Sidedness.LEFT)
    assert not verdict.is_mathieu
    assert verdict.witness.e == (1, 0, 0, 0)
    assert verdict.witness.b == (0, 0, 1, 0)  # E_21
    assert verdict.witness.product == (0, 0, 1, 0)
    assert verify_witness(v, Sidedness.LEFT, verdict.witness)


def test_decide_rejects_rationals():
    a = matrix_algebra(2, QQ)
    with pytest.raises(InfiniteFieldNoDecision):
        decide_mathieu(span(a, [[0, 1, 0, 0]]), Sidedness.LEFT)


def test_trivial_subspaces_are_always_mathieu():
    for alg in [matrix_algebra(2, F2), f4(), truncated(2, 3)]:
        for variant in ALL_VARIANTS:
            assert decide_mathieu(Subspace.zero(alg), variant).is_mathieu
            assert decide_mathieu(Subspace.full(alg), variant).is_mathieu


def test_proper_subspace_containing_unit_never_mathieu():
    for alg in [matrix_algebra(2, F2), f4(), truncated(2, 3), direct_sum(field_algebra(F2), field_algebra(F2))]:
        for v in all_subspaces(alg):
            if v.is_full or not v.contains_unit():
                continue
            for variant in ALL_VARIANTS:
                assert not decide_mathieu(v, variant).is_mathieu


# -- oracle agreement -----------------------------------------------------------------------


def test_oracle_spec_points():
    a3 = matrix_algebra(2, F3)
    h = trace_zero_plane(a3)
    assert oracle_mathieu(h, Sidedness.TWO_SIDED)
    a2 = matrix_algebra(2, F2)
    assert oracle_mathieu(span(a2, [[0, 1, 0, 0]]), Sidedness.TWO_SIDED)
    for alg in [a2, f4()]:
        unit_line = span(alg, [alg.unit])
        for variant in ALL_VARIANTS:
            assert not oracle_mathieu(unit_line, variant)


def test_oracle_is_charged_for_its_walks_before_any_product(monkeypatch):
    # F_1009 has 1009 elements, but each one walks up to 1008 powers: the
    # price is 1009 walks of at most 1009 powers, each with its 1 left
    # translate, and it is refused before the first product
    a = field_algebra(GF(1009))
    # the upper triangular matrices of M_2(F_2): 8 walks of at most 16
    # powers, each with 4 left or right, 8 pre-two-sided or 20 two-sided
    # translates, so 640 evaluations for left and right, 1152 and 2688
    m2 = matrix_algebra(2, F2)
    v = span(m2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert oracle_mathieu(v, Sidedness.LEFT, max_scan=640) == decide_mathieu(
        v, Sidedness.LEFT
    ).is_mathieu
    products = []
    mul_coords = Algebra._mul_coords

    def counted(self, x, y):
        products.append(1)
        return mul_coords(self, x, y)

    def listed(self):
        products.append("coord_vectors")
        return iter(())

    monkeypatch.setattr(Algebra, "_mul_coords", counted)
    monkeypatch.setattr(Subspace, "coord_vectors", listed)
    with pytest.raises(TooLarge, match="needs 2036162 evaluations, budget is 1009"):
        oracle_mathieu(Subspace.full(a), Sidedness.LEFT, max_scan=1009)
    # every variant is priced in ALL_VARIANTS order before v is listed: the
    # first one over budget names the refusal, not the largest one
    with pytest.raises(TooLarge, match="needs 1152 evaluations, budget is 640"):
        oracle_all_variants(v, max_scan=640)
    with pytest.raises(TooLarge, match="needs 2688 evaluations, budget is 1152"):
        oracle_all_variants(v, max_scan=1152)
    with pytest.raises(TooLarge, match="needs 2688 evaluations, budget is 640"):
        oracle_mathieu(v, Sidedness.TWO_SIDED, max_scan=640)
    assert products == []


def test_oracle_reads_membership_from_the_listed_elements(monkeypatch):
    # one walk answers all four variants without the constraint rows that
    # the idempotent decision tests membership with, and computes each
    # element's power cycle at most once
    cases = []
    for alg in [matrix_algebra(2, F2), truncated(2, 3)]:
        cases += [(v, decide_all_variants(v)) for v in all_subspaces(alg)]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle tested membership through constraint rows")

    monkeypatch.setattr(Subspace, "_member_coords", refuse)
    monkeypatch.setattr(_linalg, "in_span", refuse)
    cycles = []
    power_cycle = mathieu.power_cycle

    def counted(x):
        cycles.append(x)
        return power_cycle(x)

    monkeypatch.setattr(mathieu, "power_cycle", counted)
    for v, verdicts in cases:
        cycles.clear()
        oracle = oracle_all_variants(v)
        assert oracle == {var: verdict.is_mathieu for var, verdict in verdicts.items()}, v.basis
        assert len(cycles) <= v.size(), (v.basis, len(cycles))


def test_oracle_equals_decision_on_small_algebras():
    algebras = [
        direct_sum(field_algebra(F2), field_algebra(F2)),
        truncated(2, 2),
        f4(),
    ]
    for alg in algebras:
        for v in all_subspaces(alg):
            for variant in ALL_VARIANTS:
                assert (
                    decide_mathieu(v, variant).is_mathieu
                    == oracle_mathieu(v, variant)
                ), (alg.label, v.basis, variant)


def test_left_right_duality_under_opposite():
    a = matrix_algebra(2, F2)
    op = opposite(a)
    for v in all_subspaces(a):
        w = Subspace.span(op, v.basis)
        assert (
            decide_mathieu(v, Sidedness.LEFT).is_mathieu
            == decide_mathieu(w, Sidedness.RIGHT).is_mathieu
        )
        assert (
            decide_mathieu(v, Sidedness.RIGHT).is_mathieu
            == decide_mathieu(w, Sidedness.LEFT).is_mathieu
        )
        assert (
            decide_mathieu(v, Sidedness.TWO_SIDED).is_mathieu
            == decide_mathieu(w, Sidedness.TWO_SIDED).is_mathieu
        )


# -- special paths ------------------------------------------------------------------------------


def test_commutative_criterion_matches_decision():
    algebras = [
        truncated(2, 3),
        truncated(2, 2),
        f4(),
        direct_sum(field_algebra(F3), field_algebra(F3)),
        poly_quotient_algebra(Poly.from_ints(F2, [0, 1, 0, 1])),  # t^3 + t = t(t + 1)^2
        poly_quotient_algebra(Poly.from_ints(F3, [0, 2, 0, 1])),  # t^3 + 2t = t(t - 1)(t + 1)
    ]
    for alg in algebras:
        for v in all_subspaces(alg):
            assert (
                is_mathieu_commutative(v)
                == decide_mathieu(v, Sidedness.TWO_SIDED).is_mathieu
            )


def test_commutative_criterion_spec_points():
    a = truncated(2, 3)
    assert is_mathieu_commutative(span(a, [[0, 1, 0]]))
    assert is_mathieu_commutative(Subspace.full(a))
    b = truncated(2, 2)
    v = span(b, [[1, 1]])
    assert is_mathieu_commutative(v) == decide_mathieu(v, Sidedness.TWO_SIDED).is_mathieu
    # the radical of zero in F_2[t]/(t^7) has 64 elements, and 64^2 > 4000
    z = Subspace.zero(truncated(2, 7))
    assert is_mathieu_commutative(z, max_scan=4000)
    assert decide_mathieu(z, Sidedness.TWO_SIDED, 4000).is_mathieu
    with pytest.raises(NotCommutative):
        is_mathieu_commutative(Subspace.zero(matrix_algebra(2, F2)))


def test_line_rule_spec_points():
    aq = matrix_algebra(2, QQ)
    assert line_is_mathieu(aq.basis_element(1), Sidedness.TWO_SIDED)  # E_12 nilpotent
    assert not line_is_mathieu(aq.basis_element(0), Sidedness.LEFT)  # E_11 idempotent
    ds = direct_sum(field_algebra(F2), field_algebra(F2))
    assert line_is_mathieu(ds.element([1, 0]), Sidedness.TWO_SIDED)  # ideal line
    with pytest.raises(ZeroElement):
        line_is_mathieu(aq.zero(), Sidedness.LEFT)


def test_line_rule_agrees_with_decision_exhaustively():
    for alg in [matrix_algebra(2, F2), matrix_algebra(2, F3), direct_sum(field_algebra(F3), field_algebra(F3))]:
        from mathieu_kit.subspace import enumerate_subspaces

        for line in enumerate_subspaces(alg, 1):
            gen = alg.element(line.basis[0])
            for variant in ALL_VARIANTS:
                assert line_is_mathieu(gen, variant) == decide_mathieu(line, variant).is_mathieu


def test_find_nontrivial_mathieu():
    m2 = matrix_algebra(2, F2)
    found = find_nontrivial_mathieu(m2)
    assert found.basis == ((0, 0, 1, 0),)  # first line in canonical order: span{E_21}
    assert classify_element(m2.element(found.basis[0])).nilpotent
    found = find_nontrivial_mathieu(f4())
    assert found.basis == ((0, 1),)  # the line of the generator, not the unit line
    with pytest.raises(OnlyTrivial):
        find_nontrivial_mathieu(field_algebra(F2))
    with pytest.raises(OnlyTrivial):
        find_nontrivial_mathieu(matrix_algebra(1, F3))


def test_find_nontrivial_mathieu_verdict_is_genuine():
    for alg in [matrix_algebra(2, F3), direct_sum(field_algebra(F2), field_algebra(F2)), truncated(3, 2)]:
        found = find_nontrivial_mathieu(alg)
        assert 0 < found.dim < alg.dim
        assert decide_mathieu(found, Sidedness.TWO_SIDED).is_mathieu
        assert oracle_mathieu(found, Sidedness.TWO_SIDED)


# -- algebra classification ------------------------------------------------------------------------


def test_quasi_stable_spec_points():
    assert is_quasi_stable(f4())
    assert is_quasi_stable(direct_sum(field_algebra(F2), field_algebra(F2)))
    assert is_quasi_stable(truncated(2, 3))
    assert is_quasi_stable(direct_sum(field_algebra(F3), field_algebra(F3)))
    assert not is_quasi_stable(matrix_algebra(2, F2))
    assert not is_quasi_stable(matrix_algebra(2, F3))
    # F_9 as F_3[t]/(t^2+1): irreducible since -1 is not a square mod 3
    f9 = poly_quotient_algebra(Poly.from_ints(F3, [1, 0, 1]))
    assert is_quasi_stable(f9)


def test_quasi_stable_definition_check_dim2():
    # quasi-stable iff every subspace avoiding 1 is Mathieu (exhaustive, dim <= 2)
    algebras = [
        field_algebra(F2),
        field_algebra(F3),
        f4(),
        truncated(2, 2),
        direct_sum(field_algebra(F2), field_algebra(F2)),
        direct_sum(field_algebra(F3), field_algebra(F3)),
    ]
    for alg in algebras:
        by_definition = all(
            oracle_mathieu(v, variant)
            for v in all_subspaces(alg)
            if not v.contains_unit()
            for variant in ALL_VARIANTS
        )
        assert is_quasi_stable(alg) == by_definition, alg.label


def test_stable_spec_points():
    assert is_stable(field_algebra(F3))
    assert is_stable(direct_sum(field_algebra(F2), field_algebra(F2)))
    assert not is_stable(direct_sum(field_algebra(F3), field_algebra(F3)))
    assert not is_stable(f4())
    assert not is_stable(truncated(2, 2))
    assert not is_stable(matrix_algebra(2, F2))


def test_stable_matches_ideal_definition_dim2():
    from mathieu_kit.subspace import is_theta_ideal

    algebras = [
        field_algebra(F2),
        f4(),
        truncated(2, 2),
        direct_sum(field_algebra(F2), field_algebra(F2)),
        direct_sum(field_algebra(F3), field_algebra(F3)),
    ]
    for alg in algebras:
        by_definition = all(
            is_theta_ideal(v, Sidedness.TWO_SIDED)
            for v in all_subspaces(alg)
            if not v.contains_unit()
        )
        assert is_stable(alg) == by_definition, alg.label


def test_classification_requires_finite_field():
    with pytest.raises(InfiniteFieldNoDecision):
        is_quasi_stable(matrix_algebra(2, QQ))
    with pytest.raises(InfiniteFieldNoDecision):
        is_stable(matrix_algebra(2, QQ))


# -- witnesses ------------------------------------------------------------------------------------------


def test_witness_replay_all_variants():
    a = matrix_algebra(2, F3)
    v = span(a, [[1, 0, 0, 0], [0, 1, 0, 0]])  # top row span, contains E_11
    for variant in ALL_VARIANTS:
        verdict = decide_mathieu(v, variant)
        if not verdict.is_mathieu:
            assert verify_witness(v, variant, verdict.witness)


def test_witness_rejects_tampering():
    from mathieu_kit.mathieu import Witness

    a = matrix_algebra(2, F2)
    v = span(a, [[1, 0, 0, 0]])
    verdict = decide_mathieu(v, Sidedness.LEFT)
    w = verdict.witness
    # claimed idempotent not in the subspace
    assert not verify_witness(v, Sidedness.LEFT, Witness((0, 1, 0, 0), w.b, None, w.product))
    # non-idempotent e
    assert not verify_witness(span(a, [[0, 1, 0, 0]]), Sidedness.LEFT, Witness((0, 1, 0, 0), w.b, None, w.product))
    # wrong product recorded
    assert not verify_witness(v, Sidedness.LEFT, Witness(w.e, w.b, None, (0, 0, 0, 0)))
    # malformed vectors are refused, not padded or reduced: b with three
    # coordinates, and b with the residue 4, which is no F_3 residue
    a = matrix_algebra(2, F3)
    v = span(a, [[1, 0, 0, 0], [0, 1, 0, 0]])
    e, product = (1, 0, 0, 0), (0, 0, 1, 0)
    assert verify_witness(v, Sidedness.LEFT, Witness(e, (0, 0, 1, 0), None, product))
    with pytest.raises(ValueError, match="expected 4 coordinates"):
        verify_witness(v, Sidedness.LEFT, Witness(e, (0, 0, 1), None, product))
    with pytest.raises(FieldMismatch, match="out of range"):
        verify_witness(v, Sidedness.LEFT, Witness(e, (0, 0, 4, 0), None, product))


def test_decide_all_variants_shares_scan(monkeypatch):
    alg = matrix_algebra(2, F3)
    calls = []
    search = _scan.idempotents

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    # the trace-zero plane passes in every variant; the top row, a right
    # ideal, passes only on the right and is refuted by a witness otherwise
    top_row = span(alg, [[1, 0, 0, 0], [0, 1, 0, 0]])
    for v, passes in [(trace_zero_plane(alg), set(ALL_VARIANTS)), (top_row, {Sidedness.RIGHT})]:
        singles = {variant: decide_mathieu(v, variant) for variant in ALL_VARIANTS}
        calls.clear()
        monkeypatch.setattr(_scan, "idempotents", counted)
        verdicts = decide_all_variants(v)
        monkeypatch.undo()
        assert len(calls) == 1
        assert list(verdicts) == list(ALL_VARIANTS)
        assert verdicts == singles
        assert {variant for variant, verdict in verdicts.items() if verdict.is_mathieu} == passes


def test_sided_ideals_are_mathieu_subspaces():
    from mathieu_kit.subspace import theta_ideal

    rng = random.Random(41)
    algebras = [
        matrix_algebra(2, F3),
        truncated(2, 3),
        direct_sum(field_algebra(F2), field_algebra(F2)),
        opposite(matrix_algebra(2, F2)),
    ]
    for alg in algebras:
        for _ in range(15):
            x = alg.element([rng.randrange(alg.field.order) for _ in range(alg.dim)])
            left = theta_ideal(x, Sidedness.LEFT)
            assert decide_mathieu(left, Sidedness.LEFT).is_mathieu
            right = theta_ideal(x, Sidedness.RIGHT)
            assert decide_mathieu(right, Sidedness.RIGHT).is_mathieu
            two = theta_ideal(x, Sidedness.TWO_SIDED)
            for variant in ALL_VARIANTS:
                assert decide_mathieu(two, variant).is_mathieu


def test_variant_hierarchy():
    # two-sided implies pre-two-sided, which means exactly left and right
    for alg in [matrix_algebra(2, F2), matrix_algebra(2, F3), truncated(2, 3)]:
        for v in all_subspaces(alg):
            verdicts = {
                variant: decide_mathieu(v, variant).is_mathieu
                for variant in ALL_VARIANTS
            }
            if verdicts[Sidedness.TWO_SIDED]:
                assert verdicts[Sidedness.PRE_TWO_SIDED]
            assert verdicts[Sidedness.PRE_TWO_SIDED] == (
                verdicts[Sidedness.LEFT] and verdicts[Sidedness.RIGHT]
            )


def _verdicts_by_walk(v, variant):
    """decide_mathieu with every basis translate of every idempotent of v
    walked in order, none skipped: the reference the span-skipping walk
    must reproduce, verdict and witness."""
    witness = next((
        Witness(e, b, c, prod)
        for e in mathieu._idempotents_of(v, mathieu.MAX_SCAN_DEFAULT)
        for b, c, prod in translates(v.ambient, e, variant) if not v._member_coords(prod)
    ), None)
    return MathieuVerdict(witness is None, variant.value, "idempotent_criterion", witness)


def _assert_walks_agree(v, label):
    verdicts = decide_all_variants(v)
    for variant in ALL_VARIANTS:
        assert verdicts[variant] == _verdicts_by_walk(v, variant), (label, v.basis, variant)


def test_span_skipping_walk_equals_the_per_idempotent_walk_on_small_algebras():
    for entry in _small_f23_entries():
        for v in all_subspaces(entry.algebra):
            _assert_walks_agree(v, entry.name)


@pytest.mark.parametrize(
    "spec",
    ["mat:3:3", "mat:2:7", "opp:mat:2:5", "dsum:mat:1:3+polyq:3:0,0,1", "polyq:7:1,0,0,1"],
)
def test_span_skipping_walk_equals_the_per_idempotent_walk_on_random_subspaces(spec):
    # half the draws are spans of random rows, most of them refuted; the
    # other half hold a random sided ideal, whose idempotents the walk
    # clears in bulk, and one more random row
    a = parse_algebra_spec(spec)
    rng = random.Random(f"walk:{spec}")
    q = a.field.order

    def row():
        return [rng.randrange(q) for _ in range(a.dim)]

    for draw in range(24):
        if draw % 2:
            x = a.element(row())
            rows = list(theta_ideal(x, rng.choice(ALL_VARIANTS)).basis) + [row()]
        else:
            rows = [row() for _ in range(rng.randrange(1, a.dim))]
        v = span(a, rows)
        if v.dim < a.dim:
            _assert_walks_agree(v, spec)


def _walked(monkeypatch, v, variant):
    """The verdict on v and the idempotents whose translates were formed."""
    walked = []

    def spy(a, e, theta):
        walked.append(e)
        return translates(a, e, theta)

    monkeypatch.setattr(mathieu, "translates", spy)
    verdict = decide_mathieu(v, variant)
    monkeypatch.undo()
    return verdict, walked


def _matrix_units(a, indices):
    return span(a, [a._basis_coords(i) for i in indices])


def test_walk_forms_translates_of_at_most_dim_w_plus_one_idempotents(monkeypatch):
    # E_11 = 0 in M_3(F_5): the right variant's witness is the 177th of its
    # 416 idempotents, and the 176 before it span a space of dimension 6
    a = matrix_algebra(3, F5)
    v = _matrix_units(a, range(1, 9))
    idempotents = mathieu._idempotents_of(v, mathieu.MAX_SCAN_DEFAULT)
    assert len(idempotents) == 416
    verdict, walked = _walked(monkeypatch, v, Sidedness.RIGHT)
    assert len(walked) <= max_theta_ideal(v, Sidedness.RIGHT).dim + 1 == 7
    assert idempotents.index(verdict.witness.e) == 176 and walked[-1] == verdict.witness.e
    assert verdict == _verdicts_by_walk(v, Sidedness.RIGHT)

    # the first two columns of M_3(F_3), a left ideal with 46 idempotents
    a = matrix_algebra(3, F3)
    v = _matrix_units(a, (0, 1, 3, 4, 6, 7))
    assert len(mathieu._idempotents_of(v, mathieu.MAX_SCAN_DEFAULT)) == 46
    verdict, walked = _walked(monkeypatch, v, Sidedness.LEFT)
    assert verdict.is_mathieu
    assert len(walked) <= max_theta_ideal(v, Sidedness.LEFT).dim + 1 == 7
