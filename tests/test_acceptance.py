"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check is exact (integer counts, exact field arithmetic); the stated
time budgets are asserted as hard bounds and hold with a wide margin on
commodity hardware.
"""

import random
import time
from fractions import Fraction

import pytest

from mathieu_kit.algebra import (
    Element,
    build_p_of_a,
    classify_element,
    elem_power,
    idempotent_poly,
    matrix_algebra,
    minimal_polynomial,
    poly_eval_element,
)
from mathieu_kit.errors import OnlyTrivial
from mathieu_kit.experiments import (
    CODIM1_EXPECTED,
    catalog,
    catalog_over,
    random_subspace,
    run_suite,
)
from mathieu_kit.fields import GF, QQ, Poly
from mathieu_kit.mathieu import (
    _cycle_radical_member,
    decide_mathieu,
    find_nontrivial_mathieu,
    is_quasi_stable,
    is_stable,
    line_is_mathieu,
    oracle_mathieu,
    radical_enumerate,
)
from mathieu_kit.matrixlab import classify_codim1, classify_lines
from mathieu_kit.subspace import (
    ALL_VARIANTS,
    all_subspaces,
    enumerate_subspaces,
    span,
)


def report(number: int, name: str, budget: float, started: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_codim1_classification(capsys):
    started = time.perf_counter()
    for (n, q), expected in CODIM1_EXPECTED.items():
        result = classify_codim1(n, q)
        for variant in ALL_VARIANTS:
            assert result.per_theta[variant.value] == expected, (n, q, variant)
            if expected == 1:
                ident = matrix_algebra(n, GF(q)).one()
                assert result.representatives[variant.value] == [
                    [GF(q).format(c) for c in ident.coords]
                ], (n, q, variant)
    # the CLI verb reports the same census
    import json

    from mathieu_kit.cli import main

    for n, q in [(2, 2), (2, 3)]:
        assert main(["--json", "mat", "codim1", "--n", str(n), "--q", str(q)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(v == CODIM1_EXPECTED[(n, q)] for v in doc["per_theta"].values())
    report(1, "codimension-one classification", 60, started)


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    cat = catalog()
    checked = 0
    for name in ["F2+F2", "F2[t]/t2", "F2[t]/t3", "F4"]:
        for v in all_subspaces(cat[name].algebra):
            for variant in ALL_VARIANTS:
                assert (
                    decide_mathieu(v, variant).is_mathieu
                    == oracle_mathieu(v, variant)
                ), (name, v.basis, variant)
                checked += 1
    m2 = cat["M2(F2)"].algebra
    for r in range(3):
        for v in enumerate_subspaces(m2, r):
            for variant in ALL_VARIANTS:
                assert (
                    decide_mathieu(v, variant).is_mathieu
                    == oracle_mathieu(v, variant)
                ), ("M2(F2)", v.basis, variant)
                checked += 1
    assert checked == (5 + 5 + 16 + 5 + 51) * 4
    report(2, "decision equals definition-level oracle", 30, started)


def test_criterion_3_radical_window_validation():
    # radical_enumerate decides every element twice, through the fixed
    # window a^d .. a^(2d-1) AND the minimal-polynomial window, raising
    # ConsistencyError on any disagreement; this drives it over every
    # element of every F_2/F_3 catalog algebra, and compares it with the
    # hash-detected power cycle on every subspace of dimension at most 3.
    started = time.perf_counter()
    entries = list(catalog_over({2, 3}).values())
    for entry in entries:
        if entry.algebra.dim <= 3:
            for v in all_subspaces(entry.algebra):
                cycle = [
                    x.coords for x in entry.algebra.elements()
                    if _cycle_radical_member(v.member_coords, x)
                ]
                assert [x.coords for x in radical_enumerate(v)] == cycle
    rng = random.Random(20240809)
    count = 0
    while count < 200:
        for entry in entries:
            radical_enumerate(random_subspace(entry.algebra, rng))
            count += 1
            if count >= 200:
                break
    report(3, "radical window equals cycle definition", 30, started)


def _nontrivial_idempotent_inputs(algebra):
    for x in algebra.elements():
        cls = classify_element(x)
        if not cls.nilpotent and not cls.invertible:
            yield x


def _check_idempotent_construction(x):
    algebra = x.algebra
    field = algebra.field
    data = minimal_polynomial(x)
    p = idempotent_poly(data)
    f = data.minpoly
    t_k = Poly(field, (field.zero,) * data.k + (field.one,))
    assert all(c == 0 for c in (p % t_k).coeffs)  # p = 0 mod t^k
    assert ((p * p - p) % f).is_zero  # p^2 = p mod f
    assert ((t_k - t_k * p) % f).is_zero  # t^k = t^k p mod f
    assert not (p % f).is_zero and not ((p - Poly.one(field)) % f).is_zero
    e = poly_eval_element(p, x)
    assert e == build_p_of_a(x)
    assert e * e == e
    assert not e.is_zero and e != algebra.one()
    xk = elem_power(x, data.k)
    assert xk * e == xk
    powers = span(algebra, [elem_power(x, m) for m in range(1, algebra.dim + 1)])
    assert powers.member(e)


def test_criterion_4_idempotent_construction():
    started = time.perf_counter()
    cat = catalog()
    for name in ["M2(F3)", "M2(F5)"]:
        count = 0
        for x in _nontrivial_idempotent_inputs(cat[name].algebra):
            _check_idempotent_construction(x)
            count += 1
        assert count > 0, name
    # local algebra: every element is nilpotent or invertible, vacuous here
    assert not list(_nontrivial_idempotent_inputs(cat["F2[t]/t3"].algebra))

    rng = random.Random(77)
    m3q = matrix_algebra(3, QQ)
    done = 0
    while done < 100:
        # singular 3x3 with small integer entries: a product of 3x2 and 2x3
        left = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(3)]
        right = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)]
        coords = [
            Fraction(sum(left[i][k] * right[k][j] for k in range(2)))
            for i in range(3)
            for j in range(3)
        ]
        x = m3q.element(coords)
        cls = classify_element(x)
        if cls.nilpotent or cls.invertible:
            continue
        _check_idempotent_construction(x)
        done += 1
    report(4, "constructed idempotent p(a)", 20, started)


def test_criterion_5_line_classification():
    started = time.perf_counter()
    for n, q in [(2, 2), (2, 3)]:
        census = classify_lines(n, q)  # raises if the counts are inconsistent
        assert census.total_lines == (q ** (n * n) - 1) // (q - 1)
        for variant in ALL_VARIANTS:
            assert (
                census.per_theta[variant.value]
                == census.total_lines - census.quasi_idempotent_lines
            )
        algebra = matrix_algebra(n, GF(q))
        for line in enumerate_subspaces(algebra, 1):
            generator = Element(algebra, line.basis[0])
            for variant in ALL_VARIANTS:
                assert line_is_mathieu(generator, variant) == oracle_mathieu(
                    line, variant
                ), (n, q, line.basis, variant)
    report(5, "line classification", 10, started)


def test_criterion_6_quasi_stable_and_stable():
    started = time.perf_counter()
    cat = catalog()
    assert is_quasi_stable(cat["F4"].algebra)
    assert is_quasi_stable(cat["F2+F2"].algebra)
    assert is_quasi_stable(cat["F2[t]/t3"].algebra)
    assert is_quasi_stable(cat["F9"].algebra)  # F_3[t]/(t^2+1), a field
    assert is_quasi_stable(cat["F3+F3"].algebra)
    assert not is_quasi_stable(cat["M2(F2)"].algebra)
    assert is_stable(cat["F2+F2"].algebra)
    assert not is_stable(cat["F3+F3"].algebra)
    assert is_stable(cat["F3"].algebra)
    for entry in cat.values():
        if entry.algebra.dim > 2:
            continue
        by_definition = all(
            oracle_mathieu(v, variant)
            for v in all_subspaces(entry.algebra)
            if not v.contains_unit()
            for variant in ALL_VARIANTS
        )
        assert is_quasi_stable(entry.algebra) == by_definition, entry.name
    report(6, "quasi-stable and stable classification", 10, started)


def test_criterion_7_strongly_simple_field_case():
    started = time.perf_counter()
    for entry in catalog_over({2, 3}).values():
        if entry.algebra.dim == 1:
            with pytest.raises(OnlyTrivial):
                find_nontrivial_mathieu(entry.algebra)
        else:
            found = find_nontrivial_mathieu(entry.algebra)
            assert 0 < found.dim < entry.algebra.dim, entry.name
            assert decide_mathieu(found, "two_sided").is_mathieu, entry.name
    with pytest.raises(OnlyTrivial):
        find_nontrivial_mathieu(catalog()["F5"].algebra)
    report(7, "nontrivial Mathieu subspace exists unless the algebra is the field", 5, started)


def test_criterion_8_radical_law_suite():
    started = time.perf_counter()
    suite = run_suite("radical_laws")
    failures = suite.failures()
    assert not failures, [
        (c.check, c.instance, c.witness) for c in failures
    ]
    names = {c.check for c in suite.checks}
    assert {
        "radical_of_radical_fixed",
        "radical_matches_max_ideal",
        "unit_in_proper_subspace_refutes",
        "intersections_stay_mathieu",
        "preimages_stay_mathieu",
        "quotient_transfer",
        "left_right_duality",
        "commutative_radical_rule",
        "window_equals_cycle_exhaustive",
        "window_equals_cycle_random",
    } <= names
    report(8, "radical-law suite", 60, started)
