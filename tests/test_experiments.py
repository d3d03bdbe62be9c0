import random
from collections import Counter

import pytest

from mathieu_kit import _scan, algebra, cli, experiments, mathieu, subspace
from mathieu_kit.algebra import poly_quotient_algebra
from mathieu_kit.cli import main
from mathieu_kit.errors import ConsistencyError, TooLarge
from mathieu_kit.experiments import (
    catalog,
    catalog_over,
    enumerate_all_mathieu,
    random_subspace,
    run_suite,
    SUITE_NAMES,
)
from mathieu_kit.fields import GF, Poly
from mathieu_kit.subspace import Sidedness, all_subspaces


REQUIRED_ENTRIES = {
    "F2",
    "F3",
    "F5",
    "F4",
    "F2+F2",
    "F3+F3",
    "F2[t]/t2",
    "F2[t]/t3",
    "F3[t]/t2-t",
    "M2(F2)",
    "M2(F3)",
    "M2(F5)",
    "M3(F2)",
    "M3(F3)",
    "M3(F5)",
    "opp(M2(F2))",
}


def test_catalog_contains_required_entries_with_verified_tags():
    cat = catalog()
    assert REQUIRED_ENTRIES <= set(cat)
    assert "local" in cat["F2[t]/t2"].tags
    assert "local" not in cat["F3[t]/t2-t"].tags  # t is an idempotent there
    assert "simple" in cat["M3(F5)"].tags
    assert "commutative" not in cat["M2(F2)"].tags
    assert "field_extension" in cat["F4"].tags


@pytest.mark.parametrize(
    "name, tags, message",
    [
        ("F2+F2", {"commutative", "direct_sum", "simple"}, "proper ideal from"),
        ("F2[t]/t2", {"commutative", "local", "simple"}, "proper ideal from"),
        ("F4", {"commutative", "local", "field_extension"}, "looks simple but is not tagged"),
    ],
)
def test_catalog_refuses_a_wrong_simple_tag(name, tags, message):
    entry = catalog()[name]
    wrong = experiments.CatalogEntry(name, entry.algebra, frozenset(tags), entry.provenance)
    with pytest.raises(ConsistencyError, match=message):
        experiments._verify_entry(wrong)


def test_catalog_over_filters_by_characteristic():
    over23 = catalog_over({2, 3})
    assert "M2(F5)" not in over23
    assert "M3(F3)" in over23
    assert all(e.algebra.field.characteristic in (2, 3) for e in over23.values())


def test_random_subspace_is_deterministic_for_seed():
    a = catalog()["M2(F3)"].algebra
    first = [random_subspace(a, random.Random(42)).basis for _ in range(3)]
    second = [random_subspace(a, random.Random(42)).basis for _ in range(3)]
    assert first == second


def test_lattice_of_two_copies_of_f2():
    cat = catalog()
    a = cat["F2+F2"].algebra
    report = enumerate_all_mathieu(a, Sidedness.TWO_SIDED)
    assert report.total_subspaces == 5
    kinds = {v.basis for v in report.mathieu}
    assert kinds == {(), ((1, 0),), ((0, 1),), ((1, 0), (0, 1))}
    assert {v.basis for v in report.maximal_nontrivial} == {((1, 0),), ((0, 1),)}
    assert {v.basis for v in report.minimal_nonzero} == {((1, 0),), ((0, 1),)}


def test_lattice_of_m2f2_minimal_lines():
    a = catalog()["M2(F2)"].algebra
    report = enumerate_all_mathieu(a, Sidedness.TWO_SIDED)
    # internal assertion already matched minimal nonzero against the
    # non-quasi-idempotent lines; spot-check two of them
    bases = {v.basis for v in report.minimal_nonzero}
    assert ((0, 1, 0, 0),) in bases  # span{E_12}
    assert ((0, 0, 1, 0),) in bases  # span{E_21}
    assert all(len(b) == 1 for b in bases)


def test_lattice_of_dim_one_algebra():
    a = catalog()["F2"].algebra
    report = enumerate_all_mathieu(a, Sidedness.TWO_SIDED)
    assert {v.dim for v in report.mathieu} == {0, 1}
    assert report.maximal_nontrivial == []


def test_lattice_guardrail():
    # priced at the square of the subspace count, the size of its pairwise
    # containment walks, against the one budget max_scan
    m2_f5 = catalog()["M2(F5)"].algebra
    with pytest.raises(TooLarge, match=r"lattice of M2\(F5\) needs 1254400 .* budget is 1254399"):
        enumerate_all_mathieu(m2_f5, Sidedness.TWO_SIDED, max_scan=1120**2 - 1)
    assert enumerate_all_mathieu(m2_f5, Sidedness.TWO_SIDED).total_subspaces == 1120
    # M_3(F_2) has 8,283,458 subspaces: refused at the default budget
    with pytest.raises(TooLarge, match="needs 68615676437764 evaluations, budget is 10000000"):
        enumerate_all_mathieu(catalog()["M3(F2)"].algebra, Sidedness.TWO_SIDED)
    with pytest.raises(TooLarge):
        enumerate_all_mathieu(catalog()["M3(F3)"].algebra, Sidedness.TWO_SIDED)
    # F_2[t]/(t^5) has 374 subspaces: refused one evaluation short of 374^2
    f2_5 = poly_quotient_algebra(Poly.from_ints(GF(2), [0] * 5 + [1]))
    with pytest.raises(TooLarge, match="needs 139876 evaluations, budget is 139875"):
        enumerate_all_mathieu(f2_5, Sidedness.TWO_SIDED, max_scan=374**2 - 1)
    assert enumerate_all_mathieu(f2_5, Sidedness.TWO_SIDED, max_scan=374**2).total_subspaces == 374
    # a small lattice over a larger prime is answered: F_5 has 2 subspaces
    report = enumerate_all_mathieu(catalog()["F5"].algebra, Sidedness.TWO_SIDED)
    assert report.total_subspaces == 2


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("nonexistent")
    # the order of the suite choices and of the gate's suite runs
    assert SUITE_NAMES == (
        "radical_laws",
        "idempotent_criterion",
        "codim1",
        "lines",
        "quasi_stable",
        "stable",
        "strongly_simple",
        "closure_laws",
    )


@pytest.mark.parametrize("name", ["quasi_stable", "stable", "strongly_simple", "lines"])
def test_quick_suites_pass(name):
    report = run_suite(name)
    assert report.passed, report.failures()
    assert all(c.millis >= 0 for c in report.checks)


def test_check_results_serialize():
    report = run_suite("stable")
    docs = [c.to_dict() for c in report.checks]
    assert all(
        {"suite", "check", "instance", "pass", "millis"} <= set(d) for d in docs
    )


def test_radical_laws_records_refusals(capsys):
    # F9 and the 16-element algebras are past a budget of 8: each check that
    # needs them fails with the refusal, and the others still run
    report = run_suite("radical_laws", max_scan=8)
    failed = report.failures()
    assert failed and any(c.passed for c in report.checks)
    assert all(str(c.witness).startswith("TooLarge: ") for c in failed)
    assert "radical_of_radical_fixed" in {c.check for c in failed}
    assert main(["--json", "--max-scan", "8", "suite", "run", "radical_laws"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(report.checks)


@pytest.mark.parametrize("suite", ["idempotent_criterion", "radical_laws", "closure_laws"])
def test_each_swept_subspace_is_decided_once(monkeypatch, suite):
    catalog()  # built first: its own idempotent searches are not the run's
    searched = Counter()
    search = _scan.idempotents

    def counting(a, basis_rows, *args):
        searched[a.label, tuple(basis_rows)] += 1
        return search(a, basis_rows, *args)

    monkeypatch.setattr(_scan, "idempotents", counting)
    assert run_suite(suite).passed
    swept = [e for e in catalog_over({2, 3}).values() if e.algebra.dim <= 4]
    assert len(swept) == 12
    expected = {(e.name, v.basis) for e in swept for v in all_subspaces(e.algebra)}
    assert {key: searched[key] for key in expected} == dict.fromkeys(expected, 1)


def test_radical_laws_derives_each_radical_and_maximum_once(monkeypatch):
    # window_equals_cycle_random is left out: its random subspaces are its
    # input, and their radicals are not kept; commutative_radical_rule reads
    # the radicals the run enumerated instead of enumerating them again
    radicals, maxima = Counter(), Counter()
    check = []
    record, enumerate_radical = experiments._Recorder.run, experiments._radical_coords
    solve = subspace.max_theta_ideal

    def run(self, name, instance, fn):
        check[:] = [name]
        return record(self, name, instance, fn)

    def counting_radical(v, *args):
        if check != ["window_equals_cycle_random"]:
            radicals[v.ambient.label, v.basis] += 1
        return enumerate_radical(v, *args)

    def counting_max(v, variant):
        if variant in (Sidedness.LEFT, Sidedness.RIGHT):
            maxima[v.ambient.label, v.basis, variant] += 1
        return solve(v, variant)

    monkeypatch.setattr(experiments._Recorder, "run", run)
    for module in (mathieu, experiments):
        monkeypatch.setattr(module, "_radical_coords", counting_radical)
    for module in (subspace, experiments):
        monkeypatch.setattr(module, "max_theta_ideal", counting_max)
    assert run_suite("radical_laws").passed
    assert radicals and set(radicals.values()) == {1}
    commutative = [
        e.algebra for e in catalog_over({2, 3}).values()
        if e.algebra.dim <= 4 and "commutative" in e.tags
    ]
    assert {(a.label, v.basis) for a in commutative for v in all_subspaces(a)} <= set(radicals)
    assert maxima and set(maxima.values()) == {1}


def test_idempotent_criterion_computes_each_minimal_polynomial_once(monkeypatch):
    # idempotent_free_iff_tame_radical, local_dichotomy and
    # simple_algebra_radicals read the run's one minimal polynomial per
    # element, however many radicals hold it
    catalog()  # built first: its own verification is not the run's
    calls = Counter()
    compute = algebra.minimal_polynomial

    def counting(x):
        calls[x.algebra.label, x.coords] += 1
        return compute(x)

    for module in (algebra, cli, experiments, mathieu):
        monkeypatch.setattr(module, "minimal_polynomial", counting)
    assert run_suite("idempotent_criterion", seed=11).passed
    assert len(calls) == 154 and set(calls.values()) == {1}


def test_window_equals_cycle_random_catches_a_dropped_element(monkeypatch):
    # an enumeration that drops the last element of every radical in the
    # algebras of dimension 4 and more
    enumerate_radical = experiments.radical_enumerate

    def dropping(v, *args):
        got = enumerate_radical(v, *args)
        return got[:-1] if v.ambient.dim >= 4 else got

    monkeypatch.setattr(experiments, "radical_enumerate", dropping)
    failed = {c.check for c in run_suite("radical_laws", seed=11).failures()}
    assert "window_equals_cycle_random" in failed
