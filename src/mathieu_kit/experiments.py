"""Curated algebra catalog and scripted verification suites.

Each suite re-derives a classification or closure law from scratch on desk-
scale instances and compares against an independently computed answer; none
of the checks shortcut through the statement they are checking.  Reports are
deterministic given the seed: randomized subspace sampling uses an explicit
``random.Random`` and every randomized check records the seed in its
instance string.

A suite that sweeps every subspace of an algebra derives each fact about a
subspace once per run, into one fact table (see :func:`_fact_table`): its
idempotents, from one search; its four verdicts, read from those
idempotents; its maximum sided ideals; and its radical.  A fact is derived
inside the first check that asks for it and read by every later one, and
the table lives only as long as the suite call.  A refusal (``TooLarge``)
is not kept, so each check records the refusal of the first fact it needs
that is over budget, and the other checks still run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field
from functools import cache, lru_cache
from types import SimpleNamespace
from typing import Callable, Iterable, Optional

from .algebra import (
    Algebra,
    AlgebraHom,
    Element,
    classify_element,
    direct_sum,
    field_algebra,
    is_quasi_idempotent,
    matrix_algebra,
    opposite,
    poly_quotient_algebra,
)
from .errors import ConsistencyError, MathieuKitError, OnlyTrivial
from .fields import GF, Poly
from .mathieu import (
    MAX_SCAN_DEFAULT,
    _cycle_radical_member,
    _idempotents_of,
    _nontrivial_idempotents,
    _radical_is_ideal,
    _verdicts,
    decide_mathieu,
    find_nontrivial_mathieu,
    is_quasi_stable,
    is_stable,
    line_is_mathieu,
    oracle_all_variants,
    oracle_mathieu,
    radical_enumerate,
)
from .matrixlab import classify_codim1, classify_lines
from .subspace import (
    ALL_VARIANTS,
    Sidedness,
    Subspace,
    all_subspaces,
    enumerate_subspaces,
    image,
    is_theta_ideal,
    max_theta_ideal,
    max_theta_ideals,
    preimage,
    quotient_algebra,
    span,
    theta_ideal,
)

DEFAULT_SEED = 1234

SUITE_NAMES = (
    "radical_laws",
    "idempotent_criterion",
    "codim1",
    "lines",
    "quasi_stable",
    "stable",
    "strongly_simple",
    "closure_laws",
)


# -- catalog ---------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    algebra: Algebra
    tags: frozenset[str]
    provenance: str


def _truncated(p: int, k: int) -> Algebra:
    return poly_quotient_algebra(Poly.from_ints(GF(p), [0] * k + [1]))


def _entries() -> list[CatalogEntry]:
    f2, f3, f5 = GF(2), GF(3), GF(5)

    def entry(name, algebra, tags, provenance):
        algebra.label = name
        return CatalogEntry(name, algebra, frozenset(tags), provenance)

    field_tags = {"simple", "commutative", "local", "field_extension"}
    out = [
        entry("F2", field_algebra(f2), field_tags, "prime field"),
        entry("F3", field_algebra(f3), field_tags, "prime field"),
        entry("F5", field_algebra(f5), field_tags, "prime field"),
        entry(
            "F4",
            poly_quotient_algebra(Poly.from_ints(f2, [1, 1, 1])),
            field_tags,
            "degree-2 extension of F2 (t^2+t+1 has no roots)",
        ),
        entry(
            "F9",
            poly_quotient_algebra(Poly.from_ints(f3, [1, 0, 1])),
            field_tags,
            "degree-2 extension of F3 (t^2+1 has no roots)",
        ),
        entry(
            "F2+F2",
            direct_sum(field_algebra(f2), field_algebra(f2)),
            {"commutative", "direct_sum"},
            "two copies of the base field",
        ),
        entry(
            "F3+F3",
            direct_sum(field_algebra(f3), field_algebra(f3)),
            {"commutative", "direct_sum"},
            "two copies of the base field",
        ),
        entry("F2[t]/t2", _truncated(2, 2), {"commutative", "local"}, "truncated polynomials"),
        entry("F2[t]/t3", _truncated(2, 3), {"commutative", "local"}, "truncated polynomials"),
        entry(
            "F3[t]/t2-t",
            poly_quotient_algebra(Poly.from_ints(f3, [0, 2, 1])),
            {"commutative"},
            "split quadratic, isomorphic to F3+F3",
        ),
    ]
    for n, q in [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 5)]:
        out.append(
            entry(
                f"M{n}(F{q})",
                matrix_algebra(n, GF(q)),
                {"simple", "matrix"},
                "full matrix algebra",
            )
        )
    out.append(
        entry(
            "opp(M2(F2))",
            opposite(matrix_algebra(2, f2)),
            {"simple"},
            "opposite of a full matrix algebra",
        )
    )
    return out


def _verify_entry(entry: CatalogEntry) -> None:
    a = entry.algebra
    if ("commutative" in entry.tags) != a.is_commutative:
        raise ConsistencyError(f"{entry.name}: commutativity tag is wrong")
    if "matrix" in entry.tags and a.matrix_size is None:
        raise ConsistencyError(f"{entry.name}: not a matrix algebra")
    idem = _nontrivial_idempotents(a, MAX_SCAN_DEFAULT)[:1]
    if ("local" in entry.tags) != (not idem):
        raise ConsistencyError(f"{entry.name}: locality tag is wrong ({idem})")
    if "field_extension" in entry.tags:
        for x in a.elements():
            if not x.is_zero and not classify_element(x).invertible:
                raise ConsistencyError(f"{entry.name}: {x.coords} is not invertible")
    if "simple" in entry.tags:
        if a.dim <= 4:
            for line in enumerate_subspaces(a, 1):
                gen = Element(a, line.basis[0])
                if not theta_ideal(gen, Sidedness.TWO_SIDED).is_full:
                    raise ConsistencyError(f"{entry.name}: proper ideal from {gen.coords}")
        # larger matrix algebras are simple by construction
    elif a.dim >= 2:
        found_proper_ideal = any(
            0 < theta_ideal(a.basis_element(i), Sidedness.TWO_SIDED).dim < a.dim
            for i in range(a.dim)
        )
        if not found_proper_ideal:
            raise ConsistencyError(f"{entry.name}: looks simple but is not tagged")


@lru_cache(maxsize=1)
def catalog() -> dict[str, CatalogEntry]:
    """The named algebra catalog, with tags verified at load."""
    entries = {e.name: e for e in _entries()}
    for entry in entries.values():
        _verify_entry(entry)
    return entries


def catalog_over(characteristics: Iterable[int]) -> dict[str, CatalogEntry]:
    wanted = set(characteristics)
    return {
        name: e
        for name, e in catalog().items()
        if e.algebra.field.characteristic in wanted
    }


def random_subspace(a: Algebra, rng: random.Random) -> Subspace:
    r = rng.randrange(0, a.dim + 1)
    q = a.field.order
    return span(a, [[rng.randrange(q) for _ in range(a.dim)] for _ in range(r)])


# -- reports ----------------------------------------------------------------------------


@dataclass
class CheckResult:
    suite: str
    check: str
    instance: str
    passed: bool
    witness: Optional[object] = None
    millis: int = 0

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "check": self.check,
            "instance": self.instance,
            "pass": self.passed,
            "millis": self.millis,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class SuiteReport:
    suite: str
    seed: int
    checks: list[CheckResult] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


class _Recorder:
    def __init__(self, suite: str):
        self.suite = suite
        self.checks: list[CheckResult] = []

    def run(self, check: str, instance: str, fn: Callable[[], Optional[object]]) -> None:
        """Record one check; ``fn`` returns an optional witness and raises
        (or returns a witness and is wrapped by the caller asserting) on failure."""
        t0 = time.perf_counter()
        passed = True
        witness = None
        try:
            witness = fn()
        except MathieuKitError as exc:
            passed = False
            witness = f"{type(exc).__name__}: {exc}"
        except AssertionError as exc:
            passed = False
            witness = str(exc) or "assertion failed"
        millis = int((time.perf_counter() - t0) * 1000)
        self.checks.append(
            CheckResult(self.suite, check, instance, passed, witness, millis)
        )


def _fact_table(max_scan: int) -> SimpleNamespace:
    """A fresh fact table for one suite run.  Each fact about a subspace v
    is derived once, on first use, and kept for the run:

    * ``idempotents(v)``: its sorted idempotents, from one search;
    * ``verdicts(v)``: its four verdicts, read from those idempotents;
    * ``maxima(v)``: its four maximum sided ideals, each one-sided maximum
      solved once for the run (the two-sided one of v is the left one of
      v's right maximum, itself a subspace the run may sweep);
    * ``radical(v)``: its radical, as ``radical_enumerate``'s ordered
      coordinate list.

    ``table(a)`` maps each subspace of ``a``, in ``all_subspaces`` order, to
    its verdicts.  A refusal (``TooLarge``) raises and is not kept, so each
    check records the refusal of the first fact it needs that is over
    budget, and the other checks still run.
    """
    idempotents = cache(lambda v: _idempotents_of(v, max_scan))
    verdicts = cache(lambda v: _verdicts(v, idempotents(v), ALL_VARIANTS))
    one_sided = cache(lambda v, side: max_theta_ideal(v, side))
    return SimpleNamespace(
        idempotents=idempotents,
        verdicts=verdicts,
        maxima=cache(lambda v: max_theta_ideals(v, one_sided)),
        radical=cache(lambda v: [x.coords for x in radical_enumerate(v, max_scan)]),
        table=cache(lambda a: {v: verdicts(v) for v in all_subspaces(a)}),
    )


def _mathieu_in(verdicts: dict, variant: Sidedness) -> list[Subspace]:
    return [v for v, by_variant in verdicts.items() if by_variant[variant].is_mathieu]


def _radical_of_set(a: Algebra, members: set) -> set:
    """Radical of an arbitrary subset: tail cycle powers must all lie in it."""
    return {
        x.coords for x in a.elements() if _cycle_radical_member(members.__contains__, x)
    }


# -- individual suites -------------------------------------------------------------------


def _small_f23_entries(max_dim: int = 4) -> list[CatalogEntry]:
    return [
        e
        for e in catalog_over({2, 3}).values()
        if e.algebra.dim <= max_dim
    ]


def _suite_radical_laws(seed: int, max_scan: int) -> SuiteReport:
    rec = _Recorder("radical_laws")
    rng = random.Random(seed)
    small = _small_f23_entries()
    facts = _fact_table(max_scan)
    table, radical = facts.table, facts.radical

    for entry in small:
        a = entry.algebra

        def radical_idempotence(a=a):
            for m in _mathieu_in(table(a), Sidedness.TWO_SIDED):
                rad = set(radical(m))
                assert _radical_of_set(a, rad) == rad, f"radical not idempotent on {m.basis}"

        rec.run("radical_of_radical_fixed", entry.name, radical_idempotence)

        def radical_vs_max_ideal(a=a):
            for m in _mathieu_in(table(a), Sidedness.TWO_SIDED):
                assert radical(m) == radical(facts.maxima(m)[Sidedness.TWO_SIDED]), (
                    f"radical differs from max-ideal radical on {m.basis}"
                )

        rec.run("radical_matches_max_ideal", entry.name, radical_vs_max_ideal)

        def sandwich(a=a):
            # everything between a Mathieu subspace and its maximum ideal is
            # again Mathieu, with the same radical
            verdicts = table(a)
            for variant in (Sidedness.TWO_SIDED, Sidedness.LEFT):
                for m in _mathieu_in(verdicts, variant):
                    ideal = facts.maxima(m)[variant]
                    rad_ideal = radical(ideal)
                    for v, by_variant in verdicts.items():
                        if not (m.contains(v) and v.contains(ideal)):
                            continue
                        assert by_variant[variant].is_mathieu, (
                            f"{v.basis} sandwiched in {m.basis} failed"
                        )
                        assert radical(v) == rad_ideal, f"{v.basis}: radical moved"

        rec.run("sandwich_between_max_ideal_and_mathieu", entry.name, sandwich)

        def unit_blocks(a=a):
            for v, by_variant in table(a).items():
                if v.is_full or not v.contains_unit():
                    continue
                for verdict in by_variant.values():
                    assert not verdict.is_mathieu, f"unit-bearing {v.basis} passed"

        rec.run("unit_in_proper_subspace_refutes", entry.name, unit_blocks)

        def intersections(a=a):
            verdicts = table(a)
            for variant in ALL_VARIANTS:
                family = _mathieu_in(verdicts, variant)
                pairs = [
                    (x, y) for i, x in enumerate(family) for y in family[i + 1 :]
                ]
                if len(pairs) > 400:
                    pairs = rng.sample(pairs, 400)
                for x, y in pairs:
                    meet = verdicts.get(x.intersect(y))
                    assert meet is not None and meet[variant].is_mathieu, (
                        f"intersection of {x.basis} and {y.basis} failed ({variant.value})"
                    )

        rec.run(
            "intersections_stay_mathieu", f"{entry.name}/seed={seed}", intersections
        )

    # homomorphism pull-backs
    cat = catalog()
    f2, f3 = GF(2), GF(3)
    homs = [
        (
            "F2[t]/t3->F2[t]/t2",
            AlgebraHom(
                cat["F2[t]/t3"].algebra,
                cat["F2[t]/t2"].algebra,
                [[1, 0, 0], [0, 1, 0]],
            ),
        ),
        ("F2+F2->F2 (first)", AlgebraHom(cat["F2+F2"].algebra, cat["F2"].algebra, [[1, 0]])),
        ("F2+F2->F2 (second)", AlgebraHom(cat["F2+F2"].algebra, cat["F2"].algebra, [[0, 1]])),
        ("F3+F3->F3 (first)", AlgebraHom(cat["F3+F3"].algebra, cat["F3"].algebra, [[1, 0]])),
        ("F4 frobenius", AlgebraHom(cat["F4"].algebra, cat["F4"].algebra, [[1, 1], [0, 1]])),
        (
            "F3[t]/t2-t->F3 (t->0)",
            AlgebraHom(cat["F3[t]/t2-t"].algebra, cat["F3"].algebra, [[1, 0]]),
        ),
        (
            "F3[t]/t2-t->F3 (t->1)",
            AlgebraHom(cat["F3[t]/t2-t"].algebra, cat["F3"].algebra, [[1, 1]]),
        ),
        ("F2->F2[t]/t2 (scalars)", AlgebraHom(cat["F2"].algebra, cat["F2[t]/t2"].algebra, [[1], [0]])),
    ]
    for name, hom in homs:

        def pullbacks(hom=hom):
            upstairs = table(hom.domain)
            for m, by_variant in table(hom.codomain).items():
                for variant in ALL_VARIANTS:
                    if by_variant[variant].is_mathieu:
                        back = upstairs.get(preimage(hom, m))
                        assert back is not None and back[variant].is_mathieu, (
                            f"preimage of {m.basis} failed ({variant.value})"
                        )

        rec.run("preimages_stay_mathieu", name, pullbacks)

    # quotient transfer
    quotient_cases = [
        ("F2[t]/t3 by (t^2)", cat["F2[t]/t3"].algebra, [[0, 0, 1]]),
        ("F2[t]/t3 by (t)", cat["F2[t]/t3"].algebra, [[0, 1, 0], [0, 0, 1]]),
        ("F2+F2 by first factor", cat["F2+F2"].algebra, [[1, 0]]),
        ("M2(F2) by zero", cat["M2(F2)"].algebra, []),
    ]
    for name, alg, ideal_rows in quotient_cases:

        def transfer(alg=alg, ideal_rows=ideal_rows):
            ideal = span(alg, ideal_rows)
            quotient, proj = quotient_algebra(alg, ideal)
            for m, ups in table(alg).items():
                if not m.contains(ideal):
                    continue
                downs = facts.verdicts(image(proj, m))
                for variant in ALL_VARIANTS:
                    up, down = ups[variant].is_mathieu, downs[variant].is_mathieu
                    assert up == down, f"{m.basis}: {up} vs {down} ({variant.value})"

        rec.run("quotient_transfer", name, transfer)

    # duality through the opposite algebra
    for name in ["M2(F2)", "M2(F3)", "F2[t]/t3"]:

        def duality(name=name):
            a = catalog()[name].algebra
            op = opposite(a)
            opposites = table(op)
            for v, lhs_all in table(a).items():
                rhs_all = opposites[Subspace.span(op, v.basis)]
                for this, that in [
                    (Sidedness.LEFT, Sidedness.RIGHT),
                    (Sidedness.RIGHT, Sidedness.LEFT),
                    (Sidedness.TWO_SIDED, Sidedness.TWO_SIDED),
                    (Sidedness.PRE_TWO_SIDED, Sidedness.PRE_TWO_SIDED),
                ]:
                    lhs, rhs = lhs_all[this].is_mathieu, rhs_all[that].is_mathieu
                    assert lhs == rhs, f"{v.basis}: {this.value} vs {that.value}"

        rec.run("left_right_duality", name, duality)

    # commutative criterion
    for entry in small:
        if "commutative" not in entry.tags:
            continue

        def commutative_rule(a=entry.algebra):
            for v, by_variant in table(a).items():
                lhs = _radical_is_ideal(a, set(radical(v)))
                rhs = by_variant[Sidedness.TWO_SIDED].is_mathieu
                assert lhs == rhs, f"{v.basis}: {lhs} vs {rhs}"

        rec.run("commutative_radical_rule", entry.name, commutative_rule)

    # radical_enumerate decides every element twice, by the fixed window
    # a^d .. a^(2d-1) and by the minimal-polynomial window, and raises on
    # any disagreement; on the small algebras both are also compared with
    # the hash-detected power cycle
    rng_window = random.Random(seed)
    f23 = list(catalog_over({2, 3}).values())

    def window_small():
        for entry in f23:
            if entry.algebra.dim <= 3:
                for v in all_subspaces(entry.algebra):
                    members = set(v.coord_vectors())
                    assert radical(v) == sorted(_radical_of_set(entry.algebra, members))

    rec.run("window_equals_cycle_exhaustive", "dim<=3 catalog algebras", window_small)

    def window_random():
        count = 0
        while count < 200:
            for entry in f23:
                v = random_subspace(entry.algebra, rng_window)
                radical_enumerate(v, max_scan)
                count += 1
                if count >= 200:
                    break

    rec.run(
        "window_equals_cycle_random",
        f"200 subspaces/seed={seed}",
        window_random,
    )

    return SuiteReport("radical_laws", seed, rec.checks)


def _suite_idempotent_criterion(seed: int, max_scan: int) -> SuiteReport:
    rec = _Recorder("idempotent_criterion")
    cat = catalog()
    facts = _fact_table(max_scan)
    table, radical = facts.table, facts.radical

    # decision agreement with the definition-level oracle: exhaustive over
    # every subspace of every dim <= 4 catalog algebra over F_2/F_3
    for entry in _small_f23_entries():

        def agreement(a=entry.algebra):
            for v, by_variant in table(a).items():
                oracle = oracle_all_variants(v, max_scan)
                for variant, verdict in by_variant.items():
                    d, o = verdict.is_mathieu, oracle[variant]
                    assert d == o, f"{v.basis} {variant.value}: decide={d} oracle={o}"

        rec.run("oracle_agreement", entry.name, agreement)

    rng = random.Random(seed)

    def agreement_sampled_dim9(a=cat["M3(F2)"].algebra):
        for _ in range(12):
            rows = [
                [rng.randrange(2) for _ in range(a.dim)]
                for _ in range(rng.randrange(5))
            ]
            v = span(a, rows)
            verdicts, oracle = facts.verdicts(v), oracle_all_variants(v, max_scan)
            for variant, verdict in verdicts.items():
                d, o = verdict.is_mathieu, oracle[variant]
                assert d == o, f"{v.basis} {variant.value}: decide={d} oracle={o}"

    rec.run(
        "oracle_agreement_sampled", f"M3(F2) dims<=4/seed={seed}", agreement_sampled_dim9
    )

    # no nontrivial idempotent in V <=> algebraic radical splits nilpotent/invertible
    for name in ["F2+F2", "F2[t]/t3", "F4", "M2(F2)", "F3+F3"]:

        def tame_radical(a=cat[name].algebra):
            for v in all_subspaces(a):
                nontrivial = [e for e in facts.idempotents(v) if any(e) and e != a.unit]
                rad = [Element(a, x) for x in radical(v)]
                tame = all(
                    classify_element(x).nilpotent or classify_element(x).invertible
                    for x in rad
                )
                assert tame == (not nontrivial), (
                    f"{v.basis}: tame={tame}, idempotents={nontrivial}"
                )

        rec.run("idempotent_free_iff_tame_radical", name, tame_radical)

    # local algebras: every element nilpotent or invertible, and conversely
    for entry in catalog_over({2, 3}).values():
        if entry.algebra.dim > 4:
            continue

        def dichotomy(entry=entry):
            a = entry.algebra
            all_tame = all(
                classify_element(x).nilpotent or classify_element(x).invertible
                for x in a.elements()
            )
            assert all_tame == ("local" in entry.tags), entry.name

        rec.run("local_dichotomy", entry.name, dichotomy)

    # when no nonzero sided ideal fits inside V, Mathieu <=> idempotent-free
    for entry in _small_f23_entries():

        def no_ideal_criterion(a=entry.algebra):
            for v, by_variant in table(a).items():
                free = all(not any(e) for e in facts.idempotents(v))
                for variant, ideal in facts.maxima(v).items():
                    if not ideal.is_zero:
                        continue
                    verdict = by_variant[variant].is_mathieu
                    assert free == verdict, f"{v.basis} {variant.value}"

        rec.run("zero_max_ideal_criterion", entry.name, no_ideal_criterion)

    # proper Mathieu subspaces of the simple catalog algebras have nilpotent
    # radicals, and all of their subspaces are again Mathieu: none of the
    # subspaces that fail lies inside one
    for name in ["M2(F2)", "M2(F3)", "opp(M2(F2))"]:

        def simple_radicals(a=cat[name].algebra):
            nil = {
                x.coords
                for x in a.elements()
                if classify_element(x).nilpotent
            }
            verdicts, two = table(a), Sidedness.TWO_SIDED
            failing = [v for v, by_variant in verdicts.items() if not by_variant[two].is_mathieu]
            for m in _mathieu_in(verdicts, two):
                if m.is_full:
                    continue
                assert set(radical(m)) == nil, f"{m.basis}: radical is not the nilpotent cone"
                for v in failing:
                    assert not m.contains(v), f"{m.basis} contains {v.basis}, not Mathieu"

        rec.run("simple_algebra_radicals", name, simple_radicals)

    return SuiteReport("idempotent_criterion", seed, rec.checks)


CODIM1_EXPECTED = {
    (2, 2): 0,
    (2, 3): 1,
    (2, 5): 1,
    (3, 2): 0,
    (3, 3): 0,
    (3, 5): 1,
}


def _suite_codim1(seed: int, max_scan: int) -> SuiteReport:
    rec = _Recorder("codim1")
    for (n, q), expected in CODIM1_EXPECTED.items():

        def check(n=n, q=q, expected=expected):
            report = classify_codim1(n, q, max_scan)
            for variant in ALL_VARIANTS:
                got = report.per_theta[variant.value]
                assert got == expected, f"{variant.value}: {got} != {expected}"
                if expected:
                    reps = report.representatives[variant.value]
                    ident = matrix_algebra(n, GF(q)).one()
                    assert reps == [[GF(q).format(c) for c in ident.coords]]
            return report.to_dict()

        rec.run("codim1_census", f"n={n},q={q}", check)
    return SuiteReport("codim1", seed, rec.checks)


def _suite_lines(seed: int, max_scan: int) -> SuiteReport:
    rec = _Recorder("lines")
    for n, q in [(2, 2), (2, 3)]:

        def census(n=n, q=q):
            report = classify_lines(n, q, max_scan)
            for variant in ALL_VARIANTS:
                assert (
                    report.per_theta[variant.value]
                    == report.total_lines - report.quasi_idempotent_lines
                )
            return report.to_dict()

        rec.run("line_census", f"n={n},q={q}", census)

        def oracle_per_line(n=n, q=q):
            a = matrix_algebra(n, GF(q))
            for line in enumerate_subspaces(a, 1):
                gen = Element(a, line.basis[0])
                for variant, brute in oracle_all_variants(line, max_scan).items():
                    rule = line_is_mathieu(gen, variant)
                    assert rule == brute, f"{line.basis} {variant.value}"

        rec.run("line_oracle_agreement", f"n={n},q={q}", oracle_per_line)
    return SuiteReport("lines", seed, rec.checks)


QUASI_STABLE_EXPECTED = {
    "F4": True,
    "F2+F2": True,
    "F2[t]/t3": True,
    "F9": True,
    "F3+F3": True,
    "M2(F2)": False,
}

STABLE_EXPECTED = {
    "F2": True,
    "F3": True,
    "F2+F2": True,
    "F3+F3": False,
    "F4": False,
    "F2[t]/t2": False,
    "M2(F2)": False,
}


def _suite_quasi_stable(seed: int, max_scan: int) -> SuiteReport:
    rec = _Recorder("quasi_stable")
    cat = catalog()
    for name, expected in QUASI_STABLE_EXPECTED.items():

        def check(name=name, expected=expected):
            assert is_quasi_stable(cat[name].algebra, max_scan) == expected

        rec.run("expected_verdicts", name, check)

    for entry in catalog().values():
        if entry.algebra.dim > 2 or not entry.algebra.field.is_finite:
            continue

        def definitional(entry=entry):
            a = entry.algebra
            by_definition = all(
                oracle_mathieu(v, variant, max_scan)
                for v in all_subspaces(a)
                if not v.contains_unit()
                for variant in ALL_VARIANTS
            )
            assert is_quasi_stable(a, max_scan) == by_definition

        rec.run("definition_agreement", entry.name, definitional)
    return SuiteReport("quasi_stable", seed, rec.checks)


def _suite_stable(seed: int, max_scan: int) -> SuiteReport:
    rec = _Recorder("stable")
    cat = catalog()
    for name, expected in STABLE_EXPECTED.items():

        def check(name=name, expected=expected):
            assert is_stable(cat[name].algebra, max_scan) == expected

        rec.run("expected_verdicts", name, check)

    for entry in catalog().values():
        if entry.algebra.dim > 2:
            continue

        def definitional(entry=entry):
            a = entry.algebra
            by_definition = all(
                is_theta_ideal(v, Sidedness.TWO_SIDED)
                for v in all_subspaces(a)
                if not v.contains_unit()
            )
            assert is_stable(a, max_scan) == by_definition

        rec.run("definition_agreement", entry.name, definitional)
    return SuiteReport("stable", seed, rec.checks)


def _suite_strongly_simple(seed: int, max_scan: int) -> SuiteReport:
    rec = _Recorder("strongly_simple")
    for entry in [*catalog_over({2, 3}).values(), catalog()["F5"]]:
        a = entry.algebra
        if a.dim == 1:

            def trivial_case(a=a):
                try:
                    find_nontrivial_mathieu(a, max_scan)
                except OnlyTrivial:
                    return None
                raise AssertionError("dimension-1 algebra returned a subspace")

            rec.run("only_trivial_in_dim_one", entry.name, trivial_case)
        else:

            def finds(a=a):
                found = find_nontrivial_mathieu(a, max_scan)
                assert 0 < found.dim < a.dim
                assert decide_mathieu(found, Sidedness.TWO_SIDED, max_scan).is_mathieu
                return [list(row) for row in found.basis]

            rec.run("exists_nontrivial", entry.name, finds)
    return SuiteReport("strongly_simple", seed, rec.checks)


@dataclass
class LatticeReport:
    """Exhaustive Mathieu-subspace lattice of one small algebra."""

    algebra: str
    variant: str
    total_subspaces: int
    mathieu: list[Subspace]
    maximal_nontrivial: list[Subspace]
    minimal_nonzero: list[Subspace]

    def to_dict(self) -> dict:
        def render(subs):
            return [[list(map(str, row)) for row in s.basis] for s in subs]

        return {
            "algebra": self.algebra,
            "theta": self.variant,
            "total_subspaces": self.total_subspaces,
            "mathieu_count": len(self.mathieu),
            "maximal_nontrivial": render(self.maximal_nontrivial),
            "minimal_nonzero": render(self.minimal_nonzero),
        }


def enumerate_all_mathieu(
    a: Algebra, variant: Sidedness, max_scan: int = MAX_SCAN_DEFAULT
) -> LatticeReport:
    """Exhaustive sweep of every subspace; reports the Mathieu lattice extremes.

    Priced by its subspace count: more than 212, the count of F_3^4, raises
    ``TooLarge`` before any subspace is built, so every algebra of dimension
    <= 4 over F_2 or F_3 is swept.  Verifies that a maximal nontrivial
    Mathieu subspace exists whenever dim >= 2, and that in a matrix algebra
    the minimal nonzero ones are exactly the lines with non-quasi-idempotent
    generators.
    """
    variant = Sidedness.parse(variant)
    return _lattice(a, variant, lambda v: {variant: decide_mathieu(v, variant, max_scan)})


def _lattice(a: Algebra, variant: Sidedness, verdicts: Callable) -> LatticeReport:
    """The sweep of :func:`enumerate_all_mathieu`, reading the verdict on
    each subspace v from ``verdicts(v)``, a map from variants to verdicts."""
    subspaces = list(all_subspaces(a, max_count=212))
    mathieu = [v for v in subspaces if verdicts(v)[variant].is_mathieu]
    nontrivial = [v for v in mathieu if 0 < v.dim < a.dim]
    maximal = [
        v
        for v in nontrivial
        if not any(w is not v and w.contains(v) for w in nontrivial)
    ]
    nonzero = [v for v in mathieu if v.dim > 0]
    minimal = [
        v
        for v in nonzero
        if not any(w is not v and 0 < w.dim < v.dim and v.contains(w) for w in nonzero)
    ]
    if a.dim >= 2 and not maximal:
        raise ConsistencyError(f"{a.label}: no maximal nontrivial Mathieu subspace")
    if a.matrix_size is not None and a.matrix_size >= 2:
        expected = {
            line.basis
            for line in enumerate_subspaces(a, 1)
            if not is_quasi_idempotent(Element(a, line.basis[0]))
        }
        got = {v.basis for v in minimal}
        if got != expected:
            raise ConsistencyError(
                f"{a.label} ({variant.value}): minimal nonzero Mathieu subspaces "
                f"differ from the non-quasi-idempotent lines"
            )
    return LatticeReport(
        a.label, variant.value, len(subspaces), mathieu, maximal, minimal
    )


def _suite_closure_laws(seed: int, max_scan: int) -> SuiteReport:
    rec = _Recorder("closure_laws")
    verdicts = _fact_table(max_scan).verdicts
    for entry in _small_f23_entries():
        a = entry.algebra
        for variant in ALL_VARIANTS:

            def extremes(a=a, variant=variant):
                return _lattice(a, variant, verdicts).to_dict()

            rec.run("lattice_extremes", f"{entry.name}/{variant.value}", extremes)

    def maximal_census(a=catalog()["M2(F2)"].algebra):
        report = _lattice(a, Sidedness.TWO_SIDED, verdicts)
        trace_zero = span(a, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
        off_plane = [
            w
            for w in report.maximal_nontrivial
            if w != trace_zero and any(not trace_zero.member_coords(r) for r in w.basis)
        ]
        assert off_plane, "no maximal Mathieu subspace outside the trace plane"
        return {
            "maximal_count": len(report.maximal_nontrivial),
            "off_trace_plane": len(off_plane),
        }

    rec.run("maximal_census_off_trace_plane", "M2(F2)/two_sided", maximal_census)
    return SuiteReport("closure_laws", seed, rec.checks)


_SUITES = {
    "radical_laws": _suite_radical_laws,
    "idempotent_criterion": _suite_idempotent_criterion,
    "codim1": _suite_codim1,
    "lines": _suite_lines,
    "quasi_stable": _suite_quasi_stable,
    "stable": _suite_stable,
    "strongly_simple": _suite_strongly_simple,
    "closure_laws": _suite_closure_laws,
}


def run_suite(
    name: str, seed: int = DEFAULT_SEED, max_scan: int = MAX_SCAN_DEFAULT
) -> SuiteReport:
    """Run one named verification suite; deterministic for a fixed seed.

    Checks are reported sorted by (check, instance) so the assembled report
    does not depend on execution order.
    """
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    report = _SUITES[name](seed, max_scan)
    report.checks.sort(key=lambda c: (c.check, c.instance))
    return report
