"""The vectorized kernels against the pure-Python reference arithmetic."""

import ast
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mathieu_kit import _scan
from mathieu_kit.algebra import (
    Algebra,
    direct_sum,
    elem_power,
    field_algebra,
    matrix_algebra,
    minimal_polynomial,
    opposite,
    poly_quotient_algebra,
    power_cycle,
)
from mathieu_kit.errors import ConsistencyError, TooLarge
from mathieu_kit.fields import GF, Poly
from mathieu_kit.mathieu import (
    _cycle_radical_member,
    _idempotents_of,
    decide_all_variants,
    decide_mathieu,
    is_quasi_stable,
    radical_enumerate,
    radical_member,
)
from mathieu_kit.experiments import catalog_over
from mathieu_kit.matrixlab import trace_orthogonal
from mathieu_kit.subspace import Sidedness, Subspace, enumerate_subspaces, span

F2, F3, F5 = GF(2), GF(3), GF(5)

SRC = str(Path(__file__).resolve().parents[1] / "src")

ALGEBRAS = [
    matrix_algebra(2, F3),
    matrix_algebra(2, F5),
    matrix_algebra(3, F2),
    opposite(matrix_algebra(2, F2)),
    poly_quotient_algebra(Poly.from_ints(F3, [1, 0, 1])),
    direct_sum(field_algebra(F5), matrix_algebra(2, F5)),
]


def test_coeff_block_matches_itertools_product():
    for q, r in [(2, 4), (3, 3), (5, 2)]:
        rows = _scan.coeff_block(q, r, 0, q**r)
        expected = list(itertools.product(range(q), repeat=r))
        assert [tuple(int(c) for c in row) for row in rows] == expected
    # block slicing stitches back together
    rows = np.vstack(
        [_scan.coeff_block(3, 3, s, min(s + 7, 27)) for s in range(0, 27, 7)]
    )
    assert rows.tolist() == _scan.coeff_block(3, 3, 0, 27).tolist()


MUL_ALGEBRAS = ALGEBRAS + [
    # constants other than 1, at the largest prime the tests use
    poly_quotient_algebra(Poly.from_ints(GF(65537), [65537 - 3, 0, 1])),
    # 235 of 729 constants nonzero, several per output column
    poly_quotient_algebra(Poly.from_ints(F2, [1, 1, 0, 1, 1, 0, 0, 1, 0, 1])),
]


@pytest.mark.parametrize("alg", MUL_ALGEBRAS, ids=lambda a: a.label)
def test_batch_mul_matches_reference_products(alg):
    rng = random.Random(MUL_ALGEBRAS.index(alg))
    p = alg.field.order
    xs, ys = [], []
    for _ in range(50):
        xs.append([rng.randrange(p) for _ in range(alg.dim)])
        ys.append([rng.randrange(p) for _ in range(alg.dim)])
    got = _scan.batch_mul(alg, np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64))
    for x, y, z in zip(xs, ys, got.tolist()):
        assert tuple(z) == alg._mul_coords(tuple(x), tuple(y))


def test_batch_mul_peak_memory_stays_within_a_few_blocks():
    # numpy reports its buffers to tracemalloc; a (B, d*d) intermediate
    # alone would be 42 MB here
    alg = matrix_algebra(3, F5)
    rows, d = 1 << 16, alg.dim
    rng = np.random.default_rng(0)
    x, y = rng.integers(0, 5, size=(2, rows, d))
    tracemalloc.start()
    try:
        _scan.batch_mul(alg, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * rows * d * 8


#: (n, q) of the matrix algebras whose constructed idempotents are compared
#: with a scan of every element
SCANNED_MATRIX_ALGEBRAS = [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (3, 5), (4, 2)]


def _fresh(alg):
    """A copy of ``alg`` with nothing cached on it."""
    return Algebra(alg.field, alg.table, alg.unit, label=alg.label, check=False)


def _all_idempotents(alg, max_scan=10**7):
    """The idempotents of the whole of ``alg``, through the one idempotent source."""
    return _scan.idempotents(alg, alg._basis, [], max_scan)


@pytest.mark.parametrize("n,q", SCANNED_MATRIX_ALGEBRAS)
def test_constructed_idempotents_match_full_scan(n, q):
    alg = matrix_algebra(n, GF(q))
    full_basis = [alg._basis_coords(i) for i in range(alg.dim)]
    scanned = _scan.idempotent_coords(alg, full_basis)
    built = _all_idempotents(alg)
    assert alg._idempotents.dtype == _scan.exact_dtype(q - 1) == np.int8
    assert built == sorted(scanned)
    assert len(built) == _scan.matrix_idempotent_count(n, q)


def test_listed_idempotents_are_stored_signed():
    # residues up to 130 need int16: an unsigned store would be uint8, and
    # uint64 mixed with int64 promotes to float64.  The upper triangular
    # matrices of M_2(F_131) hold 0, 1, [[1, b], [0, 0]] and [[0, b], [0, 1]]
    alg = matrix_algebra(2, GF(131))
    upper = span(alg, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    got = _idempotents_of(upper, 10**7)
    assert alg._idempotents.dtype == np.int16
    want = [(0, 0, 0, 0), (1, 0, 0, 1)]
    want += [(1, b, 0, 0) for b in range(131)] + [(0, b, 0, 1) for b in range(131)]
    assert got == sorted(want)


def test_constructed_idempotents_have_the_formula_count():
    # M_4(F_3) is too big to scan (3^16 elements); the build's own checks
    # (squares, distinct rows, count) still run.  The budget counts the
    # 3^16 vectors of the whole algebra although none is scanned
    alg = matrix_algebra(4, F3)
    built = _all_idempotents(alg, max_scan=3**16)
    assert len(built) == _scan.matrix_idempotent_count(4, 3) == 1 + 40 * 27 * 2 + 130 * 81 + 1
    assert alg._idempotents.tolist() == [list(e) for e in built]


IDEMPOTENT_ALGEBRAS = ALGEBRAS[:4] + [
    matrix_algebra(n, GF(q))
    for n, q in SCANNED_MATRIX_ALGEBRAS
    if (n, q) not in {(2, 3), (2, 5), (3, 2)}  # already in ALGEBRAS
]


@pytest.mark.parametrize("alg", IDEMPOTENT_ALGEBRAS, ids=lambda a: a.label)
def test_idempotent_scan_matches_bruteforce(monkeypatch, alg):
    # one seeded subspace of every dimension, smallest first: each subspace
    # is scanned until listing the algebra's idempotents costs no more than
    # its scan (the formula count for matrix algebras, q^dim for the others,
    # such as opp(M_2(F_2))), and filtered from then on
    alg = _fresh(alg)
    rng = random.Random(29)
    p, d, n = alg.field.order, alg.dim, alg.matrix_size
    cost = _scan.matrix_idempotent_count(n, p) if n is not None else p**d
    subspaces, expected = [], []
    for r in range(d + 1):
        v = span(alg, [])
        while v.dim < r:
            v = v + span(alg, [[rng.randrange(p) for _ in range(d)]])
        scanned = sorted(_scan.idempotent_coords(alg, v.basis))
        if p**r <= 256:
            slow = [x.coords for x in v.elements() if (x * x).coords == x.coords]
            assert scanned == sorted(slow)
        built = alg._idempotents is not None or cost <= p**r
        assert _idempotents_of(v, max_scan=10**7) == scanned
        assert (alg._idempotents is not None) == built
        subspaces.append(v.basis)
        expected.append(scanned)
    # the list is built by now (at r = dim at the latest), and every
    # subspace is decided again by the filter alone

    def no_scan(*args, **kwargs):
        raise AssertionError("idempotent scan after the list was built")

    monkeypatch.setattr(_scan, "idempotent_coords", no_scan)
    refiltered = [_idempotents_of(span(alg, basis), max_scan=10**7) for basis in subspaces]
    assert refiltered == expected


def _wrong_entry(rows):
    rows = rows.copy()
    rows[len(rows) // 2, 0] += 1
    return rows


IDEMPOTENT_FAULTS = {"wrong_entry": _wrong_entry, "dropped_row": lambda rows: rows[1:]}


@pytest.mark.parametrize("fault", sorted(IDEMPOTENT_FAULTS))
@pytest.mark.parametrize("n,q", [(2, 3), (3, 5)])
def test_idempotent_build_catches_a_faulty_construction(monkeypatch, fault, n, q):
    # M_3(F_5) is above POWER_CACHE_LIMIT, so only the build's structural
    # checks stand between the fault and the verdicts
    construct = _scan.construct_matrix_idempotents
    monkeypatch.setattr(
        _scan,
        "construct_matrix_idempotents",
        lambda n, p: IDEMPOTENT_FAULTS[fault](construct(n, p)),
    )
    alg = matrix_algebra(n, GF(q))
    with pytest.raises(ConsistencyError):
        decide_mathieu(trace_orthogonal(alg.one()), Sidedness.TWO_SIDED)
    assert alg._idempotents is None


def test_census_hyperplane_is_decided_without_a_scan(monkeypatch):
    def no_scan(*args):
        raise AssertionError("idempotent scan on the filter route")

    monkeypatch.setattr(_scan, "idempotent_coords", no_scan)
    alg = matrix_algebra(3, F5)
    v = trace_orthogonal(alg.one())
    # the trace of an idempotent is its rank mod 5, so only 0 has trace 0
    verdicts = decide_all_variants(v)
    assert all(verdict.is_mathieu for verdict in verdicts.values())
    assert _idempotents_of(v, max_scan=10**7) == [(0,) * 9]
    assert len(alg._idempotents) == 1552


def test_refusals_and_small_subspaces_build_nothing():
    alg = matrix_algebra(3, F5)
    v = trace_orthogonal(alg.one())
    with pytest.raises(TooLarge):
        decide_mathieu(v, Sidedness.LEFT, max_scan=5**8 - 1)
    assert alg._idempotents is None
    # a line of M_4(F_7) has 7 vectors; the algebra has 7,117,252 idempotents
    alg = matrix_algebra(4, GF(7))
    assert _scan.matrix_idempotent_count(4, 7) == 7_117_252
    line = span(alg, [[1, 2] + [0] * 13 + [3]])
    assert decide_mathieu(line, Sidedness.TWO_SIDED).is_mathieu
    assert alg._idempotents is None
    # F_65537[t]/(t^2) has 65537^2 elements, past the default budget
    alg = poly_quotient_algebra(Poly.from_ints(GF(65537), [0, 0, 1]))
    with pytest.raises(TooLarge):
        is_quasi_stable(alg)
    assert alg._idempotents is None


def element_coords(alg, index):
    """Coordinates of the element at ``index`` in lexicographic order, which
    is how power chunks store each power."""
    p, d = alg.field.order, alg.dim
    return tuple(int(index) // p ** (d - 1 - i) % p for i in range(d))


def _check_power_data(alg, indices):
    """Chunk data of the given elements against the pure-Python reference."""
    chunks = list(_scan.power_chunks(alg, max_scan=10**7))
    horizon = 2 * alg.dim - 1
    for index in indices:
        chunk = next(c for c in chunks if c.start <= index < c.start + c.count)
        b = index - chunk.start
        x = alg.element(element_coords(alg, index))
        data = minimal_polynomial(x)
        k, hdeg = data.k, data.h.degree
        assert (k, hdeg) == (int(chunk.k[b]), int(chunk.hdeg[b]))
        # the fixed window a^d .. a^(2d-1) lies on the tail cycle
        assert power_cycle(x).preperiod <= max(k, 1) <= alg.dim
        powers = [x]  # powers[m - 1] = x^m
        while len(powers) < horizon:
            powers.append(powers[-1] * x)
        assert powers[-1] == elem_power(x, horizon)
        stored = chunk.rows[b * horizon : (b + 1) * horizon]
        assert [element_coords(alg, i) for i in stored] == [y.coords for y in powers]


def test_power_chunks_match_elem_power_and_cycles():
    # exhaustive where the algebra is small, F_3[t]/(t^3) for k >= 2
    for alg in ALGEBRAS[:5] + [poly_quotient_algebra(Poly.from_ints(F3, [0, 0, 0, 1]))]:
        _check_power_data(alg, range(alg.size))
    # seeded samples of the larger ones, including dimension 2 with p >= 128
    rng = random.Random(3)
    for alg in (ALGEBRAS[5], direct_sum(field_algebra(GF(131)), field_algebra(GF(131)))):
        _check_power_data(alg, sorted(rng.sample(range(alg.size), 200)))


@pytest.mark.parametrize("p", [2, 5, 131, 65537])
def test_batch_rank_matches_sympy(p):
    from sympy import GF as SymGF
    from sympy.polys.matrices import DomainMatrix

    domain = SymGF(p)
    rng = np.random.default_rng(p)
    for shape in [(30, 4, 4), (30, 3, 5), (30, 5, 3), (10, 1, 1)]:
        stack = rng.integers(0, p, size=shape)
        stack[0] = 0  # zero block
        stack[1] = np.outer(stack[1, :, 0], stack[1, 0]) % p  # rank <= 1
        stack[2, -1] = (stack[2, 0] + 2 * stack[2, 1 % shape[1]]) % p  # dependent row
        got = _scan.batch_rank(stack, p)
        want = [
            DomainMatrix(
                [[domain(int(v)) for v in row] for row in block], block.shape, domain
            ).rank()
            for block in stack
        ]
        assert got.tolist() == want


KERNEL_FAULTS = {
    "batch_mul": lambda f: lambda a, x, y: (f(a, x, y) + 1) % a.field.order,
    "batch_rank": lambda f: lambda stack, p: f(stack, p) + 1,
}


@pytest.mark.parametrize("kernel", sorted(KERNEL_FAULTS))
def test_build_replay_catches_a_faulty_kernel(monkeypatch, kernel):
    monkeypatch.setattr(_scan, kernel, KERNEL_FAULTS[kernel](getattr(_scan, kernel)))
    alg = matrix_algebra(2, F3)
    with pytest.raises(ConsistencyError):
        list(_scan.power_chunks(alg, max_scan=10**7))
    assert alg._power_data is None


SLOW_CYCLE_CHILD = """
import resource, sys
cap = 1536 << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from mathieu_kit.algebra import field_algebra, poly_quotient_algebra
from mathieu_kit.errors import TooLarge
from mathieu_kit.fields import GF, Poly
from mathieu_kit.mathieu import radical_enumerate
from mathieu_kit.subspace import Subspace
zero = Subspace.zero({algebra})
if {refuse_at} is not None:
    try:
        radical_enumerate(zero, max_scan={refuse_at})
    except TooLarge as exc:
        print("TooLarge", exc)
print([x.coords for x in radical_enumerate(zero)])
print("peak_rss_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

#: algebra: (its radical of zero, a budget between its size and the
#: size * (2d-1) power evaluations of its power table, or None)
SLOW_CYCLES = {
    # periods up to 17,030; 17,161 elements, 51,483 powers
    "poly_quotient_algebra(Poly.from_ints(GF(131), [0, 0, 1]))": (
        [(0, b) for b in range(131)], 2 * 131**2
    ),
    # periods up to 65,536
    "field_algebra(GF(65537))": ([(0,)], None),
}


@pytest.mark.parametrize("algebra", list(SLOW_CYCLES))
def test_slow_power_cycles_are_refused_before_allocating(algebra):
    # a power table holds a^1 .. a^(2d-1) however long the power cycles
    # are, so the default budget answers; a budget below its size * (2d-1)
    # entries is refused before any power is computed.  The child's address
    # space is capped
    radical, refuse_at = SLOW_CYCLES[algebra]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SLOW_CYCLE_CHILD.format(algebra=algebra, refuse_at=refuse_at)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    if refuse_at is not None:
        assert lines.pop(0).startswith("TooLarge power scan of"), done.stdout
    assert ast.literal_eval(lines[0]) == radical
    assert int(lines[1].split()[1]) < 1 << 20  # KiB: under 1 GiB


@pytest.mark.parametrize("p", [127, 131, 257])
def test_power_chunks_hold_residues_of_large_primes(p):
    alg = field_algebra(GF(p))
    chunks = list(_scan.power_chunks(alg, max_scan=10**7))
    for chunk in chunks:  # d = 1: the one stored power of x is x
        for b in range(chunk.count):
            x = alg.element(element_coords(alg, chunk.rows[b]))
            assert x.coords == element_coords(alg, chunk.start + b)
    zero = Subspace.zero(alg)
    assert [x.coords for x in radical_enumerate(zero)] == [(0,)]


def test_streamed_power_chunks_match_cached(monkeypatch):
    cached = list(_scan.power_chunks(matrix_algebra(2, F5), max_scan=10**7))
    monkeypatch.setattr(_scan, "POWER_CACHE_LIMIT", 0)
    alg = matrix_algebra(2, F5)
    streamed = list(_scan.power_chunks(alg, max_scan=10**7))
    assert alg._power_data is None
    for name in ("k", "hdeg", "rows"):
        assert np.array_equal(
            np.concatenate([getattr(c, name) for c in cached]),
            np.concatenate([getattr(c, name) for c in streamed]),
        )


STORAGE = pytest.mark.parametrize("streamed", [False, True], ids=["cached", "streamed"])


@STORAGE
def test_radical_enumerate_matches_the_definition(monkeypatch, streamed):
    # every subspace of every catalog algebra over F_2 or F_3 of dimension
    # at most 3, against the pure-Python window definition and the
    # hash-detected power cycle
    if streamed:
        monkeypatch.setattr(_scan, "POWER_CACHE_LIMIT", 0)
    algebras = [e.algebra for e in catalog_over({2, 3}).values() if e.algebra.dim <= 3]
    assert len(algebras) == 9
    for shared in algebras:
        alg = Algebra(shared.field, shared.table, shared.unit, shared.label)  # no cache yet
        for r in range(alg.dim + 1):
            for v in enumerate_subspaces(alg, r):
                want = [x.coords for x in alg.elements() if radical_member(v, x)]
                got = [x.coords for x in radical_enumerate(v)]
                assert got == want, (alg.label, v.basis)
                cycle = [
                    x.coords for x in alg.elements()
                    if _cycle_radical_member(v.member_coords, x)
                ]
                assert got == cycle, (alg.label, v.basis)
        assert (alg._power_data is None) == streamed


# name: (algebra factory, basis of a subalgebra or ideal, whose radical holds
# more than the nilpotents); each is also checked on the zero subspace and on
# a seeded random line and hyperplane
RADICAL_SAMPLES = {
    # int16 keys; the upper triangular matrices
    "M_2(F_11)": (lambda: matrix_algebra(2, GF(11)), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
    "F_131+F_131": (
        lambda: direct_sum(field_algebra(GF(131)), field_algebra(GF(131))), [[1, 0]]
    ),
    # 59,049 elements: int32 keys; the ideal (t^5)
    "F_3[t]/(t^10)": (
        lambda: poly_quotient_algebra(Poly.from_ints(F3, [0] * 10 + [1])),
        [[0] * i + [1] + [0] * (9 - i) for i in range(5, 10)],
    ),
}


@STORAGE
@pytest.mark.parametrize("name", sorted(RADICAL_SAMPLES))
def test_radical_enumerate_matches_the_definition_on_samples(monkeypatch, streamed, name):
    make, structured = RADICAL_SAMPLES[name]
    if streamed:
        monkeypatch.setattr(_scan, "POWER_CACHE_LIMIT", 0)
    alg = make()
    p, d = alg.field.order, alg.dim
    rng = random.Random(sorted(RADICAL_SAMPLES).index(name))

    def random_rows(r):
        return [[rng.randrange(p) for _ in range(d)] for _ in range(r)]

    subspaces = [Subspace.zero(alg), span(alg, random_rows(1)), span(alg, random_rows(d - 1))]
    subspaces.append(span(alg, structured))
    for v in subspaces:
        got = [x.coords for x in radical_enumerate(v)]
        assert got == sorted(set(got))  # lexicographic, no repeats
        inside = set(got)
        assert len(inside) >= 1  # 0 is always in the radical
        for coords in rng.sample(got, min(25, len(got))):
            assert radical_member(v, alg.element(coords)), (name, v.basis, coords)
        for _ in range(25):
            x = alg.element(element_coords(alg, rng.randrange(alg.size)))
            assert radical_member(v, x) == (x.coords in inside), (name, v.basis, x.coords)
    if streamed:
        assert alg._power_data is None
    else:
        keys = np.int32 if alg.size > 1 << 15 else np.int16
        assert [c.rows.dtype for c in alg._power_data] == [keys]


#: the index of (1, 0, 0, 1), the unit of M_2(F_3), which stores 2d-1 = 7
#: powers per element, a^d .. a^(2d-1) in the last four
UNIT = 1 * 3**3 + 1


def _corrupt_fixed_window(chunk):
    # the unit's powers a^4 .. a^7 now read as the zero element
    chunk.rows[UNIT * 7 + 3 : (UNIT + 1) * 7] = 0


def _corrupt_minpoly_window(chunk):
    # the unit now reads as nilpotent, with an empty window
    chunk.hdeg[UNIT] = 0


@pytest.mark.parametrize(
    "fault", [_corrupt_fixed_window, _corrupt_minpoly_window], ids=["key", "window"]
)
def test_radical_enumerate_catches_corrupt_power_data(fault):
    alg = matrix_algebra(2, F3)
    zero = Subspace.zero(alg)
    nilpotent = radical_enumerate(zero)
    assert len(nilpotent) == 9  # 3^(n^2 - n) nilpotent matrices
    fault(alg._power_data[0])
    with pytest.raises(
        ConsistencyError,
        match=r"fixed power window and minimal-polynomial window disagree on \(1, 0, 0, 1\)",
    ):
        radical_enumerate(zero)


def _must_not_run(*args, **kwargs):
    raise AssertionError("called before the budget was accepted")


def test_radical_refusals_come_before_any_membership_work(monkeypatch):
    alg = matrix_algebra(2, F3)  # 81 elements
    zero = Subspace.zero(alg)
    monkeypatch.setattr(_scan, "membership_bitmap", _must_not_run)
    monkeypatch.setattr(_scan, "batch_mul", _must_not_run)
    # 81 elements at 2d-1 = 7 powers each overspend a budget of 100, and
    # the refusal comes before any element block is built
    monkeypatch.setattr(_scan, "coeff_block", _must_not_run)
    with pytest.raises(TooLarge, match="power scan"):
        radical_enumerate(zero, max_scan=100)
    with pytest.raises(TooLarge, match="power scan"):
        radical_enumerate(zero, max_scan=80)
    assert alg._power_data is None


def test_cached_power_tables_refuse_the_same_budget():
    # F_131[t]/(t^2): 17,161 elements at 3 powers each is 51,483 evaluations
    alg = poly_quotient_algebra(Poly.from_ints(GF(131), [0, 0, 1]))
    zero = Subspace.zero(alg)
    assert len(radical_enumerate(zero)) == 131
    assert alg._power_data is not None
    with pytest.raises(TooLarge, match="power scan .* needs 51483 evaluations, budget is 34322"):
        radical_enumerate(zero, max_scan=34_322)


def test_decided_subspaces_refuse_the_same_idempotent_budget():
    # the 9 vectors of span{E11, E12} are past a budget of 1, before and
    # after a default-budget decision on the same subspace
    v = span(matrix_algebra(2, F3), [[1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(TooLarge, match="needs 9 evaluations, budget is 1"):
        decide_mathieu(v, Sidedness.LEFT, max_scan=1)
    assert not decide_mathieu(v, Sidedness.LEFT).is_mathieu
    with pytest.raises(TooLarge, match="needs 9 evaluations, budget is 1"):
        decide_mathieu(v, Sidedness.LEFT, max_scan=1)


def all_monic_polys(field, degree):
    q = field.order
    for coeffs in itertools.product(range(q), repeat=degree):
        yield Poly(field, list(coeffs) + [1])


@pytest.mark.parametrize(
    "alg",
    [matrix_algebra(2, F3), poly_quotient_algebra(Poly.from_ints(F2, [1, 0, 1, 1]))],
    ids=lambda a: a.label,
)
def test_minpoly_minimality_by_divisor_enumeration(alg):
    # brute force: no proper monic polynomial of smaller degree annihilates
    from mathieu_kit.algebra import poly_eval_element

    rng = random.Random(13)
    p = alg.field.order
    for _ in range(15):
        x = alg.element([rng.randrange(p) for _ in range(alg.dim)])
        mp = minimal_polynomial(x)
        assert poly_eval_element(mp.minpoly, x).is_zero
        for deg in range(mp.degree):
            for candidate in all_monic_polys(alg.field, deg):
                assert not poly_eval_element(candidate, x).is_zero, (
                    x.coords,
                    candidate,
                )
