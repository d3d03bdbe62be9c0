"""The vectorized kernels against the pure-Python reference arithmetic."""

import ast
import gc
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from mathieu_kit import _scan, mathieu
from mathieu_kit.algebra import (
    PRODUCT_MEMO_CAP,
    Algebra,
    direct_sum,
    elem_power,
    field_algebra,
    make_algebra,
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
        assert rows.shape == (r, q**r) and rows.flags.c_contiguous
        expected = list(itertools.product(range(q), repeat=r))
        assert [tuple(int(c) for c in row) for row in rows.T] == expected
    # block slicing stitches back together
    rows = np.hstack(
        [_scan.coeff_block(3, 3, s, min(s + 7, 27)) for s in range(0, 27, 7)]
    )
    assert rows.tolist() == _scan.coeff_block(3, 3, 0, 27).tolist()


def test_coeff_block_index_dtype_boundaries():
    # 32 binary digits: the last index 2^31 - 1 fits int32, 2^31 + 2 does not
    ones = (0,) + (1,) * 29  # the first 30 digits of 2^31 - 4 .. 2^31 - 1
    rows = _scan.coeff_block(2, 32, 2**31 - 4, 2**31)
    assert rows.dtype == np.int32 and rows.flags.c_contiguous
    assert list(map(tuple, rows.T.tolist())) == [
        ones + low for low in itertools.product(range(2), repeat=2)
    ]
    rows = _scan.coeff_block(2, 32, 2**31 - 1, 2**31 + 3)
    assert rows.dtype == np.int64
    assert list(map(tuple, rows.T.tolist())) == [(0,) + (1,) * 31] + [
        (1,) + (0,) * 29 + low for low in itertools.product(range(2), repeat=2)
    ][:3]
    # no digit: the one empty vector
    rows = _scan.coeff_block(5, 0, 0, 1)
    assert rows.shape == (0, 1)
    assert list(map(tuple, rows.T.tolist())) == list(itertools.product(range(5), repeat=0))
    # small indices, but a base past int32: peeled in int64
    q = 2**31 + 11
    rows = _scan.coeff_block(q, 2, 0, 5)
    assert rows.dtype == np.int64
    assert list(map(tuple, rows.T.tolist())) == list(itertools.product(range(1), range(5)))


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
    got = _scan.batch_mul(alg, np.array(xs, dtype=np.int64).T, np.array(ys, dtype=np.int64).T)
    for x, y, z in zip(xs, ys, got.T.tolist()):
        assert tuple(z) == alg._mul_coords(tuple(x), tuple(y))


def test_batch_mul_peak_memory_stays_within_a_few_blocks():
    # numpy reports its buffers to tracemalloc; a (d*d, B) intermediate
    # alone would be 42 MB here.  The operands are read in place, so the
    # result is the one block allocated
    alg = matrix_algebra(3, F5)
    rows, d = 1 << 16, alg.dim
    rng = np.random.default_rng(0)
    x, y = rng.integers(0, 5, size=(2, d, rows))
    tracemalloc.start()
    try:
        _scan.batch_mul(alg, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * rows * d * 8


#: 2^31 - 1 and the next prime: 2 (p-1)^2 fits int64 at the first and not
#: at the second
INT64_EDGE, PAST_INT64_EDGE = 2**31 - 1, 2147483659


def _dual_numbers(p):
    """F_p[t]/(t^2), whose output coordinates are each fed by at most two
    structure constants."""
    return poly_quotient_algebra(Poly.from_ints(GF(p), [0, 0, 1]))


def test_batch_mul_sums_in_its_bound_and_refuses_past_int64():
    p = INT64_EDGE
    alg = _dual_numbers(p)
    x = np.array([[p - 1], [p - 1]], dtype=np.int64)
    got = _scan.batch_mul(alg, x, x)
    assert got.dtype == np.int64
    assert tuple(got[:, 0].tolist()) == alg._mul_coords((p - 1, p - 1), (p - 1, p - 1))
    # at the next prime an int64 sum wrapped: (p-1, p-1)^2 came back as
    # (1, 2147483177), not (1, 2).  The bound is counted once per algebra,
    # and the refusal holds on every call
    p = PAST_INT64_EDGE
    alg = _dual_numbers(p)
    x = np.array([[p - 1], [p - 1]], dtype=np.int64)
    assert alg._mul_coords((p - 1, p - 1), (p - 1, p - 1)) == (1, 2)
    for _ in range(2):
        with pytest.raises(TooLarge, match="int64 product sums"):
            _scan.batch_mul(alg, x, x)
    assert alg.derived("product_bound") == 2 * (p - 1) ** 2


@pytest.mark.parametrize(
    "alg, dtype",
    [
        (matrix_algebra(3, F3), np.int8),  # n_k (p-1)^2 = 3 * 4
        (matrix_algebra(2, GF(11)), np.int16),  # 2 * 100
        (_dual_numbers(31), np.int16),  # 2 * 900
    ],
    ids=["M_3(F_3)", "M_2(F_11)", "F_31[t]/(t^2)"],
)
def test_power_table_is_built_in_the_product_dtype(monkeypatch, alg, dtype):
    # every operand and product of the build is in the dtype of the bound
    alg = _fresh(alg)
    batch_mul, seen = _scan.batch_mul, []

    def spy(a, x, y):
        out = batch_mul(a, x, y)
        seen.append((x.dtype, y.dtype, out.dtype))
        return out

    monkeypatch.setattr(_scan, "batch_mul", spy)
    chunks = list(_scan.power_chunks(alg, max_scan=10**7))
    assert len(seen) == len(chunks) * (2 * alg.dim - 2)
    assert set(seen) == {(np.dtype(dtype),) * 3}


def _negated_transposed_basis(alg, n):
    """M_n ``alg`` on the basis f_(i,j) = -E_(j,i), from raw structure constants.

    With t(i*n + j) = j*n + i, f_r f_s = -sum_l T[t(r)][t(s)][t(l)] f_l, and
    x has the coordinates -x[t].  For n >= 2, or -1 != 1, the table is no
    longer that of row-major matrix units, so ``matrix_size`` is None.
    """
    f, d = alg.field, alg.dim
    t = [j * n + i for i in range(n) for j in range(n)]
    table = [
        [[f.neg(alg.table[t[r]][t[s]][t[k]]) for k in range(d)] for s in range(d)]
        for r in range(d)
    ]
    return make_algebra(f, table, [f.neg(alg.unit[k]) for k in t], label=f"{alg.label}, -E^T")


@pytest.mark.parametrize(
    "n, p", [(n, p) for n in (1, 2, 3, 4) for p in (2, 3, 5) if (n, p) != (1, 2)]
)
def test_batch_mul_matrix_branch_matches_the_sparse_loop(n, p):
    # M_n runs the broadcast n x n products; its copy on another basis runs
    # the loop over its structure constants, and they agree after the
    # change of coordinates (over F_2, -1 = 1 and M_1 has no other basis)
    alg = matrix_algebra(n, GF(p))
    copy = _negated_transposed_basis(alg, n)
    assert alg.matrix_size == n and copy.matrix_size is None
    assert _scan.product_dtype(alg) == _scan.product_dtype(copy)
    rng = np.random.default_rng(100 * n + p)
    x, y = rng.integers(0, p, size=(2, n * n, 300))
    x[:, :3] = y[:, 1:4] = p - 1  # the largest sums

    def other(v):
        return -v.reshape(n, n, -1).transpose(1, 0, 2).reshape(v.shape) % p

    got = _scan.batch_mul(alg, x, y)
    assert got.dtype == _scan.product_dtype(alg) and got.shape == x.shape
    assert np.array_equal(_scan.batch_mul(copy, other(x), other(y)), other(got))
    for b in (0, 1, 2, 150, 299):
        assert tuple(got[:, b].tolist()) == alg._mul_coords(
            tuple(x[:, b].tolist()), tuple(y[:, b].tolist())
        )


def test_batch_mul_matrix_branch_is_exact_at_the_int64_edge():
    # M_2: each entry sums 2 products, at most 2 (p-1)^2, which int64 holds
    # at p = 2^31 - 1 and not at the next prime
    p = INT64_EDGE
    alg = matrix_algebra(2, GF(p))
    cols = [(p - 1,) * 4, (p - 1, 0, p - 2, p - 1), (1, p - 1, p - 1, 2)]
    x = np.array(cols, dtype=np.int64).T
    got = _scan.batch_mul(alg, x, x[:, ::-1])
    assert got.dtype == np.int64
    for b, (u, v) in enumerate(zip(cols, cols[::-1])):
        assert tuple(got[:, b].tolist()) == alg._mul_coords(u, v)
    p = PAST_INT64_EDGE
    alg = matrix_algebra(2, GF(p))
    x = np.full((4, 1 << 12), p - 1, dtype=np.int64)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="int64 product sums"):
            _scan.batch_mul(alg, x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes // 4  # no operand cast, no product block


@pytest.mark.parametrize(
    "alg, start",
    [
        (matrix_algebra(3, F3), 3**9 - 500),  # indices fit int16
        (_dual_numbers(31), 0),
        (matrix_algebra(2, GF(223)), 223**4 - 300),  # 223^4 - 1 is past int32
    ],
    ids=["M_3(F_3)", "F_31[t]/(t^2)", "M_2(F_223)"],
)
def test_power_window_indices_are_the_exact_encoding(monkeypatch, alg, start):
    # the window a^d .. a^(2d-1) of each element, read as base-p digits in
    # Python ints, is what the stored indices hold, in exact_dtype(size - 1)
    alg = _fresh(alg)
    p, d = alg.field.order, alg.dim
    check_window, stacks = _scan._check_window, []

    def spy(a, chunk, stack):
        stacks.append(stack.copy())
        return check_window(a, chunk, stack)

    monkeypatch.setattr(_scan, "_check_window", spy)
    chunk = _scan.build_power_chunk(alg, start, min(start + 300, alg.size))
    assert chunk.rows.dtype == _scan.exact_dtype(alg.size - 1)
    want = [
        sum(c * p ** (d - 1 - i) for i, c in enumerate(power))
        for m in range(d - 1, 2 * d - 1)
        for power in stacks[0][m].T.tolist()
    ]
    assert chunk.rows.tolist() == want
    if alg.size - 1 > np.iinfo(np.int32).max:
        assert max(want) > np.iinfo(np.int32).max  # the sums themselves need int64


def test_span_scan_sums_in_its_bound_and_refuses_past_int64(monkeypatch):
    # a span of two vectors sums 2 (p-1)^2 per coordinate.  Its p^2
    # vectors are too many to scan at 2^31 - 1, so one block of seeded
    # coefficients is checked against Python ints, and the scan stops
    p = INT64_EDGE
    rng = random.Random(31)
    basis = [[p - 1, p - 2], [rng.randrange(p), p - 1]]
    coeffs = [[p - 1, p - 1], [0, 0], [1, 0]]
    coeffs += [[rng.randrange(p), rng.randrange(p)] for _ in range(20)]
    batch_mul, squared = _scan.batch_mul, []

    class Stop(Exception):
        pass

    def first_block(q, r, start, stop):
        if start:
            raise Stop
        return np.array(coeffs, dtype=np.int64).T

    def spy(a, x, y):
        squared.append(x.T.tolist())
        return batch_mul(a, x, y)

    monkeypatch.setattr(_scan, "coeff_block", first_block)
    monkeypatch.setattr(_scan, "batch_mul", spy)
    with pytest.raises(Stop):
        _scan.idempotent_coords(_dual_numbers(p), basis)
    want = [[sum(c * row[k] for c, row in zip(cs, basis)) % p for k in range(2)] for cs in coeffs]
    assert squared == [want]
    monkeypatch.setattr(_scan, "coeff_block", _must_not_run)
    with pytest.raises(TooLarge, match="int64 span sums"):
        _scan.idempotent_coords(_dual_numbers(PAST_INT64_EDGE), basis)


def test_idempotent_scan_checks_every_square(monkeypatch):
    # a faulty square that adds 1 to coordinate 0 keeps (2,0,0) and (2,1,0),
    # which are not idempotent; the exact check of the squares refuses them
    alg = direct_sum(field_algebra(F3), _dual_numbers(3))
    batch_mul = _scan.batch_mul

    def faulty(a, x, y):
        out = batch_mul(a, x, y)
        out[0] = (out[0] + 1) % 3
        return out

    assert _scan.idempotent_coords(alg, alg._basis) == [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
    monkeypatch.setattr(_scan, "batch_mul", faulty)
    with pytest.raises(ConsistencyError, match="dense structure constants"):
        _scan.idempotent_coords(alg, alg._basis)
    with pytest.raises(ConsistencyError, match="dense structure constants"):
        decide_mathieu(span(alg, alg._basis[:2]), Sidedness.TWO_SIDED)


def test_membership_bitmap_sums_in_its_bound_and_refuses_past_int64():
    # N x sums d (p-1)^2 per row; d = 2
    p = INT64_EDGE
    rng = random.Random(37)
    row = [p - 1, rng.randrange(p)]
    vectors = [[t * row[1] % p, -t * row[0] % p] for t in (1, p - 1, rng.randrange(p))]
    vectors += [[0, 0], [p - 1, p - 1]] + [[rng.randrange(p), rng.randrange(p)] for _ in range(20)]
    got = _scan.membership_bitmap(np.array(vectors, dtype=np.int64).T, [row], p)
    want = [(row[0] * x + row[1] * y) % p == 0 for x, y in vectors]
    assert got.tolist() == want and sum(want) == 4
    with pytest.raises(TooLarge, match="int64 membership sums"):
        _scan.membership_bitmap(np.array(vectors, dtype=np.int64).T, [row], PAST_INT64_EDGE)


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
    assert alg.derived("idempotents").dtype == _scan.exact_dtype(q - 1) == np.int8
    assert _scan.construct_matrix_idempotents(n, q).dtype == _scan.exact_dtype(n * (q - 1) ** 2)
    assert built == sorted(scanned)
    assert len(built) == _scan.matrix_idempotent_count(n, q)


def _construct_per_basis(n, p):
    """construct_matrix_idempotents with one product per echelon basis U:
    the reference the batched construction must reproduce row for row."""
    dtype = _scan.sum_dtype(n * (p - 1) ** 2, "reference idempotent sums")
    out = []
    for k in range(n + 1):
        m = p ** (k * (n - k))
        zs = _scan.coeff_block(p, k * (n - k), 0, m).astype(dtype).T.reshape(m, k, n - k)
        for piv in itertools.combinations(range(n), k):
            piv = list(piv)
            free = [j for j in range(n) if j not in piv]
            slots = [(i, j) for i in range(k) for j in free if j > piv[i]]
            us = np.zeros((p ** len(slots), k, n), dtype=dtype)
            us[:, range(k), piv] = 1
            us[:, [i for i, _ in slots], [j for _, j in slots]] = _scan.coeff_block(
                p, len(slots), 0, len(us)
            ).T
            for u in us:
                y = np.empty((m, k, n), dtype=dtype)
                y[:, :, free] = zs
                y[:, :, piv] = (np.eye(k, dtype=dtype) - zs @ u[:, free].T) % p
                out.append(((u.T @ y) % p).reshape(m, n * n))
    return np.concatenate(out)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_construction_matches_the_per_basis_loop(n, p):
    built = _scan.construct_matrix_idempotents(n, p)
    want = _construct_per_basis(n, p)
    assert built.dtype == want.dtype == _scan.exact_dtype(n * (p - 1) ** 2)
    assert built.shape == want.shape == (_scan.matrix_idempotent_count(n, p), n * n)
    assert np.array_equal(built, want)  # the same rows in the same order


def test_listed_idempotents_are_stored_signed():
    # residues up to 130 need int16: an unsigned store would be uint8, and
    # uint64 mixed with int64 promotes to float64.  The upper triangular
    # matrices of M_2(F_131) hold 0, 1, [[1, b], [0, 0]] and [[0, b], [0, 1]]
    alg = matrix_algebra(2, GF(131))
    upper = span(alg, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    got = _idempotents_of(upper, 10**7)
    assert alg.derived("idempotents").dtype == np.int16
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
    assert alg.derived("idempotents").tolist() == [list(e) for e in built]


def _drop_idempotent(monkeypatch, e):
    """Add 1 to coordinate 0 of every ``_scan.batch_mul`` square of the
    idempotent ``e``, so a scan that trusts its squares drops ``e``."""
    batch_mul = _scan.batch_mul
    col = np.array(e)[:, None]

    def faulty(a, x, y):
        out = batch_mul(a, x, y)
        hit = (x == col).all(axis=0) & (y == col).all(axis=0)
        out[0, hit] = (out[0, hit] + 1) % a.field.order
        return out

    monkeypatch.setattr(_scan, "batch_mul", faulty)


def test_a_square_that_drops_an_idempotent_is_caught(monkeypatch):
    # a check of only the vectors a scan keeps never sees a dropped one:
    # without E_11 the E_11 line of M_2(F_2) would have no nonzero
    # idempotent and pass as Mathieu, though E_11's ideal leaves it
    alg = direct_sum(field_algebra(F3), _dual_numbers(3))
    assert (1, 0, 0) in _scan.idempotent_coords(alg, alg._basis)
    _drop_idempotent(monkeypatch, (1, 0, 0))
    dropped = r"on \(1, 0, 0\) \* \(1, 0, 0\)"
    with pytest.raises(ConsistencyError, match=dropped):
        _scan.idempotent_coords(alg, alg._basis)
    with pytest.raises(ConsistencyError, match=dropped):
        _all_idempotents(alg)  # the listing route of a non-matrix algebra
    assert alg.derived("idempotents") is None
    monkeypatch.undo()

    m2 = matrix_algebra(2, F2)
    assert not decide_mathieu(span(m2, [[1, 0, 0, 0]]), Sidedness.TWO_SIDED).is_mathieu
    _drop_idempotent(monkeypatch, (1, 0, 0, 0))
    with pytest.raises(ConsistencyError, match=r"on \(1, 0, 0, 0\) \* \(1, 0, 0, 0\)"):
        decide_mathieu(span(_fresh(m2), [[1, 0, 0, 0]]), Sidedness.TWO_SIDED)


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
        built = alg.derived("idempotents") is not None or cost <= p**r
        assert _idempotents_of(v, max_scan=10**7) == scanned
        assert (alg.derived("idempotents") is not None) == built
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
    # M_3(F_5) is above IDEMPOTENT_RESCAN_LIMIT, so only the build's structural
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
    assert alg.derived("idempotents") is None


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
    assert len(alg.derived("idempotents")) == 1552


def test_refusals_and_small_subspaces_build_nothing():
    # the trace hyperplane has 5^8 vectors, M_3(F_5) 1,552 idempotents: the
    # search is priced at the cheaper list, cold and warm alike
    alg = matrix_algebra(3, F5)
    v = trace_orthogonal(alg.one())
    with pytest.raises(TooLarge, match=r"M_3\(F\(5\)\) needs 1552 evaluations, budget is 1551"):
        decide_mathieu(v, Sidedness.LEFT, max_scan=1551)
    assert alg.derived("idempotents") is None
    assert decide_mathieu(v, Sidedness.LEFT, max_scan=1552).is_mathieu
    assert len(alg.derived("idempotents")) == 1552
    with pytest.raises(TooLarge, match="needs 1552 evaluations, budget is 1551"):
        decide_mathieu(v, Sidedness.LEFT, max_scan=1551)
    # a line of M_4(F_7) has 7 vectors; the algebra has 7,117,252 idempotents
    alg = matrix_algebra(4, GF(7))
    assert _scan.matrix_idempotent_count(4, 7) == 7_117_252
    line = span(alg, [[1, 2] + [0] * 13 + [3]])
    assert decide_mathieu(line, Sidedness.TWO_SIDED).is_mathieu
    assert alg.derived("idempotents") is None
    # F_65537[t]/(t^2) has 65537^2 elements, past the default budget
    alg = poly_quotient_algebra(Poly.from_ints(GF(65537), [0, 0, 1]))
    with pytest.raises(TooLarge):
        is_quasi_stable(alg)
    assert alg.derived("idempotents") is None


def test_idempotent_search_is_priced_at_the_list_it_filters():
    # E_11 = 0 in M_4(F_3) has 3^15 = 14,348,907 vectors, past the default
    # budget; the algebra lists only 12,692 idempotents
    alg = matrix_algebra(4, F3)
    v = span(alg, [[int(j == i) for j in range(16)] for i in range(1, 16)])
    assert _scan.matrix_idempotent_count(4, 3) == 12_692
    with pytest.raises(TooLarge, match="needs 12692 evaluations, budget is 12691"):
        _idempotents_of(v, max_scan=12_691)
    assert alg.derived("idempotents") is None
    found = _idempotents_of(v, mathieu.MAX_SCAN_DEFAULT)
    kept = [tuple(e) for e in alg.derived("idempotents").tolist()]
    assert found == [e for e in kept if e[0] == 0] and len(found) == 4708


def test_every_charge_is_to_the_one_budget():
    # every exhaustive job is charged to max_scan, or to the int64 bound of
    # a kernel's dtype, and only errors.py defines a budget default
    package = Path(SRC) / "mathieu_kit"
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 10
    int64_bounds = {(1 << 63) - 1, 1 << 63}
    charges, defaults = 0, []
    for path in sources:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "charge":
                limit = node.args[1]
                charges += 1
                if isinstance(limit, ast.Name):
                    assert limit.id == "max_scan", f"{path.name}:{node.lineno}"
                else:
                    assert not any(isinstance(n, ast.Name) for n in ast.walk(limit))
                    value = eval(compile(ast.Expression(limit), path.name, "eval"))
                    assert value in int64_bounds, f"{path.name}:{node.lineno}"
            if isinstance(node, ast.arg):
                assert node.arg != "max_count", f"{path.name}: a second budget"
        defaults += [
            (path.name, target.id)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.endswith("_DEFAULT")
        ]
    assert charges >= 10
    assert defaults == [("errors.py", "MAX_SCAN_DEFAULT")]


def test_every_batched_product_in_scan_is_checked():
    # each function of _scan that multiplies with batch_mul recomputes its
    # products with _check_products, and only the idempotent construction
    # multiplies with matmul
    tree = ast.parse((Path(SRC) / "mathieu_kit" / "_scan.py").read_text())
    construction = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "construct_matrix_idempotents"
    )
    allowed = set(map(id, ast.walk(construction)))
    callers = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            called = {
                getattr(call.func, "id", getattr(call.func, "attr", None))
                for call in ast.walk(node) if isinstance(call, ast.Call)
            }
            if "batch_mul" in called:
                callers.append(node.name)
                assert "_check_products" in called, node.name
        matmul = (
            isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Attribute) and node.attr in {"matmul", "dot"}
        )
        assert not matmul or id(node) in allowed, f"_scan.py:{node.lineno}"
    assert sorted(callers) == ["build_power_chunk", "idempotent_coords"]


def element_coords(alg, index):
    """Coordinates of the element at ``index`` in lexicographic order, which
    is how power chunks store each power."""
    p, d = alg.field.order, alg.dim
    return tuple(int(index) // p ** (d - 1 - i) % p for i in range(d))


def _check_power_data(alg, indices):
    """Chunk data of the given elements against the pure-Python reference."""
    chunks = list(_scan.power_chunks(alg, max_scan=10**7))
    d = alg.dim
    horizon = 2 * d - 1
    for index in indices:
        chunk = next(c for c in chunks if c.start <= index < c.start + c.count)
        b = index - chunk.start
        x = alg.element(element_coords(alg, index))
        k = minimal_polynomial(x).k
        # the fixed window a^d .. a^(2d-1) lies on the tail cycle
        assert power_cycle(x).preperiod <= max(k, 1) <= alg.dim
        powers = [x]  # powers[m - 1] = x^m
        while len(powers) < horizon:
            powers.append(powers[-1] * x)
        assert powers[-1] == elem_power(x, horizon)
        stored = chunk.rows[b :: chunk.count]  # a^d .. a^(2d-1)
        assert [element_coords(alg, i) for i in stored] == [y.coords for y in powers[d - 1 :]]


def _random_subspace(a, rng, dim):
    """A subspace of ``a`` of dimension ``dim``, spanned by seeded rows."""
    p, d = a.field.order, a.dim
    while True:
        v = span(a, rng.integers(0, p, size=(dim, d)).tolist())
        if v.dim == dim:
            return v


@pytest.mark.parametrize(
    "p, d",
    [(2, 16), (2, 17), (2, 18), (3, 9), (3, 11), (3, 12), (11, 4), (257, 2), (65537, 1),
     (100003, 1)],
)
def test_span_bitmap_matches_the_enumerated_membership_test(p, d):
    # V's vectors fill part of a span block, exactly one (2^16), several
    # (2^17 and 3^11 vectors, the hyperplanes of (2, 18) and (3, 12)), or
    # a block of a 17-bit prime field; a seeded basis of every dimension
    # 0 .. d, the last the full space, which lists nothing
    a = poly_quotient_algebra(Poly.from_ints(GF(p), [0] * d + [1]))
    everything = _scan.coeff_block(p, d, 0, p**d)
    rng = np.random.default_rng([p, d])
    for k in range(d + 1):
        v = _random_subspace(a, rng, k)
        want = _scan.membership_bitmap(everything, v.constraints(), p)
        assert np.array_equal(_scan.span_bitmap(a, v.basis), want), v.basis


def test_span_bitmap_refuses_past_int64_before_allocating(monkeypatch):
    # two rows of F_p[t]/(t^3) sum 2 (p-1)^2 per coordinate, past int64 at
    # this prime; the refusal comes before the p^3-entry bitmap, any span
    # block or the basis array
    a = poly_quotient_algebra(Poly.from_ints(GF(PAST_INT64_EDGE), [0, 0, 0, 1]))
    rows = [[1, 0, PAST_INT64_EDGE - 1], [0, 1, PAST_INT64_EDGE - 2]]
    monkeypatch.setattr(_scan, "coeff_block", _must_not_run)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="int64 span sums of"):
            _scan.span_bitmap(a, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_indices_are_encoded_exactly_at_the_int64_edge():
    # at p = 2^31 - 1 a 2-digit index reaches p^2 - 1 < 2^63: the largest
    # residues and seeded ones against Python ints, and back through digits
    p = INT64_EDGE
    rng = random.Random(41)
    cols = [(p - 1, p - 1), (p - 1, 0), (0, p - 1), (1, p - 2)]
    cols += [(rng.randrange(p), rng.randrange(p)) for _ in range(20)]
    vecs = np.array(cols, dtype=np.int64).T
    got = _scan.encode(p, vecs)
    assert got.dtype == np.int64
    assert got.tolist() == [x * p + y for x, y in cols]
    assert np.array_equal(_scan.digits(p, 2, got), vecs)


def test_zero_subspace_of_a_wide_prime_sums_in_a_dtype_that_holds_p():
    # the zero subspace of F_257 has no basis row, so its span sums are 0,
    # but they are reduced mod 257, which int8 cannot hold
    a = field_algebra(GF(257))
    (block,) = _scan.span_blocks(a, [])
    assert block.dtype == np.int16 and block.tolist() == [[0]]
    assert _scan.idempotent_coords(a, []) == [(0,)]
    assert decide_mathieu(Subspace.zero(a), Sidedness.LEFT).is_mathieu  # 0 is its one idempotent
    assert np.flatnonzero(_scan.span_bitmap(a, [])).tolist() == [0]


def _radical_by_enumeration(v):
    """The radical of ``v`` found by enumerating every element's
    coordinates, testing them with ``membership_bitmap``, and enumerating
    them again to pick out the members."""
    a = v.ambient
    p, d, size, block = a.field.order, a.dim, a.size, _scan.DEFAULT_BLOCK
    chunks = list(_scan.power_chunks(a, max_scan=10**7))
    in_a = np.concatenate([
        _scan.membership_bitmap(
            _scan.coeff_block(p, d, s, min(s + block, size)), v.constraints(), p
        )
        for s in range(0, size, block)
    ])
    out = []
    for chunk in chunks:
        inside = in_a[chunk.rows].reshape(d, chunk.count).all(axis=0)
        elements = _scan.coeff_block(p, d, chunk.start, chunk.start + chunk.count)
        out += [tuple(coords) for coords in elements[:, inside].T.tolist()]
    return out


def test_radical_enumerate_matches_the_enumerated_radical():
    algebras = [
        matrix_algebra(3, F3),
        matrix_algebra(2, GF(11)),
        matrix_algebra(2, F5),
        matrix_algebra(2, F2),
        poly_quotient_algebra(Poly.from_ints(GF(257), [0, 0, 1])),
        poly_quotient_algebra(Poly.from_ints(F3, [1, 0, 2, 1])),
    ]
    rng = random.Random(23)
    for alg in algebras:
        p, d = alg.field.order, alg.dim
        for _ in range(8):
            rows = [[rng.randrange(p) for _ in range(d)] for _ in range(rng.randrange(d + 1))]
            v = span(alg, rows)
            got = [x.coords for x in radical_enumerate(v)]
            assert got == _radical_by_enumeration(v), (alg.label, v.basis)


@pytest.mark.parametrize("n, p", [(3, 3), (2, 23)], ids=["M_3(F_3)", "M_2(F_23)"])
def test_radical_enumerate_matches_the_enumerated_radical_in_every_dimension(n, p):
    # power tables of 6 and 30 chunks, read as one window; seeded
    # subspaces of every dimension 0 .. n^2, the last the full space
    alg = matrix_algebra(n, GF(p))
    rng = np.random.default_rng([n, p])
    for k in range(alg.dim + 1):
        v = _random_subspace(alg, rng, k)
        got = mathieu._radical_coords(v, 10**7)
        assert got == _radical_by_enumeration(v), v.basis
        assert [x.coords for x in radical_enumerate(v)] == got


def test_power_chunks_match_elem_power_and_cycles():
    # exhaustive where the algebra is small, F_3[t]/(t^3) for k >= 2
    for alg in ALGEBRAS[:5] + [poly_quotient_algebra(Poly.from_ints(F3, [0, 0, 0, 1]))]:
        _check_power_data(alg, range(alg.size))
    # seeded samples of the larger ones, including dimension 2 with p >= 128
    rng = random.Random(3)
    for alg in (ALGEBRAS[5], direct_sum(field_algebra(GF(131)), field_algebra(GF(131)))):
        _check_power_data(alg, sorted(rng.sample(range(alg.size), 200)))


def _fault_every_product(monkeypatch, error, column=slice(None)):
    """Add ``error`` to ``column`` of every ``_scan.batch_mul`` product, mod p."""
    batch_mul = _scan.batch_mul

    def faulty(a, x, y):
        out = batch_mul(a, x, y)
        out[:, column] = (out[:, column] + error) % a.field.order
        return out

    monkeypatch.setattr(_scan, "batch_mul", faulty)


@pytest.mark.parametrize("kernel", ["batch_mul"])
def test_build_replay_catches_a_faulty_kernel(monkeypatch, kernel):
    # every coordinate of every product off by one
    _fault_every_product(monkeypatch, 1)
    alg = matrix_algebra(2, F3)
    with pytest.raises(ConsistencyError):
        list(_scan.power_chunks(alg, max_scan=10**7))
    assert alg.derived("power_table") is None


@pytest.mark.parametrize("row", [7, 40, 55])
def test_power_build_catches_a_fault_in_one_row(monkeypatch, row):
    # 1 added to coordinate 0 of one element's every product: without a
    # check on every element, M_2(F_3)'s radicals go silently wrong on 44,
    # 30 and 22 of its 212 subspaces
    _fault_every_product(monkeypatch, [1, 0, 0, 0], row)
    alg = matrix_algebra(2, F3)
    with pytest.raises(ConsistencyError, match="dense structure constants"):
        list(_scan.power_chunks(alg, max_scan=10**7))
    assert alg.derived("power_table") is None


@pytest.mark.parametrize(
    "n, field", [(3, F2), (2, F3), (2, F2)], ids=["M_3(F_2)", "M_2(F_3)", "M_2(F_2)"]
)
def test_power_build_catches_every_random_product_error(monkeypatch, n, field):
    # per trial, one random nonzero error vector added to one random
    # element's every product (each algebra is one block, so its column is
    # its index); a check of fixed linear forms lets some of these through
    # (16 of the 90 at seed 0), the exact check none
    alg = matrix_algebra(n, field)
    rng = np.random.default_rng(0)
    for _ in range(30):
        row = int(rng.integers(alg.size))
        error = np.zeros(alg.dim, dtype=np.int64)
        while not error.any():
            error = rng.integers(0, field.order, size=alg.dim)
        _fault_every_product(monkeypatch, error, row)
        with pytest.raises(ConsistencyError, match="dense structure constants"):
            list(_scan.power_chunks(alg, max_scan=10**7))
        assert alg.derived("power_table") is None
        monkeypatch.undo()


def _corrupt_a_stored_index(monkeypatch):
    """Change one stored index of M_2(F_3)'s element 7, which the
    three-element replay (elements 0, 40 and 80) does not sample, after
    the encoding: only a decode of the whole window sees it."""
    chunk_of = _scan.PowerChunk

    def corrupted(start, count, rows):
        rows = rows.copy()
        rows[count + 7] = (rows[count + 7] + 1) % 81  # a^5 of element 7
        return chunk_of(start, count, rows)

    monkeypatch.setattr(_scan, "PowerChunk", corrupted)


def test_power_build_checks_every_stored_index(monkeypatch):
    _corrupt_a_stored_index(monkeypatch)
    alg = matrix_algebra(2, F3)
    with pytest.raises(ConsistencyError, match="stored power indices"):
        list(_scan.power_chunks(alg, max_scan=10**7))
    assert alg.derived("power_table") is None


def test_radical_enumerate_catches_corrupt_power_data(monkeypatch):
    # the same corruption met by a radical query, which keeps no element
    _corrupt_a_stored_index(monkeypatch)
    alg = matrix_algebra(2, F3)
    with pytest.raises(ConsistencyError, match="stored power indices"):
        radical_enumerate(Subspace.zero(alg))
    assert alg.derived("power_table") is None and alg.derived("elements") is None


SLOW_CYCLE_CHILD = """
import resource, sys
cap = 1536 << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from mathieu_kit.algebra import field_algebra, matrix_algebra, poly_quotient_algebra
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
with open("/proc/self/status") as status:
    print(next(line for line in status if line.startswith("VmHWM:")))
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
    lines = _zero_radical_in_child(algebra, refuse_at)
    if refuse_at is not None:
        assert lines.pop(0).startswith("TooLarge power scan of"), lines
    assert ast.literal_eval(lines[0]) == radical
    assert int(lines[1].split()[1]) < 1 << 20  # KiB: under 1 GiB


def _zero_radical_in_child(algebra, refuse_at=None):
    """The stdout lines of SLOW_CYCLE_CHILD run on ``algebra``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SLOW_CYCLE_CHILD.format(algebra=algebra, refuse_at=refuse_at)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_power_table_blocks_bound_the_peak_memory():
    # M_4(F_2): 65,536 elements at 2d-1 = 31 powers of d = 16 residues each,
    # built 2,114 elements at a time; its nilpotent cone has 2^(n^2 - n) =
    # 4,096 elements
    lines = _zero_radical_in_child("matrix_algebra(4, GF(2))")
    radical = ast.literal_eval(lines[0])
    assert len(radical) == 4096 and radical == sorted(set(radical))
    assert int(lines[1].split()[1]) < 200 << 10  # KiB: under 200 MiB


def test_child_peak_memory_is_the_childs_own():
    # getrusage's ru_maxrss carries the spawning process's peak over exec,
    # so with 256 MiB touched here it would read past the 200 MiB bound;
    # the child's VmHWM is its own high-water mark
    ballast = np.ones(256 << 20, dtype=np.uint8)
    lines = _zero_radical_in_child("matrix_algebra(4, GF(2))")
    assert ballast.all()
    assert len(ast.literal_eval(lines[0])) == 4096
    assert int(lines[1].split()[1]) < 200 << 10  # KiB: under 200 MiB


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


def test_power_chunks_hold_at_most_a_block_of_powers():
    # M_3(F_3): 19,683 elements at 2d-1 = 17 powers, in blocks of 3,855
    alg = matrix_algebra(3, F3)
    chunks = list(_scan.power_chunks(alg, max_scan=10**7))
    assert len(chunks) == 6
    assert all(c.count * 17 <= _scan.DEFAULT_BLOCK for c in chunks)
    assert [c.start for c in chunks] == [sum(c.count for c in chunks[:i]) for i in range(6)]
    assert sum(c.count for c in chunks) == alg.size
    assert all(len(c.rows) == c.count * alg.dim for c in chunks)
    _check_power_data(alg, [0, 3854, 3855, 9000, alg.size - 1])


def test_radical_enumerate_matches_the_definition():
    # every subspace of every catalog algebra over F_2 or F_3 of dimension
    # at most 3, against the pure-Python window definition and the
    # hash-detected power cycle
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
                    if _cycle_radical_member(v.member, x)
                ]
                assert got == cycle, (alg.label, v.basis)
        assert alg.derived("power_table") is not None


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


@pytest.mark.parametrize("name", sorted(RADICAL_SAMPLES))
def test_radical_enumerate_matches_the_definition_on_samples(name):
    make, structured = RADICAL_SAMPLES[name]
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
    keys = np.int32 if alg.size > 1 << 15 else np.int16
    assert {c.rows.dtype for c in alg.derived("power_table")} == {np.dtype(keys)}


#: the index of (1, 0, 0, 1), the unit of M_2(F_3), which stores d = 4
#: powers per element, a^d .. a^(2d-1), one per power-major row of its chunk
UNIT = 1 * 3**3 + 1


def test_cached_power_rows_refuse_writes():
    # a table checked when built cannot be corrupted after: reading the
    # unit's a^4 .. a^7 as the zero element is refused when it is written
    alg = matrix_algebra(2, F3)
    zero = Subspace.zero(alg)
    nilpotent = radical_enumerate(zero)
    assert len(nilpotent) == 9  # 3^(n^2 - n) nilpotent matrices
    chunk = alg.derived("power_table")[0]
    with pytest.raises(ValueError, match="read-only"):
        chunk.rows[UNIT :: chunk.count] = 0
    assert radical_enumerate(zero) == nilpotent


def _must_not_run(*args, **kwargs):
    raise AssertionError("called before the budget was accepted")


def test_radical_refusals_come_before_any_membership_work(monkeypatch):
    alg = matrix_algebra(2, F3)  # 81 elements
    zero = Subspace.zero(alg)
    monkeypatch.setattr(_scan, "membership_bitmap", _must_not_run)
    monkeypatch.setattr(_scan, "span_bitmap", _must_not_run)
    monkeypatch.setattr(_scan, "batch_mul", _must_not_run)
    # 81 elements at 2d-1 = 7 powers each overspend a budget of 100, and
    # the refusal comes before any element block is built or decoded
    monkeypatch.setattr(_scan, "coeff_block", _must_not_run)
    monkeypatch.setattr(_scan, "digits", _must_not_run)
    with pytest.raises(TooLarge, match="power scan"):
        radical_enumerate(zero, max_scan=100)
    with pytest.raises(TooLarge, match="power scan"):
        radical_enumerate(zero, max_scan=80)
    assert alg.derived("power_table") is None


def test_cached_power_tables_refuse_the_same_budget():
    # F_131[t]/(t^2): 17,161 elements at 3 powers each is 51,483 evaluations
    alg = poly_quotient_algebra(Poly.from_ints(GF(131), [0, 0, 1]))
    zero = Subspace.zero(alg)
    assert len(radical_enumerate(zero)) == 131
    assert alg.derived("power_table") is not None
    with pytest.raises(TooLarge, match="power scan .* needs 51483 evaluations, budget is 34322"):
        radical_enumerate(zero, max_scan=34_322)


def test_power_tables_refuse_indices_past_int64(monkeypatch):
    # F_3000017[t]/(t^3 - 4t^2 + 2t + 3) has about 2.7e19 elements, past
    # 2^63, so its indices would wrap in int64 whatever budget admits its
    # price; the refusal comes before any block is built
    monkeypatch.setattr(_scan, "build_power_chunk", _must_not_run)
    monkeypatch.setattr(_scan, "span_bitmap", _must_not_run)
    alg = poly_quotient_algebra(Poly.from_ints(GF(3_000_017), [3, 2, -4, 1]))
    assert alg.size - 1 > np.iinfo(np.int64).max
    with pytest.raises(TooLarge, match="int64 element indices"):
        radical_enumerate(Subspace.zero(alg), max_scan=alg.size * (2 * alg.dim - 1))
    assert alg.derived("power_table") is None


# -- the element memo -------------------------------------------------------------------------------

MEMO_ALGEBRAS = {
    "M_3(F_3)": lambda: matrix_algebra(3, F3),
    "M_2(F_11)": lambda: matrix_algebra(2, GF(11)),
    "F_31[t]/(t^2)": lambda: poly_quotient_algebra(Poly.from_ints(GF(31), [0, 0, 1])),
}


def _element_index(x):
    """The lexicographic index of element ``x``, the key of its memo entry."""
    p = x.algebra.field.order
    return sum(c * p**i for i, c in enumerate(reversed(x.coords)))


def _kept(alg):
    """The algebra's element memo as a dict from index to Element, after
    checking its layout: a list that holds None and then each kept element
    once, and the place in it of each element index, or 0."""
    if alg.derived("elements") is None:
        return {}
    where, kept = alg.derived("elements")
    assert type(kept) is list and kept[0] is None and len(where) == alg.size
    held = np.flatnonzero(where)
    assert sorted(where[held].tolist()) == list(range(1, len(kept)))
    return {i: kept[where[i]] for i in held.tolist()}


@pytest.mark.parametrize("name", list(MEMO_ALGEBRAS))
def test_radical_elements_read_from_the_memo_equal_fresh_ones(name):
    # the zero subspace, a line, a hyperplane and the full space, queried
    # in an order that repeats each and overlaps them all: every radical
    # holds the nilpotent cone, the full space's holds every element
    warm = MEMO_ALGEBRAS[name]()
    rng = np.random.default_rng(7)
    queries = [
        Subspace.zero(warm), _random_subspace(warm, rng, 1),
        _random_subspace(warm, rng, warm.dim - 1), Subspace.full(warm),
    ]
    seen = set()
    for v in [queries[k] for k in (0, 1, 2, 0, 3, 2, 1, 3)]:
        want = mathieu._radical_coords(v, 10**7)
        before = _kept(warm)
        got = radical_enumerate(v)
        assert [x.coords for x in got] == want, v.basis
        fresh = span(MEMO_ALGEBRAS[name](), v.basis)
        assert [x.coords for x in radical_enumerate(fresh)] == want, v.basis
        # each kept element is read back, not rebuilt, and stays kept
        memo = _kept(warm)
        assert all(memo[i] is x for i, x in before.items())
        assert all(x.algebra is warm and memo.get(_element_index(x), x) is x for x in got)
        seen.update(map(_element_index, got))
    assert len(memo) == min(len(seen), PRODUCT_MEMO_CAP)
    assert all(x.coords == element_coords(warm, i) for i, x in memo.items())


def test_element_memo_stops_at_its_cap(monkeypatch):
    monkeypatch.setattr(mathieu, "PRODUCT_MEMO_CAP", 50)
    alg = matrix_algebra(2, F3)  # 81 elements, 9 of them nilpotent
    zero, full = Subspace.zero(alg), Subspace.full(alg)
    nilpotent = radical_enumerate(zero)
    everything = radical_enumerate(full)
    assert [x.coords for x in everything] == [x.coords for x in alg.elements()]
    memo = _kept(alg)
    assert len(memo) == 50 and {_element_index(x) for x in nilpotent} <= set(memo)
    # past the cap the elements are built and not kept
    again = radical_enumerate(full)
    assert again == everything and again[-1] is not everything[-1]
    assert all(x is memo[_element_index(x)] for x in again if _element_index(x) in memo)
    assert radical_enumerate(zero) == nilpotent and _kept(alg) == memo
    # the memo's places are as narrow as the cap; those of the 961 elements
    # built here are not
    big = MEMO_ALGEBRAS["F_31[t]/(t^2)"]()
    for _ in range(2):
        assert [x.coords for x in radical_enumerate(Subspace.full(big))] == [
            x.coords for x in big.elements()
        ]
    assert len(_kept(big)) == 50


def test_each_radical_query_returns_a_new_list():
    alg = matrix_algebra(2, F3)
    zero = Subspace.zero(alg)
    first, second = radical_enumerate(zero), radical_enumerate(zero)
    assert first is not second and first == second
    first.clear()
    assert radical_enumerate(zero) == second and len(second) == 9


def test_radical_refusals_leave_the_element_memo_empty():
    # refused before the table is built, and again once it is cached by a
    # query that returns tuples, which keeps no element
    alg = matrix_algebra(2, F3)
    zero = Subspace.zero(alg)
    with pytest.raises(TooLarge, match="power scan"):
        radical_enumerate(zero, max_scan=100)
    assert alg.derived("elements") is None
    assert len(mathieu._radical_coords(zero, 10**7)) == 9
    with pytest.raises(TooLarge, match="power scan"):
        radical_enumerate(zero, max_scan=100)
    assert alg.derived("power_table") is not None and alg.derived("elements") is None


class _WeakAlgebra(Algebra):
    """An Algebra that takes weak references, and nothing else new."""


def test_a_dropped_algebra_is_collected_with_its_element_memo():
    # the kept elements refer back to their algebra: the cycle must be one
    # the garbage collector can see through, or a dropped algebra and its
    # power table would stay for the life of the process
    m = matrix_algebra(2, F3)
    alg = _WeakAlgebra(m.field, m.table, m.unit, check=False)
    result = radical_enumerate(Subspace.full(alg))
    assert len(_kept(alg)) == 81
    ref = weakref.ref(alg)
    del alg
    gc.collect()
    assert ref() is not None  # the returned elements still hold it
    del result
    gc.collect()
    assert ref() is None


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
