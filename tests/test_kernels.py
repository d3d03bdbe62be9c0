"""The vectorized kernels against the pure-Python reference arithmetic."""

import itertools
import random

import numpy as np
import pytest

from mathieu_kit import _scan
from mathieu_kit.algebra import (
    direct_sum,
    elem_power,
    field_algebra,
    matrix_algebra,
    minimal_polynomial,
    opposite,
    poly_quotient_algebra,
    power_cycle,
)
from mathieu_kit.fields import GF, Poly
from mathieu_kit.mathieu import radical_enumerate
from mathieu_kit.subspace import Subspace, span

F2, F3, F5 = GF(2), GF(3), GF(5)

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


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.label)
def test_batch_mul_matches_reference_products(alg):
    rng = random.Random(hash(alg.label) & 0xFFFF)
    p = alg.field.order
    t2 = _scan.np_table(alg)
    xs, ys = [], []
    for _ in range(50):
        xs.append([rng.randrange(p) for _ in range(alg.dim)])
        ys.append([rng.randrange(p) for _ in range(alg.dim)])
    got = _scan.batch_mul(t2, np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64), p)
    for x, y, z in zip(xs, ys, got.tolist()):
        assert tuple(z) == alg._mul_coords(tuple(x), tuple(y))


@pytest.mark.parametrize("alg", ALGEBRAS[:3], ids=lambda a: a.label)
def test_idempotent_scan_matches_bruteforce(alg):
    rng = random.Random(29)
    p = alg.field.order
    for _ in range(6):
        v = span(
            alg,
            [[rng.randrange(p) for _ in range(alg.dim)] for _ in range(rng.randrange(3))],
        )
        fast = _scan.idempotent_coords(alg, v.basis, max_scan=10**7)
        slow = [
            x.coords for x in v.elements() if (x * x).coords == x.coords
        ]
        assert sorted(fast) == sorted(slow)


def test_power_chunks_match_elem_power_and_cycles():
    alg = matrix_algebra(2, F5)
    chunks = list(_scan.power_chunks(alg, max_scan=10**7))
    rng = random.Random(3)
    for _ in range(60):
        index = rng.randrange(alg.size)
        chunk = next(c for c in chunks if c.start <= index < c.start + c.count)
        b = index - chunk.start
        coords = tuple(int(c) for c in chunk.rows[chunk.offset[b]])
        x = alg.element(coords)
        info = power_cycle(x)
        assert (info.preperiod, info.period) == (int(chunk.mu[b]), int(chunk.lam[b]))
        data = minimal_polynomial(x)
        assert (data.k, data.h.degree) == (int(chunk.k[b]), int(chunk.hdeg[b]))
        for m in range(1, 9):
            row = chunk.rows[chunk.power_index(b, m)]
            assert tuple(int(c) for c in row) == elem_power(x, m).coords


@pytest.mark.parametrize("p", [127, 131, 257])
def test_power_chunks_hold_residues_of_large_primes(p):
    alg = field_algebra(GF(p))
    chunks = list(_scan.power_chunks(alg, max_scan=10**7))
    for chunk in chunks:
        for b in range(chunk.count):
            x = alg.element(tuple(int(c) for c in chunk.rows[chunk.offset[b]]))
            info = power_cycle(x)
            assert (info.preperiod, info.period) == (int(chunk.mu[b]), int(chunk.lam[b]))
    zero = Subspace.zero(alg)
    assert [x.coords for x in radical_enumerate(zero)] == [(0,)]


def test_streamed_power_chunks_match_cached(monkeypatch):
    cached = list(_scan.power_chunks(matrix_algebra(2, F5), max_scan=10**7))
    monkeypatch.setattr(_scan, "POWER_CACHE_LIMIT", 0)
    alg = matrix_algebra(2, F5)
    streamed = list(_scan.power_chunks(alg, max_scan=10**7))
    assert alg._power_data is None
    for name in ("mu", "lam", "k", "hdeg", "rows"):
        assert np.array_equal(
            np.concatenate([getattr(c, name) for c in cached]),
            np.concatenate([getattr(c, name) for c in streamed]),
        )


def test_slice_all_true_handles_empty_slices():
    flags = np.array([True, False, True, True])
    idx = np.array([0, 2, 3, 1])
    offsets = np.array([0, 1, 1, 3, 4])  # second slice empty
    got = _scan.slice_all_true(flags, idx, offsets)
    assert got.tolist() == [True, True, True, False]


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
