import itertools
import math
import random
import types

import numpy as np
import pytest

from mathieu_kit import _scan, matrixlab
from mathieu_kit.algebra import matrix_algebra, poly_quotient_algebra
from mathieu_kit.errors import (
    ConsistencyError,
    NotMatrixAlgebra,
    NotProper,
    ScalarDual,
    TooLarge,
    TooSmall,
    WrongCodimension,
    ZeroDual,
)
from mathieu_kit.fields import GF, QQ, Poly
from mathieu_kit.matrixlab import (
    _batch_witnesses,
    _class_blocks,
    canonical_rep,
    classify_codim1,
    classify_lines,
    mathieu_iff_idempotent_free,
    trace_dual,
    trace_of_product,
    trace_orthogonal,
    witness_idempotents,
)
from mathieu_kit.mathieu import decide_mathieu
from mathieu_kit.subspace import ALL_VARIANTS, Sidedness, Subspace, span

F2, F3, F5 = GF(2), GF(3), GF(5)


def mat(alg, rows):
    return alg.element([c for row in rows for c in row])


# -- trace pairing ------------------------------------------------------------------


def test_trace_orthogonal_of_identity_is_trace_zero_plane():
    a = matrix_algebra(2, F5)
    h = trace_orthogonal(a.one())
    assert h.dim == 3
    for x in h.elements():
        m = np.array(x.coords).reshape(2, 2)
        assert (m[0, 0] + m[1, 1]) % 5 == 0


def test_trace_orthogonal_of_e12():
    a = matrix_algebra(2, F5)
    v = trace_orthogonal(a.basis_element(1))
    # Tr(A E_12) = a_21
    assert v == span(a, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    with pytest.raises(ZeroDual):
        trace_orthogonal(a.zero())
    f4 = poly_quotient_algebra(Poly.from_ints(F2, [1, 1, 1]))
    with pytest.raises(NotMatrixAlgebra):
        trace_orthogonal(f4.one())


def test_trace_dual_spec_points():
    a3 = matrix_algebra(2, F3)
    h = trace_orthogonal(a3.one())
    assert trace_dual(h).canonical == canonical_rep(a3.one())
    a2 = matrix_algebra(2, F2)
    v = span(a2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])  # a_21 = 0
    assert trace_dual(v).canonical == a2.basis_element(1)  # X ~ E_12
    with pytest.raises(WrongCodimension):
        trace_dual(span(a2, [[1, 0, 0, 0]]))


def test_pairing_round_trip_exhaustive_m2_f3():
    a = matrix_algebra(2, F3)
    for coords in itertools.product(range(3), repeat=4):
        if all(c == 0 for c in coords):
            continue
        x = a.element(coords)
        back = trace_dual(trace_orthogonal(x))
        assert back.canonical == canonical_rep(x)
        # and the subspace really is the kernel of the pairing with x
        v = trace_orthogonal(x)
        for y in (a.element(row) for row in v.basis):
            assert trace_of_product(y, x) == 0


# -- refuting idempotents ------------------------------------------------------------------


def assert_witness_properties(alg, n, x):
    a, b = witness_idempotents(x)
    ident = alg.one()
    assert a * a == a and b * b == b
    assert not a.is_zero and a != ident
    assert not b.is_zero and b != ident
    assert not (a * x).is_zero
    assert not (x * b).is_zero
    assert trace_of_product(a, x) == 0
    assert trace_of_product(x, b) == 0


def test_witness_case_matrices_follow_the_three_cases():
    a = matrix_algebra(2, F5)
    f = F5
    # case 1: top-right entry nonzero
    x = mat(a, [[2, 3], [1, 4]])
    w, _ = witness_idempotents(x)
    inv3 = f.inv(3)
    assert w == mat(a, [[1, 0], [(-2 * inv3) % 5, 0]])
    # case 2: b = 0, c != 0
    x = mat(a, [[2, 0], [3, 4]])
    w, _ = witness_idempotents(x)
    inv3 = f.inv(3)
    assert w == mat(a, [[0, (-inv3 * 4) % 5], [0, 1]])
    # case 3: diagonal, distinct entries
    x = mat(a, [[2, 0], [0, 4]])
    w, _ = witness_idempotents(x)
    s = f.inv((4 - 2) % 5)
    assert w == mat(a, [[(s * 4) % 5, (s * 4) % 5], [(-s * 2) % 5, (-s * 2) % 5]])


def test_witness_properties_exhaustive_n2():
    for q in (2, 3, 5):
        alg = matrix_algebra(2, GF(q))
        for coords in itertools.product(range(q), repeat=4):
            x = alg.element(coords)
            if x.is_zero:
                continue
            m = np.array(coords).reshape(2, 2)
            if m[0, 1] == 0 and m[1, 0] == 0 and m[0, 0] == m[1, 1]:
                with pytest.raises(ScalarDual):
                    witness_idempotents(x)
                continue
            assert_witness_properties(alg, 2, x)


def test_witness_properties_sampled_n3():
    rng = random.Random(17)
    for q in (2, 3, 5):
        alg = matrix_algebra(3, GF(q))
        done = 0
        while done < 60:
            coords = tuple(rng.randrange(q) for _ in range(9))
            x = alg.element(coords)
            m = np.array(coords).reshape(3, 3)
            scalar = np.all(m == m[0, 0] * np.eye(3, dtype=int) % q)
            if x.is_zero or scalar:
                continue
            assert_witness_properties(alg, 3, x)
            done += 1


def test_witness_guards():
    with pytest.raises(TooSmall):
        witness_idempotents(matrix_algebra(1, F3).one())
    a = matrix_algebra(2, F3)
    with pytest.raises(ZeroDual):
        witness_idempotents(a.zero())
    with pytest.raises(ScalarDual):
        witness_idempotents(a.one().scale(2))


def test_witness_works_over_rationals():
    a = matrix_algebra(3, QQ)
    x = mat(a, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert_witness_properties(a, 3, x)


def test_batch_refute_agrees_with_scalar_construction():
    # every canonical non-identity class, one batch per leading coordinate
    for n, q in ((2, 3), (2, 5), (3, 2)):
        alg = matrix_algebra(n, GF(q))
        d = n * n
        ident = np.array(alg.one().coords)
        classes = 0
        for _, _, block in _class_blocks(q, d):
            block = block[:, ~np.all(block == ident[:, None], axis=0)]
            a = _batch_witnesses(alg, block)
            for col, am in zip(block.T, a.T):
                wa, _ = witness_idempotents(alg.element(tuple(col.tolist())))
                assert tuple(am.tolist()) == wa.coords
            classes += block.shape[1]
        assert classes == (q**d - 1) // (q - 1) - 1
    with pytest.raises(ConsistencyError):
        _batch_witnesses(matrix_algebra(2, F3), np.eye(2, dtype=np.int64).reshape(4, 1))


def _first_pair_and_case(x):
    """The index pair and 2x2 case the scalar construction uses on x."""
    for m, k in itertools.combinations(range(len(x)), 2):
        if x[m][k] or x[k][m] or x[m][m] != x[k][k]:
            return (m, k), 1 if x[m][k] else 2 if x[k][m] else 3
    return None


def _random_nonscalar_duals(n, p, count, seed):
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, p, size=(count, n, n))
    # zero half the entries, so every case and every first pair occurs
    xs *= rng.integers(0, 2, size=xs.shape)
    return xs[[_first_pair_and_case(x.tolist()) is not None for x in xs]]


def _column_block(xs):
    """The census kernel's layout of (count, n, n) matrices: (n*n, count)."""
    return np.ascontiguousarray(xs.reshape(len(xs), -1).T)


# (n, p, dtype): the kernel's largest sum n (p-1)^2 on either side of each
# signed dtype's maximum
BATCH_DTYPES = [
    (2, 7, np.int8),
    (2, 11, np.int16),
    (2, 127, np.int16),
    (2, 131, np.int32),
    (2, 65537, np.int64),
    (3, 7, np.int8),
    (3, 11, np.int16),
    (3, 103, np.int16),
    (3, 107, np.int32),
    (4, 3, np.int8),
]


@pytest.mark.parametrize("n, p, dtype", BATCH_DTYPES)
def test_batch_witnesses_match_scalar_construction_at_dtype_boundaries(n, p, dtype):
    xs = _random_nonscalar_duals(n, p, 600, seed=1000 * n + p)
    seen = {_first_pair_and_case(x.tolist()) for x in xs}
    assert {case for _, case in seen} == {1, 2, 3}
    assert {pair for pair, _ in seen} == set(itertools.combinations(range(n), 2))
    a = _batch_witnesses(matrix_algebra(n, GF(p)), _column_block(xs))
    assert a.dtype == dtype  # never float, never wider than needed
    alg = matrix_algebra(n, GF(p))
    for x, am in zip(xs, a.T):
        wa, _ = witness_idempotents(alg.element(tuple(int(c) for c in x.reshape(-1))))
        assert am.tolist() == list(wa.coords)


def _transposed(block, n):
    """Every column of an (n*n, count) block, as an n x n matrix, transposed."""
    return block.reshape(n, n, -1).transpose(1, 0, 2).reshape(n * n, -1)


@pytest.mark.parametrize("n, q", [(2, 3), (2, 5), (3, 2), (4, 2)])
def test_census_right_witness_is_the_left_witness_of_the_transposed_class(n, q):
    # the census builds only A; B of class X must be A of class canon(X^T),
    # transposed, and that class must be one the census walks
    alg = matrix_algebra(n, GF(q))
    d = n * n
    classes = np.concatenate([block for _, _, block in _class_blocks(q, d)], axis=1)
    classes = classes[:, ~np.all(classes == np.eye(n, dtype=classes.dtype).reshape(d, 1), axis=0)]
    xt = _transposed(classes.astype(np.int64), n)
    leads = xt[(xt != 0).argmax(axis=0), np.arange(xt.shape[1])]
    canon = xt * matrixlab._inverses(leads, q) % q
    codes = _scan.encode(q, classes)
    order = np.argsort(codes)
    at = order[np.searchsorted(codes, _scan.encode(q, canon), sorter=order)]
    assert np.array_equal(classes[:, at], canon)  # canon(X^T) is a census class
    assert np.array_equal(at[at], np.arange(len(at)))  # X -> canon(X^T) is an involution
    b = _transposed(_batch_witnesses(alg, classes)[:, at], n)
    for x, bm in zip(classes.T, b.T):
        _, wb = witness_idempotents(alg.element(tuple(x.tolist())))
        assert tuple(bm.tolist()) == wb.coords


def _duals_first_nonscalar_at(rng, n, p, pair, count):
    """``count`` random n x n duals over F_p whose first non-scalar index
    pair is ``pair``: every earlier pair is made scalar (zero off-diagonal
    entries, diagonal entries equal to x_00), and draws on which ``pair``
    is scalar too are redrawn."""
    out = []
    while len(out) < count:
        x = rng.integers(0, p, size=(n, n)) * rng.integers(0, 2, size=(n, n))
        for m, k in itertools.takewhile(lambda mk: mk != pair, itertools.combinations(range(n), 2)):
            x[m, k] = x[k, m] = 0
            x[k, k] = x[0, 0]
        found = _first_pair_and_case(x.tolist())
        if found and found[0] == pair:
            out.append(x)
    return out


def _assert_witnesses_match_scalar_construction(alg, xs):
    a = _batch_witnesses(alg, _column_block(xs))
    for x, am in zip(xs, a.T):
        wa, _ = witness_idempotents(alg.element(tuple(x.reshape(-1).tolist())))
        assert am.tolist() == list(wa.coords)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [3, 4])
def test_batch_witnesses_repair_the_columns_scalar_on_the_first_pairs(n, p):
    # the kernel builds every column on pair (0, 1) and rebuilds the columns
    # scalar there on the later pairs, one pair at a time
    rng = np.random.default_rng(100 * n + p)
    alg = matrix_algebra(n, GF(p))
    pairs = list(itertools.combinations(range(n), 2))
    later = [x for pair in pairs[1:] for x in _duals_first_nonscalar_at(rng, n, p, pair, 12)]
    mixed = _duals_first_nonscalar_at(rng, n, p, pairs[0], 40) + later
    for xs in (mixed, later):  # ordinary columns among them, and none
        xs = np.array(xs)[rng.permutation(len(xs))]
        assert {_first_pair_and_case(x.tolist())[0] for x in xs} >= set(pairs[1:])
        _assert_witnesses_match_scalar_construction(alg, xs)
    # a column scalar on every pair is caught after the last one
    scalar = np.array(mixed[:5] + [(p - 1) * np.eye(n, dtype=int)] + later[:5])
    with pytest.raises(ConsistencyError, match="scalar matrix slipped"):
        _batch_witnesses(alg, _column_block(scalar))


@pytest.mark.parametrize("p", [2, 3, 5, 131, 65537, 2**31 - 1])
def test_inverses_match_python_pow(p):
    residues = sorted({0, 1, p - 1} | set(range(2, min(p, 200))) | {p // 2, p - 2})
    dtype = np.int8 if p < 12 else np.int64
    inv = matrixlab._inverses(np.array(residues, dtype=dtype), p)
    assert inv.dtype == dtype
    assert inv.tolist() == [pow(v, -1, p) if v else 0 for v in residues]


def test_batch_witnesses_bound_refuses_before_it_wraps():
    # n (p-1)^2 fits int64 at p = 2^31 - 1 and not at the next prime
    with pytest.raises(TooLarge, match="int64 census sums"):
        _batch_witnesses(
            matrix_algebra(2, GF(2147483659)), np.array([[0], [1], [0], [0]], dtype=np.int64)
        )
    p = 2**31 - 1
    alg = matrix_algebra(2, GF(p))
    # one column per case of the 2x2 construction, with inverses to compute
    xs = np.array([[[3, 5], [7, p - 2]], [[2, 0], [9, 4]], [[3, 0], [0, p - 1]]])
    a = _batch_witnesses(alg, _column_block(xs))
    assert a.dtype == np.int64
    for x, am in zip(xs, a.T):
        wa, _ = witness_idempotents(alg.element(tuple(x.reshape(-1).tolist())))
        assert am.tolist() == list(wa.coords)


def _patch_census_product(monkeypatch, make):
    """Replace ``_scan.batch_mul`` as matrixlab reads it by ``make`` of the
    real one.  The hyperplane scans read ``_scan`` through other modules
    and keep the real product."""
    scan = types.SimpleNamespace(**vars(_scan))
    scan.batch_mul = make(_scan.batch_mul)
    monkeypatch.setattr(matrixlab, "_scan", scan)


def _check_census_kernel_calls(monkeypatch, n, q, widths):
    """Run the census of M_n(F_q) with spies on its blocks, its kernel calls
    and their products, and check the calls have the given widths."""
    built, handed, products = [], [], []

    def blocks(*args):
        for item in _class_blocks(*args):
            built.append(item[-1])
            yield item

    def refute(alg, x):
        handed.append(x)
        return _batch_witnesses(alg, x)

    def spy(batch_mul):
        def product(a, x, y):
            out = batch_mul(a, x, y)
            products.append((x, y, {x.dtype, y.dtype, out.dtype}))
            return out

        return product

    monkeypatch.setattr(matrixlab, "_class_blocks", blocks)
    monkeypatch.setattr(matrixlab, "_batch_witnesses", refute)
    _patch_census_product(monkeypatch, spy)
    classify_codim1(n, q)
    dtype = np.dtype(np.int8)  # exact_dtype(n (q-1)^2) for these n, q
    assert [x.shape[1] for x in handed] == widths
    assert sum(widths) == (q ** (n * n) - 1) // (q - 1) - 1
    for x in handed:
        assert x.dtype == dtype and x.flags.c_contiguous
    # every class but the identity, in canonical order
    classes = np.concatenate(built, axis=1)
    ident = np.eye(n, dtype=dtype).reshape(-1, 1)
    assert np.array_equal(
        np.concatenate(handed, axis=1), classes[:, ~np.all(classes == ident, axis=0)]
    )
    # a call of one whole block reads the very array built; the identity's
    # block, which loses that column, and a concatenation are new arrays
    spans = [block.shape[1] for block in built]
    spans[0] -= 1  # the identity's block
    bounds = np.cumsum([0] + spans).tolist()
    cuts = np.cumsum([0] + [x.shape[1] for x in handed]).tolist()
    assert set(cuts) <= set(bounds)
    for x, lo, hi in zip(handed, cuts, cuts[1:]):
        own = [b for b, s, e in zip(built, bounds, bounds[1:]) if lo <= s and e <= hi]
        if len(own) == 1 and own[0] is not built[0]:
            assert x is own[0]
        else:
            assert not any(np.shares_memory(x, block) for block in built)
    # each call's products AX and AA, in that order, take its block itself
    # as X, and every operand and product is in the block's dtype, so none
    # is cast
    assert len(products) == 2 * len(handed)
    for i, x in enumerate(handed):
        (a, ax, _), (aa, a2, _) = products[2 * i : 2 * i + 2]
        assert ax is x and a is aa is a2
    assert set().union(*(dtypes for _, _, dtypes in products)) == {dtype}


def test_census_kernel_reads_the_class_block_in_place(monkeypatch):
    # M_3(F_3)'s nine blocks, 3^8 classes at most, share one call
    _check_census_kernel_calls(monkeypatch, 3, 3, [9_840])


def test_census_kernel_takes_full_blocks_alone_and_short_ones_together(monkeypatch):
    # M_3(F_5): the full blocks one call each (the first less the identity),
    # then its last eight blocks, 15,625 + 3,906 classes, in one; two
    # products per call, 18 in all
    widths = [62_499] + [62_500] * 5 + [15_625, 62_500, 35_156]
    _check_census_kernel_calls(monkeypatch, 3, 5, widths)


def _bump_entry_00(out, p):
    out[0] = (out[0] + 1) % p
    return out


def _fault_entries(fault):
    """A fault for _witness_2x2_columns: ``fault`` rewrites the entries of
    A's 2x2 construction, given the kernel's arguments."""
    return lambda f: lambda *args: fault(f(*args), *args)


# name -> (kernel, fault, the check that must catch it)
WITNESS_FAULTS = {
    "product corrupts one entry": (
        "batch_mul",
        lambda f: lambda a, x, y: _bump_entry_00(f(a, x, y), a.field.order),
        "A is not idempotent",
    ),
    "product with the dual is zero": (
        "batch_mul",
        lambda f: lambda a, x, y: f(a, x, y) * (x is y),
        "A annihilates the dual",
    ),
    "product with the dual corrupts its trace": (
        "batch_mul",
        lambda f: lambda a, x, y: (
            f(a, x, y) if x is y else _bump_entry_00(f(a, x, y), a.field.order)
        ),
        "A left the hyperplane",
    ),
    # [[1, 0], [t, 0]] stays idempotent for every t, so only the trace tells
    "wrong case-1 value": (
        "_witness_2x2_columns",
        _fault_entries(lambda v, a, b, c, d, p: (v[0], v[1], (v[2] + (b != 0)) % p, v[3])),
        "A left the hyperplane",
    ),
    "zero case values": (
        "_witness_2x2_columns",
        _fault_entries(lambda v, *args: tuple(e * 0 for e in v)),
        "A is trivial",
    ),
    "identity case values": (
        "_witness_2x2_columns",
        _fault_entries(lambda v, *args: tuple(e * 0 + i for e, i in zip(v, (1, 0, 0, 1)))),
        "A is trivial",
    ),
}


def _patch_witness_kernel(monkeypatch, kernel, make):
    if kernel == "batch_mul":
        _patch_census_product(monkeypatch, make)
    else:
        monkeypatch.setattr(matrixlab, kernel, make(getattr(matrixlab, kernel)))


@pytest.mark.parametrize("fault", sorted(WITNESS_FAULTS))
def test_batch_witness_checks_catch_a_faulty_kernel(monkeypatch, fault):
    kernel, make, message = WITNESS_FAULTS[fault]
    _patch_witness_kernel(monkeypatch, kernel, make)
    xs = _random_nonscalar_duals(2, 5, 200, seed=5)
    with pytest.raises(ConsistencyError, match=message.replace(" ", ".*")):
        _batch_witnesses(matrix_algebra(2, F5), _column_block(xs))


@pytest.mark.parametrize("fault", sorted(WITNESS_FAULTS))
def test_scan_mode_census_runs_the_witness_checks(monkeypatch, fault):
    # every class of M_2(F_3) fits the default budget, so each one is
    # re-decided by the criterion, and each is still refuted by its
    # built idempotents, whose checks catch the faulty kernel
    kernel, make, message = WITNESS_FAULTS[fault]
    _patch_witness_kernel(monkeypatch, kernel, make)
    with pytest.raises(ConsistencyError, match=message.replace(" ", ".*")):
        classify_codim1(2, 3)


# -- classification --------------------------------------------------------------------------


def _coeff_block_classes(q, d, lead, start, stop):
    """Census classes start..stop at ``lead``, one block of coeff_block of
    their tails: zeros, a row of ones at ``lead``, then the tail digits."""
    block = np.zeros((d, stop - start), dtype=_scan.exact_dtype(math.isqrt(d) * (q - 1) ** 2))
    block[lead] = 1
    block[lead + 1 :] = _scan.coeff_block(q, d - 1 - lead, start, stop)
    return block


def _check_class_block(q, d, lead, start, block):
    want = _coeff_block_classes(q, d, lead, start, start + block.shape[1])
    assert block.dtype == want.dtype and block.flags.c_contiguous
    assert np.array_equal(block, want)


@pytest.mark.parametrize("n, q", [(2, 3), (2, 5), (3, 2), (3, 3), (3, 5)])
def test_class_blocks_match_the_coeff_block_construction(n, q):
    d = n * n
    blocks = list(_class_blocks(q, d))
    for lead, start, block in blocks:
        _check_class_block(q, d, lead, start, block)
    # every lead's tail is covered in order, with no gap and no overlap
    spans = [(lead, start, start + block.shape[1]) for lead, start, block in blocks]
    assert [lead for lead, _, _ in spans] == sorted(lead for lead, _, _ in spans)
    for lead in range(d):
        cuts = [(s, e) for l, s, e in spans if l == lead]
        assert cuts[0][0] == 0 and cuts[-1][1] == q ** (d - 1 - lead)
        assert all(e == s for (_, e), (s, _) in zip(cuts, cuts[1:]))
    if (n, q) == (3, 5):  # four runs of 5^6 classes
        assert max(e - s for _, s, e in spans) == 4 * 5**6


def test_class_blocks_past_one_block_of_digits():
    # M_2(F_257): 257^2 > DEFAULT_BLOCK, so the table holds one digit and a
    # block 255 runs of 257 classes; lead 0's 257^3 classes take 260 blocks,
    # the last one partial
    q, d = 257, 4
    blocks = list(_class_blocks(q, d))
    lead0 = [(start, block) for lead, start, block in blocks if lead == 0]
    assert len(lead0) == 260
    assert {block.shape[1] for _, block in lead0[:-1]} == {255 * 257}
    assert lead0[-1][1].shape[1] == q**3 - 259 * 255 * 257 == 1028
    for start, block in (lead0[0], lead0[129], lead0[-1]):
        _check_class_block(q, d, 0, start, block)
    for lead, start, block in blocks[len(lead0) :]:
        _check_class_block(q, d, lead, start, block)


def test_classify_codim1_small_cases():
    report = classify_codim1(2, 3)
    assert report.decision == "scan"
    assert report.total_classes == 40
    assert all(count == 1 for count in report.per_theta.values())
    assert report.representatives["two_sided"] == [["1", "0", "0", "1"]]

    report = classify_codim1(2, 2)
    assert report.total_classes == 15
    assert all(count == 0 for count in report.per_theta.values())


def test_classify_codim1_witness_mode_matches_scan():
    # 40 classes x 27 vectors per hyperplane exceeds 1000, and 511 x 256
    # exceeds 20000; a single hyperplane scan fits either budget
    for n, q, max_scan in ((2, 3, 1000), (3, 2, 20000)):
        by_scan = classify_codim1(n, q)
        by_witness = classify_codim1(n, q, max_scan=max_scan)
        assert (by_scan.decision, by_witness.decision) == ("scan", "witness")
        assert by_scan.per_theta == by_witness.per_theta
        assert by_scan.representatives == by_witness.representatives
        assert by_witness.scan_checked >= 1


def test_classify_codim1_n1():
    report = classify_codim1(1, 3)
    assert report.total_classes == 1
    assert all(count == 1 for count in report.per_theta.values())


def test_classify_lines_counts():
    report = classify_lines(2, 2)
    assert report.total_lines == 15
    for variant in ALL_VARIANTS:
        assert (
            report.per_theta[variant.value]
            == report.total_lines - report.quasi_idempotent_lines
        )
    report3 = classify_lines(2, 3)
    assert report3.total_lines == 40
    with pytest.raises(TooSmall):
        classify_lines(1, 2)


@pytest.mark.parametrize("n, q, quasi, total", [(3, 2, 57, 511), (3, 3, 235, 9_841),
                                                 (3, 5, 1_551, 488_281)])
def test_classify_lines_known_counts(n, q, quasi, total):
    # each nonzero idempotent spans a line of its own
    report = classify_lines(n, q)
    assert (report.quasi_idempotent_lines, report.total_lines) == (quasi, total)
    assert quasi == _scan.matrix_idempotent_count(n, q) - 1
    assert report.per_theta == {v.value: total - quasi for v in ALL_VARIANTS}


@pytest.mark.parametrize("census, what", [(classify_codim1, "codim-1"),
                                          (classify_lines, "line")])
def test_census_is_priced_by_its_classes_before_the_first_block(monkeypatch, census, what):
    # M_2(F_3) has 40 classes: admitted at a budget of 40, refused at 39
    # before any block is built
    built = []

    def blocks(*args):
        built.append(args)
        yield from _class_blocks(*args)

    monkeypatch.setattr(matrixlab, "_class_blocks", blocks)
    admitted, default = census(2, 3, max_scan=40).to_dict(), census(2, 3).to_dict()
    assert (admitted["total"], admitted["per_theta"]) == (40, default["per_theta"])
    built.clear()
    with pytest.raises(TooLarge, match=f"^{what} census needs 40 evaluations, budget is 39$"):
        census(2, 3, max_scan=39)
    assert built == []


def _lying_square(column, lie):
    """A batch_mul whose first square has column ``column`` rewritten by
    ``lie(square column, class column, p)``."""

    def wrap(f):
        squares = []

        def product(alg, x, y):
            out = f(alg, x, y)
            if x is y:
                squares.append(x)
                if len(squares) == 1:
                    out[:, column] = lie(out[:, column], x[:, column], alg.field.order)
            return out

        return product

    return wrap


def _translate_on_the_line(monkeypatch):
    """A batch_mul that returns 2a for every product of a class block a
    with anything else, so each translate lies on a's line."""
    blocks = []

    def spy(*args):
        for item in _class_blocks(*args):
            blocks.append(item[-1])
            yield item

    monkeypatch.setattr(matrixlab, "_class_blocks", spy)

    def wrap(f):
        def product(alg, x, y):
            if x is y:
                return f(alg, x, y)
            a = x if any(x is b for b in blocks) else y
            return _scan.reduce_mod(2 * a, alg.field.order)

        return product

    return wrap


# name -> (the faulty batch_mul, given monkeypatch, and the check that catches it)
LINE_FAULTS = {
    # column 0 of M_3(F_3)'s first block is E_11, an idempotent; E_12 is
    # added to its square, so it is no longer a quasi-idempotent
    "square drops an idempotent": (
        lambda mp: _lying_square(0, lambda sq, a, p: (sq + np.eye(1, 9, 1, dtype=sq.dtype)[0]) % p),
        "differ in lines",
    ),
    # column 2 is E_11 + 2 E_33, whose square E_11 + E_33 is no multiple of
    # it; reporting the class itself as its square makes it an idempotent
    "square adds a line": (lambda mp: _lying_square(2, lambda sq, a, p: a), "differ in lines"),
    "translate is a multiple of the class": (_translate_on_the_line, "left translate"),
}


@pytest.mark.parametrize("fault", sorted(LINE_FAULTS))
def test_line_census_catches_a_faulty_product(monkeypatch, fault):
    make, message = LINE_FAULTS[fault]
    _patch_census_product(monkeypatch, make(monkeypatch))
    with pytest.raises(ConsistencyError, match=message):
        classify_lines(3, 3)


def test_nilpotent_line_counts_as_mathieu_for_every_variant():
    a = matrix_algebra(2, F2)
    line = span(a, [[0, 1, 0, 0]])  # span{E_12}
    for variant in ALL_VARIANTS:
        assert decide_mathieu(line, variant).is_mathieu


def test_idempotent_free_criterion():
    a3 = matrix_algebra(2, F3)
    assert mathieu_iff_idempotent_free(trace_orthogonal(a3.one()))
    a2 = matrix_algebra(2, F2)
    assert not mathieu_iff_idempotent_free(span(a2, [[1, 0, 0, 0]]))
    # E_12 + E_21 squares to the identity; the scan must agree with decide
    v = span(a2, [[0, 1, 0, 0], [0, 0, 1, 0]])
    assert mathieu_iff_idempotent_free(v) == decide_mathieu(v, Sidedness.TWO_SIDED).is_mathieu
    with pytest.raises(NotProper):
        mathieu_iff_idempotent_free(Subspace.full(a2))
