import itertools
import random

import numpy as np
import pytest

from mathieu_kit import matrixlab
from mathieu_kit.algebra import matrix_algebra, poly_quotient_algebra
from mathieu_kit.errors import (
    ConsistencyError,
    NotMatrixAlgebra,
    NotProper,
    ScalarDual,
    TooSmall,
    WrongCodimension,
    ZeroDual,
)
from mathieu_kit.fields import GF, QQ, Poly
from mathieu_kit.matrixlab import (
    _batch_witnesses,
    _canonical_class_block,
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
        for y in v.basis_elements():
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
        for lead in range(d):
            block = _canonical_class_block(q, d, lead, 0, q ** (d - 1 - lead))
            block = block[~np.all(block == ident, axis=1)]
            a, b = _batch_witnesses(block.reshape(-1, n, n), q)
            for row, am, bm in zip(block, a, b):
                wa, wb = witness_idempotents(alg.element(tuple(int(c) for c in row)))
                assert tuple(am.reshape(-1)) == wa.coords
                assert tuple(bm.reshape(-1)) == wb.coords
            classes += len(block)
        assert classes == (q**d - 1) // (q - 1) - 1
    with pytest.raises(ConsistencyError):
        _batch_witnesses(np.array([np.eye(2, dtype=np.int64)]), 3)


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
    a, b = _batch_witnesses(xs, p)
    assert a.dtype == b.dtype == dtype  # never float, never wider than needed
    alg = matrix_algebra(n, GF(p))
    for x, am, bm in zip(xs, a, b):
        wa, wb = witness_idempotents(alg.element(tuple(int(c) for c in x.reshape(-1))))
        assert am.reshape(-1).tolist() == list(wa.coords)
        assert bm.reshape(-1).tolist() == list(wb.coords)


def _bump_entry_00(out, p):
    out[0] = (out[0] + 1) % p
    return out


def _fault_on_second_call(fault):
    def wrap(f):
        calls = []  # one count per patched kernel, so each test starts afresh

        def faulty(*args):
            calls.append(args)
            out = f(*args)
            return fault(out, *args) if len(calls) == 2 else out

        return faulty

    return wrap


# name -> (kernel, fault, the check that must catch it)
WITNESS_FAULTS = {
    "product corrupts one entry": (
        "_column_product",
        lambda f: lambda x, y, n, p: _bump_entry_00(f(x, y, n, p), p),
        "A is not idempotent",
    ),
    "product with the dual is zero": (
        "_column_product",
        lambda f: lambda x, y, n, p: f(x, y, n, p) * (x is y),
        "A annihilates the dual",
    ),
    "product with the dual corrupts its trace": (
        "_column_product",
        lambda f: lambda x, y, n, p: (
            f(x, y, n, p) if x is y else _bump_entry_00(f(x, y, n, p), p)
        ),
        "A left the hyperplane",
    ),
    # [[1, 0], [t, 0]] stays idempotent for every t, so only the trace tells
    "wrong case-1 value": (
        "_witness_2x2_columns",
        lambda f: lambda a, b, c, d, inv, p: (
            lambda mm, mk, km, kk: (mm, mk, (km + (b != 0)) % p, kk)
        )(*f(a, b, c, d, inv, p)),
        "A left the hyperplane",
    ),
    "zero case values": (
        "_witness_2x2_columns",
        lambda f: lambda *args: tuple(v * 0 for v in f(*args)),
        "A is trivial",
    ),
    "identity case values": (
        "_witness_2x2_columns",
        lambda f: lambda *args: tuple(
            v * 0 + e for v, e in zip(f(*args), (1, 0, 0, 1))
        ),
        "A is trivial",
    ),
    "zero case values for B only": (
        "_witness_2x2_columns",
        _fault_on_second_call(lambda out, *args: tuple(v * 0 for v in out)),
        "B is trivial",
    ),
    "B's product with the dual corrupts its trace": (
        "_column_product",
        # calls: AX, XB, AA, BB
        _fault_on_second_call(lambda out, x, y, n, p: _bump_entry_00(out, p)),
        "B left the hyperplane",
    ),
}


@pytest.mark.parametrize("fault", sorted(WITNESS_FAULTS))
def test_batch_witness_checks_catch_a_faulty_kernel(monkeypatch, fault):
    kernel, make, message = WITNESS_FAULTS[fault]
    monkeypatch.setattr(matrixlab, kernel, make(getattr(matrixlab, kernel)))
    xs = _random_nonscalar_duals(2, 5, 200, seed=5)
    with pytest.raises(ConsistencyError, match=message.replace(" ", ".*")):
        _batch_witnesses(xs, 5)


@pytest.mark.parametrize("fault", sorted(WITNESS_FAULTS))
def test_scan_mode_census_runs_the_witness_checks(monkeypatch, fault):
    # every class of M_2(F_3) fits the default budget, so each one is
    # re-decided by the criterion, and each is still refuted by its
    # built idempotents, whose checks catch the faulty kernel
    kernel, make, message = WITNESS_FAULTS[fault]
    monkeypatch.setattr(matrixlab, kernel, make(getattr(matrixlab, kernel)))
    with pytest.raises(ConsistencyError, match=message.replace(" ", ".*")):
        classify_codim1(2, 3)


# -- classification --------------------------------------------------------------------------


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
