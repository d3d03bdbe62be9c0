"""Trace-pairing machinery and classification experiments for M_n(F_q).

The bilinear form (A, B) -> Tr(AB) on a full matrix algebra is nonsingular,
so every codimension-one subspace is the trace-orthogonal complement of a
dual vector X, unique up to scaling.  When X is not a scalar matrix there
are explicit nontrivial idempotents A, B with Tr(AX) = Tr(XB) = 0, AX != 0
and XB != 0; such an idempotent refutes the Mathieu property of the
hyperplane, because some basis translate of it escapes the hyperplane by
nonsingularity of the pairing.  The codim-1 census refutes every
non-identity projective class by constructing and verifying that refuting
idempotent, and re-decides every class, or a sample of them when the budget
is short, by the idempotent criterion on the hyperplane; it never just cites
the expected answer.

Projective classes are canonicalized by scaling the first nonzero
coordinate (row-major matrix order) to 1.

The census refutes a block of classes at once (:func:`_batch_witnesses`).
The block is column-major: one row per matrix entry and one column per
class, in the narrowest signed dtype that holds n (p-1)^2.  Both refuting
idempotents are built and checked on the full n x n matrices (A^2 = A,
A != 0, A != I, AX != 0, Tr(AX) = 0, and the same for B against XB) by
multiply-adds on whole rows, and equal the matrices of
:func:`witness_idempotents`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _scan
from .algebra import Algebra, Element, is_quasi_idempotent, matrix_algebra
from .errors import (
    ConsistencyError,
    InfiniteField,
    NotMatrixAlgebra,
    NotProper,
    ScalarDual,
    TooLarge,
    TooSmall,
    WrongCodimension,
    ZeroDual,
)
from .fields import GF, Field, Scalar
from .mathieu import (
    MAX_SCAN_DEFAULT,
    _idempotents_of,
    decide_all_variants,
    decide_mathieu,
    line_is_mathieu,
)
from .subspace import (
    ALL_VARIANTS,
    Sidedness,
    Subspace,
    _solution_space,
    enumerate_subspaces,
    gaussian_binomial,
)

#: Witness-mode codim-1 censuses re-decide every (total // (SCAN_SAMPLES + 1))-th
#: class by the idempotent criterion, as a cross-check of the refuting
#: idempotents.
SCAN_SAMPLES = 2


def _require_matrix(a: Algebra) -> int:
    n = a.matrix_size
    if n is None:
        raise NotMatrixAlgebra(f"{a.label} is not a matrix algebra on matrix units")
    return n


# -- the trace pairing ---------------------------------------------------------


def trace_of_product(x: Element, y: Element) -> Scalar:
    """Tr(XY) for two matrix-algebra elements; the nonsingular pairing."""
    a = x.algebra
    n = _require_matrix(a)
    return a.field.reduce(
        sum(x.coords[i * n + j] * y.coords[j * n + i] for i in range(n) for j in range(n))
    )


def trace_orthogonal(x: Element) -> Subspace:
    """The codimension-one subspace of matrices A with Tr(A x) = 0."""
    a = x.algebra
    n = _require_matrix(a)
    if x.is_zero:
        raise ZeroDual("the zero dual defines no hyperplane")
    functional = [x.coords[j * n + i] for i in range(n) for j in range(n)]
    return _solution_space(a, [functional])


@dataclass(frozen=True)
class TraceDual:
    """Dual vector of a codimension-one subspace and its projective representative."""

    x: Element
    canonical: Element


def canonical_rep(x: Element) -> Element:
    """Scale so the first nonzero coordinate (row-major) becomes 1."""
    if x.is_zero:
        raise ZeroDual("zero has no projective representative")
    f = x.algebra.field
    lead = next(c for c in x.coords if c != 0)
    return x.scale(f.inv(lead))


def trace_dual(v: Subspace) -> TraceDual:
    """The X (unique up to scaling) with v = {A : Tr(AX) = 0}."""
    a = v.ambient
    n = _require_matrix(a)
    if v.codim != 1:
        raise WrongCodimension(f"expected codimension 1, got {v.codim}")
    functional = v.constraints()[0]
    coords = [a.field.zero] * a.dim
    for i in range(n):
        for j in range(n):
            coords[j * n + i] = functional[i * n + j]
    x = Element(a, tuple(coords))
    return TraceDual(x, canonical_rep(x))


# -- refuting idempotents -----------------------------------------------------------


def _witness_2x2(f: Field, a, b, c, d):
    """Nontrivial idempotent A' with A'X' != 0 and Tr(A'X') = 0, X' = [[a,b],[c,d]].

    Requires X' not a scalar multiple of the identity; three explicit cases
    depending on which off-diagonal entry is available.
    """
    one, zero = f.one, f.zero
    if b != 0:
        return [[one, zero], [f.neg(f.mul(a, f.inv(b))), zero]]
    if c != 0:
        return [[zero, f.neg(f.mul(f.inv(c), d))], [zero, one]]
    s = f.inv(f.sub(d, a))  # a != d here
    sd = f.mul(s, d)
    nsa = f.neg(f.mul(s, a))
    return [[sd, sd], [nsa, nsa]]


def _left_witness_matrix(f: Field, n: int, x):
    """Nontrivial idempotent A (as a nested matrix) with AX != 0, Tr(AX) = 0.

    Takes the first index pair m < k (in ``itertools.combinations`` order)
    on which X is not scalar and places the 2x2 construction for the
    submatrix X[{m,k},{m,k}] at rows and columns m, k of a zero matrix.
    """
    for m, k in itertools.combinations(range(n), 2):
        if x[m][k] != 0 or x[k][m] != 0 or x[m][m] != x[k][k]:
            break
    else:
        raise ScalarDual("dual vector is a scalar matrix")
    a2 = _witness_2x2(f, x[m][m], x[m][k], x[k][m], x[k][k])
    a = [[f.zero] * n for _ in range(n)]
    a[m][m], a[m][k] = a2[0]
    a[k][m], a[k][k] = a2[1]
    return a


def witness_idempotents(x: Element) -> tuple[Element, Element]:
    """Idempotents A, B with Tr(Ax) = Tr(xB) = 0 but Ax != 0 and xB != 0.

    B is the transpose of the construction applied to the transpose of x.
    Defined for nonzero x not proportional to the identity, n >= 2.
    :func:`_batch_witnesses` builds the same matrices for a block of duals.
    """
    alg = x.algebra
    n = _require_matrix(alg)
    if n < 2:
        raise TooSmall("no such idempotents exist in M_1")
    if x.is_zero:
        raise ZeroDual("zero dual vector")
    f = alg.field
    rows = [x.coords[i * n : (i + 1) * n] for i in range(n)]
    a = _left_witness_matrix(f, n, rows)
    bt = _left_witness_matrix(f, n, list(zip(*rows)))
    return (
        Element(alg, tuple(c for row in a for c in row)),
        Element(alg, tuple(c for col in zip(*bt) for c in col)),
    )


# -- batched refutation kernel --------------------------------------------------------


def _column_product(x: np.ndarray, y: np.ndarray, n: int, p: int) -> np.ndarray:
    """The products XY mod p of two (n*n, B) column blocks of n x n matrices.

    Row i*n + j of a block holds entry (i, j) of every matrix.  Each product
    entry is n row-wise multiply-adds of residues, so its sum stays below
    n (p-1)^2, which the blocks' dtype holds; the whole product is reduced
    mod p once.
    """
    out = np.zeros_like(x)
    term = np.empty_like(x[0])
    for i in range(n):
        for j in range(n):
            acc = out[i * n + j]
            for k in range(n):
                np.multiply(x[i * n + k], y[k * n + j], out=term)
                acc += term
    return _scan.reduce_mod(out, p)


def _witness_2x2_columns(a, b, c, d, inv: np.ndarray, p: int):
    """:func:`_witness_2x2` on (B,) residue vectors: its entries (mm, mk, km, kk).

    ``inv`` maps each residue to its inverse (0 to 0).  Every case is
    computed for every column, and each entry is the sum of the case values
    times the disjoint 0/1 case masks, so a case that does not hold reads a
    harmless 0 inverse and contributes nothing.
    """
    case1 = b != 0
    case2 = ~case1 & (c != 0)
    case3 = ~case1 & ~case2  # then a != d
    s = inv[_scan.reduce_mod(d - a, p)]
    sd = _scan.reduce_mod(s * d, p)
    nsa = _scan.reduce_mod(-s * a, p)
    return (
        case1 + case3 * sd,
        case2 * _scan.reduce_mod(-inv[c] * d, p) + case3 * sd,
        case1 * _scan.reduce_mod(-a * inv[b], p) + case3 * nsa,
        case2 + case3 * nsa,
    )


def _batch_witnesses(xs: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The refuting idempotents (A, B) of every dual in a block, verified.

    ``xs`` is (count, n, n) over F_p with no scalar matrices.  Returns the
    matrices :func:`witness_idempotents` builds, as two (count, n, n)
    arrays.  The block is held column-major, one (count,) row per matrix
    entry, in the narrowest signed dtype that holds n (p-1)^2
    (:func:`_scan.exact_dtype`), so every step is arithmetic on whole rows.
    Each column's first non-scalar index pair is gathered once into four
    vectors a, b, c, d; A is the 2x2 case analysis on them, and B, the
    transpose of the construction on X^T, is the same analysis with b and c
    swapped, placed transposed.  On the full n x n matrices it checks
    A^2 = A, A != 0, A != I, AX != 0, Tr(AX) = 0 and B^2 = B, B != 0,
    B != I, XB != 0, Tr(XB) = 0 (:func:`_column_product`); any failure
    raises ConsistencyError.
    """
    count, n, _ = xs.shape
    dt = _scan.exact_dtype(n * (p - 1) ** 2)
    x = np.ascontiguousarray(xs.reshape(count, n * n).T, dtype=dt)
    inv = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=dt)

    # each pair's rows (mm, mk, km, kk), and a 0/1 mask of the columns whose
    # first non-scalar pair it is; the test is symmetric, so X^T shares it
    pairs = [
        (m * (n + 1), m * n + k, k * n + m, k * (n + 1))
        for m, k in itertools.combinations(range(n), 2)
    ]
    first = []
    pending = np.ones(count, dtype=bool)
    for mm, mk, km, kk in pairs:
        hit = pending & ((x[mk] != 0) | (x[km] != 0) | (x[mm] != x[kk]))
        pending &= ~hit
        first.append(hit)
    if pending.any():
        raise ConsistencyError("scalar matrix slipped into the refutation batch")
    a, b, c, d = (sum(hit * x[r] for hit, r in zip(first, rows)) for rows in zip(*pairs))

    left = _witness_2x2_columns(a, b, c, d, inv, p)
    right = _witness_2x2_columns(a, c, b, d, inv, p)
    wa = np.zeros_like(x)
    wb = np.zeros_like(x)
    for hit, (mm, mk, km, kk) in zip(first, pairs):
        for r, v in zip((mm, mk, km, kk), left):
            wa[r] += hit * v
        for r, v in zip((mm, km, mk, kk), right):
            wb[r] += hit * v

    ident = np.eye(n, dtype=dt).reshape(n * n, 1)
    for name, w, wx in (
        ("A", wa, _column_product(wa, x, n, p)),
        ("B", wb, _column_product(x, wb, n, p)),
    ):
        if not np.array_equal(_column_product(w, w, n, p), w):
            raise ConsistencyError(f"constructed {name} is not idempotent")
        if not (w.any(axis=0).all() and (w != ident).any(axis=0).all()):
            raise ConsistencyError(f"constructed idempotent {name} is trivial")
        if not wx.any(axis=0).all():
            raise ConsistencyError(f"idempotent {name} annihilates the dual vector")
        if _scan.reduce_mod(np.add.reduce(wx[:: n + 1], axis=0, dtype=dt), p).any():
            raise ConsistencyError(f"refuting idempotent {name} left the hyperplane")
    return wa.T.reshape(count, n, n), wb.T.reshape(count, n, n)


# -- classification reports --------------------------------------------------------------


@dataclass
class Codim1Report:
    """Per-variant census of Mathieu hyperplanes among all projective classes."""

    n: int
    q: int
    total_classes: int
    per_theta: dict[str, int]
    representatives: dict[str, list[list[str]]]
    #: the stride of the criterion re-check: "scan" re-decides every class,
    #: "witness" every (total // (SCAN_SAMPLES + 1))-th; both refute every
    #: non-identity class by its built idempotents
    decision: str
    scan_checked: int  # classes decided by the idempotent criterion

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "total": self.total_classes,
            "per_theta": dict(self.per_theta),
            "representatives": self.representatives,
            "decision": self.decision,
            "scan_checked": self.scan_checked,
        }


def _canonical_class_block(q: int, d: int, lead: int, start: int, stop: int) -> np.ndarray:
    """Block of canonical projective vectors with first nonzero coordinate at ``lead``.

    The (B, d) result is the transposed view of a (d, B) array, so
    :func:`_batch_witnesses` reads its columns without a copy.
    """
    block = np.zeros((d, stop - start), dtype=np.int64)
    block[lead] = 1
    block[lead + 1 :] = _scan.coeff_block(q, d - 1 - lead, start, stop).T
    return block.T


def classify_codim1(
    n: int,
    q: int,
    max_scan: int = MAX_SCAN_DEFAULT,
) -> Codim1Report:
    """Decide the Mathieu property of every codimension-one class of M_n(F_q).

    The trace hyperplane (X the identity) is decided by the idempotent
    criterion, and its verdicts are the census's counts.  The other classes
    are walked in canonical blocks, each refuted by its verified refuting
    idempotents (:func:`_batch_witnesses`), and every ``stride``-th class is
    re-decided by the idempotent criterion, which must find it refuted too.
    The budget sets only the stride: 1 when a scan of every class fits in
    ``max_scan`` ("scan"), else ``total // (SCAN_SAMPLES + 1)`` ("witness").
    """
    field = GF(q)
    alg = matrix_algebra(n, field)
    d = alg.dim
    total = (q**d - 1) // (q - 1)
    decision = "scan" if total * q ** (d - 1) <= max_scan else "witness"
    stride = 1 if decision == "scan" else max(total // (SCAN_SAMPLES + 1), 1)

    identity = alg.one()
    rep = [field.format(c) for c in identity.coords]
    counts: dict[str, int] = {}
    reps: dict[str, list[list[str]]] = {}
    for variant, verdict in decide_all_variants(trace_orthogonal(identity), max_scan).items():
        counts[variant.value] = int(verdict.is_mathieu)
        reps[variant.value] = [rep] if verdict.is_mathieu else []
    scan_checked = 1

    # the identity's index among the lead-0 classes: its coordinates after
    # the leading 1, read as base-q digits
    ident_at = sum(c * q ** (d - 1 - i) for i, c in enumerate(identity.coords) if i)
    seen = 0
    refuted = 0
    for lead in range(d):
        tail_total = q ** (d - 1 - lead)
        for start in range(0, tail_total, _scan.DEFAULT_BLOCK):
            stop = min(start + _scan.DEFAULT_BLOCK, tail_total)
            block = _canonical_class_block(q, d, lead, start, stop)
            if lead == 0 and start <= ident_at < stop:
                block = np.delete(block.T, ident_at - start, axis=1).T
            if len(block):
                _batch_witnesses(block.reshape(-1, n, n), q)
                refuted += len(block)
            # the rows whose index seen + row_idx is a multiple of the stride
            for row_idx in range(-seen % stride, len(block), stride):
                coords = tuple(int(c) for c in block[row_idx])
                verdicts = decide_all_variants(trace_orthogonal(alg.element(coords)), max_scan)
                if any(v.is_mathieu for v in verdicts.values()):
                    raise ConsistencyError(f"scan and witness disagree on {coords}")
                scan_checked += 1
            seen += stop - start
    if refuted != total - 1:
        raise ConsistencyError(f"refuted {refuted} classes, expected {total - 1}")

    return Codim1Report(n, q, total, counts, reps, decision, scan_checked)


@dataclass
class LinesReport:
    """Census of one-dimensional Mathieu subspaces of M_n(F_q)."""

    n: int
    q: int
    total_lines: int
    per_theta: dict[str, int]
    quasi_idempotent_lines: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "total": self.total_lines,
            "per_theta": dict(self.per_theta),
            "quasi_idempotent_lines": self.quasi_idempotent_lines,
        }


def classify_lines(n: int, q: int, max_scan: int = MAX_SCAN_DEFAULT) -> LinesReport:
    """Evaluate the one-dimensional rule on every projective line of M_n(F_q).

    For n >= 2 no line is a sided ideal, so a line is a Mathieu subspace
    exactly when its generator is not a quasi-idempotent; the counts are
    cross-checked against that equivalence per variant and any discrepancy
    raises ConsistencyError.
    """
    if n < 2:
        raise TooSmall("the line census needs n >= 2")
    alg = matrix_algebra(n, GF(q))
    total = gaussian_binomial(alg.dim, 1, q)
    if total > max_scan:
        raise TooLarge(total, max_scan, what="line census")
    counts = {v.value: 0 for v in ALL_VARIANTS}
    quasi = 0
    for line in enumerate_subspaces(alg, 1, max_count=max(total, 1)):
        gen = Element(alg, line.basis[0])
        if is_quasi_idempotent(gen):
            quasi += 1
        for variant in ALL_VARIANTS:
            if line_is_mathieu(gen, variant):
                counts[variant.value] += 1
    for variant in ALL_VARIANTS:
        if counts[variant.value] != total - quasi:
            raise ConsistencyError(
                f"{variant.value}: {counts[variant.value]} Mathieu lines but "
                f"{total} - {quasi} quasi-idempotent generated"
            )
    return LinesReport(n, q, total, counts, quasi)


def mathieu_iff_idempotent_free(v: Subspace, max_scan: int = MAX_SCAN_DEFAULT) -> bool:
    """Proper-subspace criterion in a matrix algebra, asserted both ways.

    Returns whether ``v`` contains no nonzero idempotent, after verifying
    that this equals the full two-sided decision (ConsistencyError if not).
    """
    alg = v.ambient
    _require_matrix(alg)
    if not alg.field.is_finite:
        raise InfiniteField("idempotent scan needs a finite field")
    if v.is_full:
        raise NotProper("criterion applies to proper subspaces only")
    zero = tuple(alg.field.zero for _ in range(alg.dim))
    flag = all(e == zero for e in _idempotents_of(v, max_scan))
    verdict = decide_mathieu(v, Sidedness.TWO_SIDED, max_scan).is_mathieu
    if flag != verdict:
        raise ConsistencyError(
            f"idempotent-free={flag} but two-sided decision={verdict}"
        )
    return flag
