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
class, in the narrowest signed dtype that holds n (p-1)^2.  It is written
in that layout and dtype from one table of its low digits
(:func:`_class_blocks`).  The kernel reads a full block in place, with no
copy; the short blocks of the high leads are concatenated into one call.
The kernel builds the left refuting idempotent A only
(:func:`_witness_2x2_columns`), once on the whole block at the first
index pair, (0, 1), and again on the next pair for just the columns that
are scalar there, gathered, until none is left.  A is checked on the full
n x n matrices (A^2 = A, A != 0, A != I, AX != 0, Tr(AX) = 0) with the
products of :func:`mathieu_kit._scan.batch_mul`, the kernel that builds
the power tables, and equals the A of :func:`witness_idempotents`.  The
right refutation of X needs no second check: the construction is
scale-invariant, so B(X) = A(canon X^T)^T, and X -> canon(X^T) is an
involution on the non-identity classes, all of which the census walks,
so every B is the transpose of an A it verifies on another class.

The line census (:func:`classify_lines`) walks the same canonical
classes, each a line's basis row with lead entry 1, in the same blocks.
Both censuses are priced by their class count, the number of lines
:func:`mathieu_kit.subspace.gaussian_binomial` gives, before the first
block is built.  The line census has two routes: the
quasi-idempotent classes are read off each block's squares from
:func:`mathieu_kit._scan.batch_mul`, and must be exactly the lines of the
constructed idempotents (:func:`mathieu_kit._scan.construct_matrix_idempotents`),
compared as sets of class indices.  One batched translate on each side
per block, the lead at (r, c), shows that no line is a sided ideal:
E_ir a (i != r) and a E_ci (i != c) are nonzero and 0 at the lead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _scan
from .algebra import Algebra, Element, matrix_algebra
from .errors import (
    MAX_SCAN_DEFAULT,
    ConsistencyError,
    InfiniteField,
    NotMatrixAlgebra,
    NotProper,
    ScalarDual,
    TooSmall,
    WrongCodimension,
    ZeroDual,
    charge,
)
from .fields import GF, Field, Scalar
from .mathieu import _idempotents_of, decide_all_variants, decide_mathieu
from .subspace import ALL_VARIANTS, Sidedness, Subspace, _solution_space, gaussian_binomial

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
    :func:`_batch_witnesses` builds the same A for a block of duals, and
    only A: the construction is scale-invariant, so B is the batched A of
    the class canon(x^T), transposed, which the codim-1 census also walks.
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


def _inverses(v: np.ndarray, p: int) -> np.ndarray:
    """v^(p-2) mod p (v itself at p = 2), elementwise: the inverse of every
    nonzero residue in v, and 0 for 0.

    Square-and-multiply on whole arrays, so no table of p inverses is
    built and every prime p works.  Each product of two residues is at most
    (p-1)^2, which v's dtype must hold.
    """
    # (3, 65536) int8 residues mod 5: 0.15 ms, against 0.20 ms for np.take from a
    # table of inverses and 0.51 ms for int8 fancy indexing (2-vCPU Xeon VM)
    out = v
    for bit in bin(p - 2)[3:]:  # the bits after the leading one
        out = _scan.reduce_mod(out * out, p)
        if bit == "1":
            out = _scan.reduce_mod(out * v, p)
    return out


def _witness_2x2_columns(a, b, c, d, p: int):
    """:func:`_witness_2x2` on (B,) residue vectors: the entries (mm, mk,
    km, kk) of A's construction on X' = [[a, b], [c, d]].

    Every case is computed for every column, and each entry is the sum of
    the case values times the disjoint 0/1 case masks, so a case that does
    not hold reads a harmless inverse of 0 and contributes nothing.
    """
    s, inv_b, inv_c = _inverses(np.stack([_scan.reduce_mod(d - a, p), b, c]), p)
    case1 = b != 0
    case2 = ~case1 & (c != 0)
    case3 = (b == 0) & (c == 0)
    sd = case3 * _scan.reduce_mod(s * d, p)
    nsa = case3 * _scan.reduce_mod(-s * a, p)
    return (
        case1 + sd,
        case2 * _scan.reduce_mod(-inv_c * d, p) + sd,
        case1 * _scan.reduce_mod(-a * inv_b, p) + nsa,
        case2 + nsa,
    )


def _batch_witnesses(alg: Algebra, x: np.ndarray) -> np.ndarray:
    """The left refuting idempotent A of every dual in a block, verified.

    ``alg`` is M_n(F_p) on matrix units, and ``x`` an (n*n, count) block
    over F_p, column-major: row i*n + j holds entry (i, j) of every dual,
    and no column is a scalar matrix.
    Returns the A that :func:`witness_idempotents` builds, as a block in
    the same layout, in the narrowest signed dtype that holds n (p-1)^2
    (:func:`_scan.exact_dtype`); ``x`` is cast to it, and a block already
    in it is read in place, not copied.  Every step is arithmetic on whole
    rows.  A is the 2x2 case analysis (:func:`_witness_2x2_columns`) on a
    column's first non-scalar index pair (m, k), on a = x_mm, b = x_mk,
    c = x_km, d = x_kk.  It runs once on the whole block at pair (0, 1),
    reading those rows as views and writing its entries straight into the
    rows of A.  The columns scalar on that pair (3,906 of M_3(F_5)'s
    488,281 classes) read the harmless inverse of 0 there; they are
    gathered and rebuilt on the next pair, their columns of A zeroed
    before the pair's rows are written, and so on until no column is
    left.  A column scalar on every pair raises ConsistencyError.  On the
    full n x n matrices it checks A^2 = A, A != 0, A != I, AX != 0 and
    Tr(AX) = 0, with the products AX and AA taken by
    :func:`_scan.batch_mul` in ``alg``; any failure raises
    ConsistencyError.

    These checks catch a wrong A, whatever built it, and a faulty product
    that makes a right A fail one of them.  They do not catch a faulty
    product that makes a wrong A pass (a square that returns its operand,
    say): the products are not recomputed by ``_scan._check_products``,
    which would take the M_3(F_5) census from 35 to 59 ms in process
    (2-vCPU Xeon VM).  That escape is left to the census's second route,
    the idempotent criterion on every class or a fixed sample of them
    (:func:`classify_codim1`), and to the tests, which compare A with
    :func:`witness_idempotents` class by class.

    B, the right refuting idempotent of :func:`witness_idempotents`, is
    not built: the construction and its first non-scalar pair are
    scale-invariant, so B(X) = A(canon X^T)^T, and the checks on A at
    canon(X^T) are those on B at X, transposed (Tr(XB) = Tr(A X^T) up to
    a nonzero scale).  X -> canon(X^T) is an involution on the
    non-identity classes, and :func:`classify_codim1` checks that its
    calls refuted every one of them.

    Bound: every sum is of n products of residues, at most n (p-1)^2, and
    must fit int64.  A larger bound (from n = 2 at p = 2,147,483,659, the
    first prime past 2^31) raises TooLarge before anything is allocated.
    That bound is also :func:`_scan.batch_mul`'s in M_n, so the products
    read the blocks in place, in the same dtype.
    """
    n, p = alg.matrix_size, alg.field.order
    dt = _scan.sum_dtype(n * (p - 1) ** 2, f"census sums of M_{n}(F_{p})")
    x = x.astype(dt, copy=False)

    # every column is built on pair (0, 1); the columns scalar on a pair are
    # gathered and rebuilt on the next
    wa = np.empty_like(x)
    cols = slice(None)
    for m, k in itertools.combinations(range(n), 2):
        rows = mm, mk, km, kk = m * (n + 1), m * n + k, k * n + m, k * (n + 1)
        xs = x[:, cols]
        wa[:, cols] = 0
        for r, v in zip(rows, _witness_2x2_columns(xs[mm], xs[mk], xs[km], xs[kk], p)):
            wa[r, cols] = v
        scalar = (xs[mk] == 0) & (xs[km] == 0) & (xs[mm] == xs[kk])
        if not scalar.any():
            break
        cols = np.flatnonzero(scalar) if isinstance(cols, slice) else cols[scalar]
    else:
        raise ConsistencyError("scalar matrix slipped into the refutation batch")

    ident = np.eye(n, dtype=dt).reshape(n * n, 1)
    wx = _scan.batch_mul(alg, wa, x)
    if not np.array_equal(_scan.batch_mul(alg, wa, wa), wa):
        raise ConsistencyError("constructed A is not idempotent")
    if not (wa.any(axis=0).all() and (wa != ident).any(axis=0).all()):
        raise ConsistencyError("constructed idempotent A is trivial")
    if not wx.any(axis=0).all():
        raise ConsistencyError("idempotent A annihilates the dual vector")
    if _scan.reduce_mod(np.add.reduce(wx[:: n + 1], axis=0, dtype=dt), p).any():
        raise ConsistencyError("refuting idempotent A left the hyperplane")
    return wa


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


def _class_blocks(q: int, d: int):
    """Yield (lead, start, block) for every canonical projective vector of
    F_q^d, lead by lead, in index order.

    Column b of a block is the vector with a 1 at ``lead``, zeros before
    it, and after it the (start + b)-th vector of {0..q-1}^r, r = d - 1 -
    lead.  A block is C-contiguous (d, B), one column per class, in the
    census kernel's dtype (:func:`_scan.exact_dtype` of n (q-1)^2, d =
    n^2), and :func:`_batch_witnesses` reads it in place.

    Every block is cut from one digit table, :func:`_scan.coeff_block` of
    the k lowest digits, k the most with q^k <= DEFAULT_BLOCK (at most
    d - 1).  A tail of r <= k digits is the first q^r columns of the
    table's last r rows.  A longer one comes in blocks of m runs of q^k
    classes, m = DEFAULT_BLOCK // q^k (no more than the longest tail
    holds): each run's low k rows are the table, and its r - k high digits
    are decoded once and broadcast along it.
    """
    dtype = _scan.exact_dtype(math.isqrt(d) * (q - 1) ** 2)
    k = next(k for k in range(d - 1, -1, -1) if q**k <= _scan.DEFAULT_BLOCK)
    run = q**k
    table = _scan.coeff_block(q, k, 0, run).astype(dtype)
    width = run * min(_scan.DEFAULT_BLOCK // run, q ** (d - 1 - k))
    for lead in range(d):
        r = d - 1 - lead
        tail = q**r
        for start in range(0, tail, width):
            stop = min(start + width, tail)
            block = np.zeros((d, stop - start), dtype=dtype)
            block[lead] = 1
            if r <= k:
                block[lead + 1 :] = table[k - r :, :tail]
            else:
                runs = block[lead + 1 :].reshape(r, -1, run)
                runs[: r - k] = _scan.coeff_block(q, r - k, start // run, stop // run)[..., None]
                runs[r - k :] = table[:, None]
            yield lead, start, block


def _census_batches(q: int, d: int, skip: int):
    """Yield the census's kernel calls, each a list of (seen, block).

    The blocks are :func:`_class_blocks`'s, in order, with lead-0 class
    ``skip`` (the identity) deleted, and ``seen`` is the index of a block's
    first class among all of them before that deletion.  A list holds
    consecutive blocks whose widths sum to at most DEFAULT_BLOCK, so a full
    block is a call of its own and the short tails of the high leads share
    one.
    """
    batch, width, seen = [], 0, 0
    for lead, start, block in _class_blocks(q, d):
        classes = block.shape[1]
        if lead == 0 and start <= skip < start + classes:
            block = np.delete(block, skip - start, axis=1)
        if batch and width + block.shape[1] > _scan.DEFAULT_BLOCK:
            yield batch
            batch, width = [], 0
        batch.append((seen, block))
        width += block.shape[1]
        seen += classes
    yield batch


def classify_codim1(
    n: int,
    q: int,
    max_scan: int = MAX_SCAN_DEFAULT,
) -> Codim1Report:
    """Decide the Mathieu property of every codimension-one class of M_n(F_q).

    The trace hyperplane (X the identity) is decided by the idempotent
    criterion, and its verdicts are the census's counts.  The other classes
    are walked in canonical blocks and refuted by their verified left
    refuting idempotents A (:func:`_batch_witnesses`), one kernel call per
    full block and one for each run of short blocks, concatenated, that
    together fit DEFAULT_BLOCK columns (:func:`_census_batches`).  The
    right refutation of class X is A of class canon(X^T), transposed; that
    map is an involution on the non-identity classes, so the closing count
    (every one of the total - 1 refuted) covers both sides.  After each
    call every ``stride``-th class of it is re-decided by the idempotent
    criterion, which must find it refuted too.
    The walk is priced first, at one evaluation per class, the
    (q^d - 1)/(q - 1) lines of F_q^d (:func:`gaussian_binomial`).  Past
    that the budget sets only the stride: 1 when a scan of every class fits
    in ``max_scan`` ("scan"), else ``total // (SCAN_SAMPLES + 1)``
    ("witness").
    """
    field = GF(q)
    alg = matrix_algebra(n, field)
    d = alg.dim
    total = gaussian_binomial(d, 1, q)
    charge(total, max_scan, "codim-1 census")
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
    refuted = 0
    for batch in _census_batches(q, d, ident_at):
        x = batch[0][1] if len(batch) == 1 else np.concatenate([b for _, b in batch], axis=1)
        if x.shape[1]:
            _batch_witnesses(alg, x)
            refuted += x.shape[1]
        # the columns whose index seen + col is a multiple of the stride
        for seen, block in batch:
            for col in range(-seen % stride, block.shape[1], stride):
                coords = tuple(block[:, col].tolist())
                verdicts = decide_all_variants(trace_orthogonal(alg.element(coords)), max_scan)
                if any(v.is_mathieu for v in verdicts.values()):
                    raise ConsistencyError(f"scan and witness disagree on {coords}")
                scan_checked += 1
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

    A line is Mathieu exactly when it is its own sided ideal or its
    generator is not a quasi-idempotent.  The lines are the codim-1
    census's canonical classes, walked in the same blocks
    (:func:`_class_blocks`, priced at one evaluation per class, the
    :func:`gaussian_binomial` count of lines): each class a
    is a line's RREF basis row, lead entry 1, so it is a quasi-idempotent
    exactly when r = (a^2)[lead] != 0 and a^2 = r a, a test on the block's
    squares from :func:`_scan.batch_mul`.  For n >= 2 no line is a sided
    ideal, and each block shows it with one batched translate on each side:
    with the lead at (r, c), E_ir a (i = r + 1 mod n) is row r of a moved
    to row i, and a E_ci is column c of a moved to column i; each is
    nonzero and 0 at the lead, so not a multiple of a.  Every variant's
    count is then total - quasi.

    Second route: two distinct nonzero idempotents never span the same line
    (e and c e both idempotent force c = 1), so the quasi-idempotent
    classes must be exactly the nonzero rows of
    :func:`_scan.construct_matrix_idempotents`, each scaled by the inverse
    of its lead, a construction that shares no product with the squares.
    The two are compared as sets of :func:`_scan.encode` indices.  A
    translate that fails its test, or sets that differ, raise
    ConsistencyError.

    The squares and translates are not recomputed by
    ``_scan._check_products`` (see :func:`_batch_witnesses` for its cost).
    A faulty square that adds or drops a quasi-idempotent class, and so
    changes a count, is caught at runtime by the constructed lines.  A
    faulty translate is caught when it makes a translate fail its test
    (one on the class's own line, say); one that makes a translate pass
    changes no count, and goes unseen at runtime and in the tests.
    """
    if n < 2:
        raise TooSmall("the line census needs n >= 2")
    alg = matrix_algebra(n, GF(q))
    d = alg.dim
    total = gaussian_binomial(d, 1, q)
    charge(total, max_scan, "line census")
    found = []
    for lead, _, a in _class_blocks(q, d):
        square = _scan.batch_mul(alg, a, a)
        ratio = square[lead]
        mask = (ratio != 0) & (square == _scan.reduce_mod(ratio * a, q)).all(axis=0)
        found.append(_scan.encode(q, a[:, mask]))
        r, c = divmod(lead, n)
        left, right = np.zeros_like(a), np.zeros_like(a)
        left[(r + 1) % n * n + r] = right[c * n + (c + 1) % n] = 1  # E_ir, E_ci
        for side, t in (("left", _scan.batch_mul(alg, left, a)),
                        ("right", _scan.batch_mul(alg, a, right))):
            if t[lead].any() or not t.any(axis=0).all():
                raise ConsistencyError(f"a {side} translate of a line of {alg.label} stays on it")
    idem = _scan.construct_matrix_idempotents(n, q)
    idem = idem[idem.any(axis=1)]
    leads = idem[np.arange(len(idem)), (idem != 0).argmax(axis=1)]
    want = np.sort(_scan.encode(q, _scan.reduce_mod(idem.T * _inverses(leads, q), q)))
    found = np.sort(np.concatenate(found))
    if not np.array_equal(found, want):
        raise ConsistencyError(f"the squares and the idempotents of {alg.label} differ in lines")
    quasi = len(found)
    return LinesReport(n, q, total, {v.value: total - quasi for v in ALL_VARIANTS}, quasi)


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
