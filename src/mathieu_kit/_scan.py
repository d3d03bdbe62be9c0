"""Vectorized exhaustive-scan kernels for algebras over prime fields.

Everything here is exact integer arithmetic: coordinates are residues in
signed integer arrays, and every sum is reduced mod p before it could
overflow.  Each kernel states the bound of its largest unreduced sum and
works in the narrowest signed dtype that holds it (:func:`exact_dtype`);
the product, span and membership kernels and the codim-1 refutation
kernel in :mod:`mathieu_kit.matrixlab` pick it with :func:`sum_dtype`,
which refuses a bound past int64 before the kernel allocates anything.
:func:`batch_mul` sums at most n_k (p-1)^2, so M_3(F_3) multiplies in
int8; the refutation kernel sums at most n (p-1)^2, the same bound in
M_n, so M_3(F_5) runs in int8 too.  :func:`batch_mul` is the one batched
product: the power tables and the refutation kernel's checks both take
their products from it, and on M_n it multiplies a block as n x n
matrices.  Sums are reduced with :func:`reduce_mod`.

The kernels are plumbing for the decision procedures; the pure-Python
element arithmetic in :mod:`mathieu_kit.algebra` is the reference they are
tested against.  The runtime checks, each of which raises
``ConsistencyError`` before anything is kept, are:

* every :func:`batch_mul` product that a kept table or list is built from
  is recomputed by :func:`_check_products`, the one exact product check,
  from the dense structure constants in a loop that :func:`batch_mul`
  does not share: the powers of a power chunk, and the squares of every
  block an idempotent scan filters, kept and dropped vectors alike;
* the constructed idempotents of M_n are squared by the same check, and
  their rows must be distinct and as many as M_n has
  (:func:`_check_idempotents`);
* a power chunk's stored indices are decoded by :func:`digits` and must
  equal its powers, so :func:`encode` and :func:`digits` are checked on
  the window (:func:`_check_window`), and three elements of each chunk
  are replayed with the reference arithmetic, which checks
  :func:`coeff_block` on them.

Only the tests catch a fault in :func:`span_blocks` (or in the
:func:`coeff_block` digits it combines), which lists a subspace's vectors
for a scan or a bitmap, in :func:`encode` on those vectors, and in
:func:`membership_bitmap` and :func:`span_bitmap`: none of them has a
second route at runtime.  The census products of
:mod:`mathieu_kit.matrixlab` are not given to :func:`_check_products`
either: their second routes are the sampled re-decision and the
constructed-line set.

Element blocks enumerate coefficient tuples in ascending lexicographic
order (most significant digit first), which is the canonical scan order for
witness selection everywhere in the package.  An element's position in that
order is its index.  Every kernel here holds a block of B coordinate
vectors in one layout, a C-contiguous (d, B) array with one row per
coordinate, from :func:`coeff_block`'s digits (int32 where the indices
fit) to the power stack and the census block (each in the narrowest dtype
of its bound), so work on a coordinate is one pass over a row and no
kernel copies its operands into another layout.  The codim-1 census
copies only what it gathers or joins: the columns its witness
construction rebuilds on a later index pair, and its short blocks,
concatenated into one call.  An algebra's power table is built once, in
blocks of at most DEFAULT_BLOCK powers, and kept on it through
``Algebra.derived``, the one reader of what an algebra keeps: for every
element it keeps the window a^d .. a^(2d-1), d the dimension, each power
as the index of its element, so a radical query on a subspace V reads
membership in V for the stored powers by indexing one bitmap over the
indices, each power only for the elements whose earlier powers passed.
The bitmap is set from V's own elements (:func:`span_bitmap`): V's
vectors are listed in blocks, as combinations of its basis
(:func:`span_blocks`, which the idempotent scan of a subspace uses too),
and encoded to indices by :func:`encode`, the one encoder of indices, so
a warm query costs V's size and one read of the window, and no element
outside V is tested.  Only the indices the query selects are decoded
back into coordinates by :func:`digits`, the one decoder of indices
(:func:`coeff_block` is :func:`digits` of an index range).

:func:`idempotents` is the one source of the idempotents of a subspace V,
with one rule for every algebra: check the cheaper of listing the
algebra's own idempotents and scanning V's q^dim V vectors against the
budget, then filter that list, kept on the algebra through
``Algebra.derived``, by V's constraint rows N x = 0 if it is kept, or if
it costs no more than scanning V; otherwise scan V.  M_n(F_q)
on matrix units lists them by construction
(:func:`construct_matrix_idempotents`), every other algebra by one scan of
all its elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra
from .errors import ConsistencyError, InfiniteField, charge
from .subspace import gaussian_binomial

DEFAULT_BLOCK = 1 << 16

#: Algebras at most this big have their constructed idempotents checked
#: against a scan of every element as well (see :func:`_check_idempotents`).
IDEMPOTENT_RESCAN_LIMIT = 200_000


def digits(q: int, r: int, idx: np.ndarray) -> np.ndarray:
    """The vectors at lexicographic indices ``idx`` of {0..q-1}^r, as an
    (r, B) block in ``idx``'s dtype: column b is the vector at ``idx[b]``.

    An index is its vector read as r base-q digits, most significant first.
    They are peeled off least significant first into the rows of the
    C-contiguous result, each as idx - (idx // q) * q (see
    :func:`reduce_mod`).  This is the one decoder of element indices.
    """
    out = np.empty((r, len(idx)), dtype=idx.dtype)
    for i in reversed(range(r)):
        quo = idx // q
        np.subtract(idx, quo * q, out=out[i])
        idx = quo
    return out


def encode(q: int, vecs: np.ndarray) -> np.ndarray:
    """The lexicographic indices of the vectors of a (..., r, B) block of
    residues ``vecs``, as a (..., B) array: the inverse of :func:`digits`.

    Each vector is read as r base-q digits, most significant first, against
    the radix q^(r-1) .. q, 1 in :func:`exact_dtype` of q^r - 1, at least
    int32; every partial sum is below q^r.  Exact while q^r - 1 < 2^63,
    which the callers check first.  This is the one encoder of element
    indices.  ``einsum`` sums integers about three times faster than ``@``
    (a (9, 6561) int8 block: 0.028 against 0.083 ms, 2-vCPU Xeon VM).
    """
    r = vecs.shape[-2]
    dtype = np.promote_types(exact_dtype(q**r - 1), np.int32)
    radix = np.array([q ** (r - 1 - i) for i in range(r)], dtype=dtype)
    return np.einsum("r,...rb->...b", radix, vecs)


def coeff_block(q: int, r: int, start: int, stop: int) -> np.ndarray:
    """Vectors start..stop of the lexicographic enumeration of {0..q-1}^r,
    as the C-contiguous (r, B) :func:`digits` of that index range.

    The digits are peeled in int32 when the indices and q fit it, else in
    int64: a 65,536-index block of 7 base-5 digits peels in 0.31 ms in
    int32 and 0.84 ms in int64 (2-vCPU Xeon VM).  Callers that need a
    wider or narrower dtype cast the block themselves.
    """
    dtype = np.promote_types(exact_dtype(max(stop - 1, q)), np.int32)
    return digits(q, r, np.arange(start, stop, dtype=dtype))


def exact_dtype(bound: int) -> np.dtype:
    """The narrowest signed integer dtype that holds 0..``bound``, else int64.

    Never unsigned: uint64 mixed with int64 promotes to float64.  A kernel
    that uses it is exact only while ``bound`` < 2^63 (see
    :func:`sum_dtype`, which refuses past it).
    """
    for dtype, top in ((np.int8, 1 << 7), (np.int16, 1 << 15), (np.int32, 1 << 31)):
        if bound < top:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def sum_dtype(bound: int, what: str) -> np.dtype:
    """:func:`exact_dtype` of a kernel's largest unreduced sum ``bound``.

    A bound that int64 does not hold raises ``TooLarge`` (``what`` names
    the sums), so a kernel that calls this before it allocates refuses
    instead of wrapping.
    """
    charge(bound, (1 << 63) - 1, f"int64 {what}")
    return exact_dtype(bound)


def reduce_mod(v: np.ndarray, p: int) -> np.ndarray:
    """``v`` mod p in place, as v - (v // p) * p.

    numpy divides integers by a scalar with vectorized code but computes
    ``%`` one element at a time: on a 2-vCPU Xeon VM a (9, 65536) int8
    block takes 0.16 ms here and 1.7 ms with ``%`` (int64: 1.4 and 2.5 ms).  Like
    ``%``, it gives residues in 0..p-1 for negative entries too.
    """
    v -= v // p * p
    return v


def batch_mul(a: Algebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Column-wise product in ``a`` of two (d, B) coordinate blocks, mod p.

    Returns a new (d, B) block in :func:`product_dtype` of ``a``; operands
    already in it are read in place, others are cast to it.  M_n on matrix
    units (``a.matrix_size`` is n) multiplies the blocks as B n x n
    matrices at once: viewed as (n, n, B), XY is the sum over k of the
    broadcast products of column k of X, (n, 1, B), and row k of Y,
    (1, n, B).  Every other algebra reads its nonzero structure constants
    from ``a._sparse_table()``, the table the reference arithmetic
    multiplies with: each constant c = table[i][j][k] adds x_i * y_j * c to
    output row k, in (i, j, k) order, one (B,)-row pass per constant.

    Exactness: inputs are residues, and each term is at most (p-1)^2
    (x_i * y_j, reduced mod p and then multiplied by c only when c != 1).
    Row k's sum is therefore at most n_k (p-1)^2, n_k the number of nonzero
    constants with that k (n for M_n), and is reduced mod p once at the
    end.  The sums run in :func:`exact_dtype` of the largest such bound;
    one past int64 raises ``TooLarge`` before anything is allocated.
    """
    p = a.field.order  # raises InfiniteField over the rationals
    dtype = product_dtype(a)
    x = np.asarray(x, dtype=dtype)
    y = np.asarray(y, dtype=dtype)
    n = a.matrix_size
    if n is not None:
        xs, ys = x.reshape(n, n, -1), y.reshape(n, n, -1)
        out = xs[:, 0, None] * ys[None, 0]
        for k in range(1, n):
            out += xs[:, k, None] * ys[None, k]
        return reduce_mod(out.reshape(x.shape), p)
    out = np.zeros_like(x)
    term = np.empty(x.shape[1], dtype=dtype)
    for i, row in enumerate(a._sparse_table()):
        for j, entries in enumerate(row):
            for k, c in entries:
                np.multiply(x[i], y[j], out=term)
                if c != 1:
                    reduce_mod(term, p)
                    term *= c
                out[k] += term
    return reduce_mod(out, p)


def product_dtype(a: Algebra) -> np.dtype:
    """:func:`sum_dtype` of :func:`batch_mul`'s bound n_k (p-1)^2 in ``a``.

    n_k, the most nonzero structure constants that feed one output
    coordinate, is counted once from ``a._sparse_table()`` and kept as
    ``a.derived("product_bound")``; a bound past int64 raises ``TooLarge``
    on every call.
    """

    def bound():
        feeds = [0] * a.dim
        for row in a._sparse_table():
            for entries in row:
                for k, _ in entries:
                    feeds[k] += 1
        return max(feeds) * (a.field.order - 1) ** 2

    return sum_dtype(a.derived("product_bound", bound), f"product sums of {a.label}")


def span_blocks(a: Algebra, basis_rows):
    """The vectors of the span of ``basis_rows`` in ``a``, in scan order,
    as an iterator of (d, B) blocks of at most DEFAULT_BLOCK columns.

    Column b of a block is the combination of the basis rows by column b
    of :func:`coeff_block`, mod p, summed by ``einsum``, about nine times
    faster than ``@`` on integers (M_3(F_3), 8 rows by 6,561 int8 columns:
    0.034 against 0.30 ms, 2-vCPU Xeon VM).

    Exactness: a coordinate sums r products of residues, at most
    r (p-1)^2, and is reduced mod p, so the blocks are in :func:`sum_dtype`
    of that bound or of p, whichever is larger (the zero subspace of
    F_257 sums nothing but reduces mod 257).  A bound past int64 raises
    ``TooLarge`` here, when the iterator is made, before any block is.
    """
    p, r = a.field.order, len(basis_rows)
    dtype = sum_dtype(max(r * (p - 1) ** 2, p), f"span sums of {a.label}")
    basis = np.array(basis_rows, dtype=dtype).reshape(r, a.dim)
    total = p**r

    def blocks():
        for start in range(0, total, DEFAULT_BLOCK):
            coeffs = coeff_block(p, r, start, min(start + DEFAULT_BLOCK, total))
            yield reduce_mod(np.einsum("rd,rb->db", basis, coeffs.astype(dtype, copy=False)), p)

    return blocks()


def idempotent_coords(ambient: Algebra, basis_rows) -> list[tuple[int, ...]]:
    """Every idempotent in the span of ``basis_rows``, in scan order.

    Scans all q^r vectors of the span, one block of :func:`span_blocks` at
    a time, which refuses sums past int64 before anything is allocated.
    The caller has checked q^r against its budget (:func:`idempotents`
    holds the one check).

    Every block's squares are recomputed by :func:`_check_products` before
    the block is filtered, so a faulty :func:`batch_mul` square raises
    ``ConsistencyError`` whether it would keep a false idempotent or drop
    a true one.  A fault in :func:`span_blocks`, which lists the vectors,
    is caught only by the tests, which compare the scan with a walk of
    the subspace's elements in the reference arithmetic.
    """
    out = []
    for vecs in span_blocks(ambient, basis_rows):
        squares = batch_mul(ambient, vecs, vecs)
        _check_products(ambient, vecs, vecs, squares)
        out += map(tuple, vecs[:, np.all(squares == vecs, axis=0)].T.tolist())
    return out


def span_bitmap(a: Algebra, basis_rows) -> np.ndarray:
    """Boolean (p^d,) vector: which elements of ``a``, by index, lie in the
    span V of the independent ``basis_rows``.

    V's own p^r vectors are listed by :func:`span_blocks`, encoded to
    their indices by :func:`encode`, and set in a zeroed bitmap, so the
    work is V's size, not the algebra's.  The full space (d rows) is all
    True, with nothing listed.  A span whose sums int64 does not hold is
    refused before the bitmap or any block is allocated.  Indices are
    exact in int64 for algebras of at most 2^63 elements;
    :func:`power_chunks` refuses larger ones.

    No runtime check recomputes the bitmap, so a fault in
    :func:`span_blocks` or :func:`encode` here gives a wrong radical
    without an error; only the tests catch it, by comparing the bitmap
    with :func:`membership_bitmap` over every element and the radicals
    with the pure-Python reference.
    """
    if len(basis_rows) == a.dim:
        return np.ones(a.size, dtype=bool)
    blocks = span_blocks(a, basis_rows)
    out = np.zeros(a.size, dtype=bool)
    for vecs in blocks:
        out[encode(a.field.order, vecs)] = True
    return out


def idempotents(
    a: Algebra, basis_rows, constraints, max_scan: int
) -> list[tuple[int, ...]]:
    """Every idempotent of the subspace V = span(``basis_rows``), sorted.

    ``constraints`` are V's rows N with x in V iff N x = 0.  The algebra's
    own list costs its rows: the :func:`matrix_idempotent_count` rows of
    the construction on M_n, checked by :func:`_check_idempotents`, or a
    scan of all q^dim elements otherwise.  The list is built and kept as
    ``a.derived("idempotents")`` when it costs no more than V's q^r
    vectors, and a listed algebra is filtered by N x = 0; otherwise V is
    scanned.  The one budget check comes first, at the smaller of the two
    costs, so whichever route then runs, and whether or not the list is
    already kept, the same ``max_scan`` is refused with ``TooLarge``.
    """
    p = a.field.order
    total = p ** len(basis_rows)
    n = a.matrix_size
    listing = a.size if n is None else matrix_idempotent_count(n, p)
    charge(min(listing, total), max_scan, f"idempotent scan in {a.label}")

    def listed():
        store = exact_dtype(p - 1)
        if n is None:
            # on the standard basis, scan order is coordinate order
            return np.array(idempotent_coords(a, a._basis), dtype=store)
        built = construct_matrix_idempotents(n, p)
        rows = built[np.lexsort(built.T[::-1])].astype(store)
        _check_idempotents(a, rows)
        return rows

    rows = a.derived("idempotents", listed if listing <= total else None)
    if rows is None:
        return sorted(idempotent_coords(a, basis_rows))
    return [tuple(e) for e in rows[membership_bitmap(rows.T, constraints, p)].tolist()]


def matrix_idempotent_count(n: int, p: int) -> int:
    """Number of idempotents of M_n(F_p): sum over k of [n k]_p * p^(k(n-k)).

    An idempotent is fixed by its image (k-dimensional) and its kernel, a
    complement of the image; a k-dimensional subspace has p^(k(n-k)).
    """
    return sum(gaussian_binomial(n, k, p) * p ** (k * (n - k)) for k in range(n + 1))


def construct_matrix_idempotents(n: int, p: int) -> np.ndarray:
    """Every idempotent of M_n(F_p) as a (count, n*n) array, unordered.

    For each rank k and each k x n reduced row-echelon basis U of the image
    (pivot columns ``piv``, the others ``free``), the idempotents with that
    image are P = U^T Y for the left inverses Y of U^T: Y[:, free] = Z for
    every Z in F_p^(k x (n-k)), and Y[:, piv] = I - Z U[:, free]^T, since
    U^T[piv] = I.  Each idempotent is built exactly once and none is
    rejected.  All the bases U of one pivot pattern are taken at once: Y
    is a (U, m, k, n) block, m = p^(k(n-k)), and one batched matmul gives
    their (U, m, n, n) idempotents, basis-major and then by Z in
    :func:`coeff_block` order.

    Every product sums at most n products of residues, so the whole
    construction runs in :func:`sum_dtype` of n (p-1)^2, the dtype of the
    result.
    """
    dtype = sum_dtype(n * (p - 1) ** 2, f"idempotent sums of M_{n}(F_{p})")
    out = []
    for k in range(n + 1):
        m = p ** (k * (n - k))
        zs = coeff_block(p, k * (n - k), 0, m).astype(dtype).T.reshape(m, k, n - k)
        for piv in itertools.combinations(range(n), k):
            piv = list(piv)
            free = [j for j in range(n) if j not in piv]
            # the RREF bases with these pivots: ones at the pivots, every
            # value right of a row's pivot outside the pivot columns
            slots = [(i, j) for i in range(k) for j in free if j > piv[i]]
            us = np.zeros((p ** len(slots), k, n), dtype=dtype)
            us[:, range(k), piv] = 1
            us[:, [i for i, _ in slots], [j for _, j in slots]] = coeff_block(
                p, len(slots), 0, len(us)
            ).T
            y = np.empty((len(us), m, k, n), dtype=dtype)
            y[..., free] = zs
            y[..., piv] = reduce_mod(
                np.eye(k, dtype=dtype) - zs @ us[:, None, :, free].swapaxes(-1, -2), p
            )
            out.append(reduce_mod(us.swapaxes(1, 2)[:, None] @ y, p).reshape(-1, n * n))
    return np.concatenate(out)


def _check_idempotents(a: Algebra, rows: np.ndarray) -> None:
    """Raise ``ConsistencyError`` unless ``rows`` are exactly a's idempotents.

    Every row squares to itself, checked by :func:`_check_products` from
    the dense structure constants, one DEFAULT_BLOCK of rows at a time; the
    sorted rows are distinct; and there are :func:`matrix_idempotent_count`
    of them.  Distinct idempotents as many as a's are all of a's, so a row
    that is not idempotent, a repeated row and a missing row each raise
    ``ConsistencyError``, at every size.  An algebra of at most
    IDEMPOTENT_RESCAN_LIMIT elements is also scanned in full, a route that
    shares nothing with the construction, and must give the same rows,
    which also checks their order.
    """
    n, p = a.matrix_size, a.field.order
    for s in range(0, len(rows), DEFAULT_BLOCK):
        block = rows[s : s + DEFAULT_BLOCK].T
        _check_products(a, block, block, block)
    if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
        raise ConsistencyError(f"a constructed idempotent of {a.label} appears twice")
    want = matrix_idempotent_count(n, p)
    if len(rows) != want:
        raise ConsistencyError(
            f"constructed {len(rows)} idempotents of {a.label}, expected {want}"
        )
    if a.size <= IDEMPOTENT_RESCAN_LIMIT:
        scanned = idempotent_coords(a, a._basis)
        if rows.tolist() != [list(e) for e in scanned]:
            raise ConsistencyError(f"constructed and scanned idempotents of {a.label} differ")


@dataclass
class PowerChunk:
    """Powers a^d .. a^(2d-1) of one contiguous block of algebra elements.

    ``rows`` holds them power-major, count entries per power (the j-th
    stored power a^(d+j) of element b is ``rows[j * count + b]``, so b's
    window is ``rows[b::count]``), each as its element's lexicographic
    index (the column of that element in :func:`coeff_block`'s enumeration
    of the algebra).  A test on elements, computed once per element of the
    algebra, is read for every stored power by indexing with ``rows``.
    ``rows`` is read-only: it was checked when built (see
    :func:`build_power_chunk`), and nothing rewrites it.
    """

    start: int  # global index of the first element of the chunk
    count: int
    rows: np.ndarray  # (d * count,) element indices in exact_dtype(size - 1)


def build_power_chunk(a: Algebra, start: int, stop: int) -> PowerChunk:
    """Power window for elements start..stop (global lexicographic indices).

    All of a^1 .. a^(2d-1) are computed into a (2d-1, d, B) stack, B =
    stop - start, whose m-th entry is the (d, B) block of a^(m+1), in
    :func:`product_dtype` of ``a`` (int8 for M_3(F_3), int16 for M_2(F_11)),
    so :func:`batch_mul` reads its operands in place.  Every product is
    recomputed by :func:`_check_products` before the window a^d .. a^(2d-1)
    is encoded as element indices by :func:`encode` and stored in
    :func:`exact_dtype` of size - 1.  Every stored index is then decoded
    and compared with the stack by :func:`_check_window`, and three
    elements are replayed by :func:`_replay_sample`.  Each raises
    ``ConsistencyError`` before the chunk is returned, let alone cached.
    """
    p = a.field.order
    d = a.dim
    horizon = 2 * d - 1
    stack = np.empty((horizon, d, stop - start), dtype=product_dtype(a))  # a^1 .. a^(2d-1)
    stack[0] = coeff_block(p, d, start, stop)
    for m in range(1, horizon):
        stack[m] = batch_mul(a, stack[m - 1], stack[0])
    _check_products(a, stack[:-1], stack[0], stack[1:])
    rows = encode(p, stack[d - 1 :]).reshape(-1).astype(exact_dtype(a.size - 1), copy=False)
    rows.flags.writeable = False
    chunk = PowerChunk(start, stop - start, rows)
    _check_window(a, chunk, stack)
    _replay_sample(a, chunk)
    return chunk


def _check_products(a: Algebra, x: np.ndarray, y: np.ndarray, xy: np.ndarray) -> None:
    """Raise ``ConsistencyError`` unless ``xy`` is the product x y in ``a``,
    column by column.

    This is the one exact check of a batched product.  ``x``, ``y`` and
    ``xy`` are blocks of residues of shape (..., d, B) that broadcast
    together to ``xy``'s shape, such as a (2d-2, d, B) stack of powers
    times its (d, B) first power.  x y is recomputed from the nonzero
    constants of the dense ``a.table``, not from the sparse table that
    :func:`batch_mul` loops over, one pass over a (..., B) block per
    constant, and must equal ``xy`` in every coordinate; the first column
    that differs is named.  It sees any wrong product it is given, so a
    faulty :func:`batch_mul` square that drops a true idempotent from a
    scan is caught as surely as one that keeps a false one.

    It checks only the products it is given: the census products of
    :mod:`mathieu_kit.matrixlab` are not, since checking them all takes a
    ``mat codim1 --n 3 --q 5`` census from 35 to 59 ms in process (2-vCPU
    Xeon VM).

    Exactness: each term is at most (p-1)^2 (x_i * y_j, reduced mod p and
    then multiplied by c only when c != 1), so coordinate k's sum is at
    most n_k (p-1)^2, n_k the number of nonzero constants with that k.  The
    check runs in :func:`exact_dtype` of that bound, exact while it is
    below 2^63.  The bound is counted here from the dense table, apart from
    :func:`product_dtype`'s count; operands already in its dtype, such as
    a power stack, are read in place.
    """
    p = a.field.order
    nonzero = np.argwhere(np.array(a.table, dtype=np.int64))  # rows (i, j, k), ascending
    dtype = exact_dtype(int(np.bincount(nonzero[:, 2], minlength=1).max()) * (p - 1) ** 2)
    xs, ys = x.astype(dtype, copy=False), y.astype(dtype, copy=False)
    want = np.zeros(xy.shape, dtype=dtype)
    term = np.empty_like(want[..., 0, :])
    for i, j, k in nonzero.tolist():
        np.multiply(xs[..., i, :], ys[..., j, :], out=term)
        c = a.table[i][j][k]
        if c != 1:
            reduce_mod(term, p)
            term *= c
        want[..., k, :] += term
    bad = (reduce_mod(want, p) != xy).any(axis=-2)
    if bad.any():
        *lead, b = np.unravel_index(np.argmax(bad), bad.shape)
        at = (*lead, slice(None), b)
        u, v = (tuple(np.broadcast_to(w, xy.shape)[at].tolist()) for w in (x, y))
        raise ConsistencyError(
            f"a batched product and the dense structure constants disagree on "
            f"{u} * {v} in {a.label}"
        )


def _check_window(a: Algebra, chunk: PowerChunk, stack: np.ndarray) -> None:
    """Raise ``ConsistencyError`` unless every index in ``chunk`` is the
    element of its power in ``stack``.

    The stored rows are decoded by :func:`digits`, the decoder radical
    queries use, in int32 where the indices fit, and must equal the window
    a^d .. a^(2d-1) of the (2d-1, d, B) ``stack`` in every coordinate.  The
    int32 digits are read through a (power, coordinate, element) view, so
    the stack is read in order.
    """
    p, d = a.field.order, a.dim
    rows = chunk.rows.astype(np.promote_types(chunk.rows.dtype, np.int32))
    coords = digits(p, d, rows).reshape(d, d, chunk.count).transpose(1, 0, 2)
    bad = (coords != stack[d - 1 :]).any(axis=(0, 1))
    if bad.any():
        b = int(np.argmax(bad))
        raise ConsistencyError(
            f"stored power indices and the power kernel disagree on "
            f"{tuple(stack[0, :, b].tolist())} in {a.label}"
        )


def _replay_sample(a: Algebra, chunk: PowerChunk) -> None:
    """Recompute three elements of a new chunk with the reference arithmetic.

    The chunk's first, middle and last elements go through repeated
    ``Element`` products, which share no code with the array kernels.  Any
    difference from their stored window a^d .. a^(2d-1), decoded from its
    element indices, raises ``ConsistencyError``.  :func:`_check_products`
    and :func:`_check_window` have checked every product and every stored
    index already, with array kernels; this replays them in reference
    arithmetic.
    """
    p, d = a.field.order, a.dim

    def decode(index):
        return [index // p ** (d - 1 - i) % p for i in range(d)]

    for b in sorted({0, chunk.count // 2, chunk.count - 1}):
        x = a.element(decode(chunk.start + b))
        powers = [x]
        while len(powers) < 2 * d - 1:
            powers.append(powers[-1] * x)
        stored = chunk.rows[b :: chunk.count].tolist()
        if [decode(index) for index in stored] != [list(y.coords) for y in powers[d - 1 :]]:
            raise ConsistencyError(
                f"power kernel and reference arithmetic disagree on {x.coords} "
                f"in {a.label}"
            )


def power_chunks(a: Algebra, max_scan: int):
    """Yield the PowerChunk records of ``a``'s power table, in index order.

    The job is priced once, first: size * (2d-1) power evaluations past
    ``max_scan`` raise ``TooLarge`` before the cache is read or anything is
    allocated, so a cached and an uncached algebra refuse the same budget.
    So does an algebra whose last index, size - 1, does not fit int64, the
    widest dtype its indices are encoded and decoded in, whatever the
    budget.  The table is built once, in blocks of DEFAULT_BLOCK // (2d-1) elements
    (at most DEFAULT_BLOCK powers each), and kept as
    ``a.derived("power_table")``; it holds size * d indices, fewer than the
    budget it was priced at.
    """
    if not a.field.is_finite:
        raise InfiniteField("power scans need a finite field")
    size, horizon = a.size, 2 * a.dim - 1
    charge(size * horizon, max_scan, f"power scan of {a.label}")
    charge(size, 1 << 63, f"int64 element indices of {a.label}")
    step = DEFAULT_BLOCK // horizon
    yield from a.derived("power_table", lambda: [
        build_power_chunk(a, s, min(s + step, size)) for s in range(0, size, step)
    ])


def membership_bitmap(rows: np.ndarray, constraints, p: int) -> np.ndarray:
    """Boolean (B,) vector: which columns x of the (d, B) block ``rows``
    (one row per coordinate) satisfy N x = 0.  For a list of vectors, such
    as an algebra's listed idempotents; a radical query marks V's own
    elements by index instead (:func:`span_bitmap`).

    Exactness: each row of N x sums d products of residues, at most
    d (p-1)^2; N and ``rows`` are multiplied by ``einsum`` in
    :func:`sum_dtype` of that bound, which refuses one past int64 before
    anything is allocated.  ``einsum`` is about ten times faster than
    ``@`` on integers once the list is long (8 rows of N by 12,692 int8
    columns: 0.19 against 1.9 ms, 2-vCPU Xeon VM).

    No runtime check recomputes the bitmap: a wrong one filters the right
    idempotents wrongly, and only the tests catch it, by comparing the
    filter with a scan of each subspace and this bitmap with
    :func:`span_bitmap`.
    """
    if not constraints:
        return np.ones(rows.shape[1], dtype=bool)
    dtype = sum_dtype(len(rows) * (p - 1) ** 2, "membership sums")
    n = np.array(constraints, dtype=dtype)
    sums = np.einsum("cd,db->cb", n, rows.astype(dtype, copy=False))
    return np.all(reduce_mod(sums, p) == 0, axis=0)
