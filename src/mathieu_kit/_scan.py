"""Vectorized exhaustive-scan kernels for algebras over prime fields.

Everything here is exact integer arithmetic: coordinates are residues in
int64 arrays, and every sum is reduced mod p before it could overflow (see
:func:`batch_mul` for the product's bound).  A kernel whose largest
unreduced sum has a known bound may work in the narrowest signed dtype that
holds it (:func:`exact_dtype`): the codim-1 refutation kernel in
:mod:`mathieu_kit.matrixlab` sums n products of residues, below n (p-1)^2,
so M_3(F_5) runs in int8, and reduces them with :func:`reduce_mod`.

The kernels are plumbing for the decision procedures; the pure-Python
element arithmetic in :mod:`mathieu_kit.algebra` is the reference they are
tested against, and every power chunk is spot-checked against it when it
is built.

Element blocks enumerate coefficient tuples in ascending lexicographic
order (most significant digit first), which is the canonical scan order for
witness selection everywhere in the package.  An element's position in that
order is its index; power chunks store every element's powers
a^1 .. a^(2d-1), d the dimension, each as the index of its element, so a
radical query tests membership once per element of the algebra and reads it
for each stored power by indexing.

:func:`idempotents` is the one source of the idempotents of a subspace V,
with one rule for every algebra: check V's q^dim V vectors against the
budget, then filter the algebra's own idempotents by V's constraint rows
N x = 0 if they are listed, or if listing them costs no more than scanning
V; otherwise scan V.  M_n(F_q) on matrix units lists them by construction
(:func:`construct_matrix_idempotents`), every other algebra by one scan of
all its elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, minimal_polynomial
from .errors import ConsistencyError, InfiniteField, TooLarge
from .subspace import gaussian_binomial

DEFAULT_BLOCK = 1 << 16

#: Chunk size for algebras too big to cache: each streamed chunk is dropped
#: once consumed, so smaller chunks bound the memory held.
STREAM_BLOCK = 1 << 14

#: Algebras at most this big get their power data cached on the instance.
POWER_CACHE_LIMIT = 200_000


def coeff_block(q: int, r: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop of the lexicographic enumeration of {0..q-1}^r.

    The digits are peeled off least significant first into an (r, B) array,
    each as idx - (idx // q) * q (see :func:`reduce_mod`); the result is its
    (B, r) transposed view.
    """
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((r, stop - start), dtype=np.int64)
    for i in reversed(range(r)):
        quo = idx // q
        np.subtract(idx, quo * q, out=out[i])
        idx = quo
    return out.T


def exact_dtype(bound: int) -> np.dtype:
    """The narrowest signed integer dtype that holds 0..``bound``, else int64.

    Never unsigned: uint64 mixed with int64 promotes to float64.  A kernel
    that uses it is exact only while ``bound`` < 2^63.
    """
    for dtype in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


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
    """Row-wise product in ``a`` of two (B, d) coordinate blocks, mod p.

    Reads the nonzero structure constants from ``a._sparse_table()``, the
    cache the reference arithmetic multiplies with.  Each constant
    c = table[i][j][k] adds x_i * y_j * c to output column k, in (i, j, k)
    order, so the work is one (B,)-row pass per nonzero constant, however
    sparse the table.

    Exactness: inputs are residues below p, and each term is kept below p^2
    (x_i * y_j, reduced mod p and then multiplied by c only when c != 1).
    Column k's sum is therefore below n_k * p^2, n_k the number of nonzero
    constants with that k, and is reduced mod p once at the end.  int64
    holds it while n_k * p^2 < 2^63; a scan only has nonzero inputs when
    p <= max_scan, so at the default budget of 10^7 any n_k below 92,000
    is exact (n_k <= d^2 for every table).
    """
    p = a.field.order  # raises InfiniteField over the rationals
    xt = np.ascontiguousarray(x.T, dtype=np.int64)
    yt = np.ascontiguousarray(y.T, dtype=np.int64)
    out = np.zeros_like(xt)
    term = np.empty(len(x), dtype=np.int64)
    for i, row in enumerate(a._sparse_table()):
        for j, entries in enumerate(row):
            for k, c in entries:
                np.multiply(xt[i], yt[j], out=term)
                if c != 1:
                    reduce_mod(term, p)
                    term *= c
                out[k] += term
    del xt, yt  # freed before the result is allocated, to bound peak memory
    return np.ascontiguousarray(reduce_mod(out, p).T)


def idempotent_coords(ambient: Algebra, basis_rows) -> list[tuple[int, ...]]:
    """Every idempotent in the span of ``basis_rows``, in scan order.

    Scans all q^r coefficient combinations in lexicographic order, one block
    at a time.  The caller has checked q^r against its budget
    (:func:`idempotents` holds the one check).
    """
    p = ambient.field.order
    r = len(basis_rows)
    total = p**r
    basis = np.array(basis_rows, dtype=np.int64).reshape(r, ambient.dim)
    out = []
    for start in range(0, total, DEFAULT_BLOCK):
        vecs = coeff_block(p, r, start, min(start + DEFAULT_BLOCK, total)) @ basis
        reduce_mod(vecs, p)  # in place, so the block costs no more memory than one array
        squares = batch_mul(ambient, vecs, vecs)
        out += map(tuple, vecs[np.all(squares == vecs, axis=1)].tolist())
    return out


def idempotents(
    a: Algebra, basis_rows, constraints, max_scan: int
) -> list[tuple[int, ...]]:
    """Every idempotent of the subspace V = span(``basis_rows``), sorted.

    ``constraints`` are V's rows N with x in V iff N x = 0.  The one budget
    check comes first: V's q^r vectors past ``max_scan`` raise ``TooLarge``,
    whichever route then runs.  The algebra's own idempotents are listed
    and cached on it when that costs no more than scanning V (the
    :func:`matrix_idempotent_count` rows of the construction, checked by
    :func:`_check_idempotents`, or a scan of all q^dim elements), and a
    listed algebra is filtered by N x = 0.  Otherwise V is scanned.
    """
    p = a.field.order
    total = p ** len(basis_rows)
    if total > max_scan:
        raise TooLarge(total, max_scan, what=f"idempotent scan in {a.label}")
    if a._idempotents is None:
        n = a.matrix_size
        if (a.size if n is None else matrix_idempotent_count(n, p)) > total:
            return sorted(idempotent_coords(a, basis_rows))
        store = exact_dtype(p - 1)
        if n is None:
            # on the standard basis, scan order is coordinate order
            rows = np.array(idempotent_coords(a, a._basis), dtype=store)
        else:
            built = construct_matrix_idempotents(n, p)
            rows = built[np.lexsort(built.T[::-1])].astype(store)
            _check_idempotents(a, rows)
        a._idempotents = rows
    rows = a._idempotents
    return [tuple(e) for e in rows[membership_bitmap(rows, constraints, p)].tolist()]


def matrix_idempotent_count(n: int, p: int) -> int:
    """Number of idempotents of M_n(F_p): sum over k of [n k]_p * p^(k(n-k)).

    An idempotent is fixed by its image (k-dimensional) and its kernel, a
    complement of the image; a k-dimensional subspace has p^(k(n-k)).
    """
    return sum(gaussian_binomial(n, k, p) * p ** (k * (n - k)) for k in range(n + 1))


def construct_matrix_idempotents(n: int, p: int) -> np.ndarray:
    """Every idempotent of M_n(F_p) as a (count, n*n) int64 array, unordered.

    For each rank k and each k x n reduced row-echelon basis U of the image
    (pivot columns ``piv``, the others ``free``), the idempotents with that
    image are P = U^T Y for the left inverses Y of U^T: Y[:, free] = Z for
    every Z in F_p^(k x (n-k)), and Y[:, piv] = I - Z U[:, free]^T, since
    U^T[piv] = I.  Each idempotent is built exactly once and none is
    rejected.
    """
    out = []
    for k in range(n + 1):
        m = p ** (k * (n - k))
        zs = coeff_block(p, k * (n - k), 0, m).reshape(m, k, n - k)
        for piv in itertools.combinations(range(n), k):
            piv = list(piv)
            free = [j for j in range(n) if j not in piv]
            # the RREF bases with these pivots: ones at the pivots, every
            # value right of a row's pivot outside the pivot columns
            slots = [(i, j) for i in range(k) for j in free if j > piv[i]]
            us = np.zeros((p ** len(slots), k, n), dtype=np.int64)
            us[:, range(k), piv] = 1
            us[:, [i for i, _ in slots], [j for _, j in slots]] = coeff_block(
                p, len(slots), 0, len(us)
            )
            for u in us:
                y = np.empty((m, k, n), dtype=np.int64)
                y[:, :, free] = zs
                y[:, :, piv] = (np.eye(k, dtype=np.int64) - zs @ u[:, free].T) % p
                out.append(((u.T @ y) % p).reshape(m, n * n))
    return np.concatenate(out)


def _check_idempotents(a: Algebra, rows: np.ndarray) -> None:
    """Raise ``ConsistencyError`` unless ``rows`` are exactly a's idempotents.

    Every row squares to itself (batched matmul, one block at a time), the
    sorted rows are distinct, and there are :func:`matrix_idempotent_count`
    of them.  An algebra of at most POWER_CACHE_LIMIT elements is also
    scanned in full, a route that shares nothing with the construction, and
    must give the same rows.
    """
    n, p = a.matrix_size, a.field.order
    for s in range(0, len(rows), DEFAULT_BLOCK):
        mats = rows[s : s + DEFAULT_BLOCK].reshape(-1, n, n).astype(np.int64)
        if not np.array_equal(np.matmul(mats, mats) % p, mats):
            raise ConsistencyError(f"a constructed matrix of {a.label} is not idempotent")
    if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
        raise ConsistencyError(f"a constructed idempotent of {a.label} appears twice")
    want = matrix_idempotent_count(n, p)
    if len(rows) != want:
        raise ConsistencyError(
            f"constructed {len(rows)} idempotents of {a.label}, expected {want}"
        )
    if a.size <= POWER_CACHE_LIMIT:
        scanned = idempotent_coords(a, a._basis)
        if rows.tolist() != [list(e) for e in scanned]:
            raise ConsistencyError(f"constructed and scanned idempotents of {a.label} differ")


@dataclass
class PowerChunk:
    """Powers a^1 .. a^(2d-1) of one contiguous block of algebra elements.

    ``rows`` holds them element-major, 2d-1 entries per element (row b's
    powers are ``rows[b * (2d-1) : (b + 1) * (2d-1)]``), each as its
    element's lexicographic index (the row of that element in
    :func:`coeff_block`'s enumeration of the algebra).  A test on elements,
    computed once per element of the algebra, is read for every stored
    power by indexing with ``rows``.

    ``k`` / ``hdeg`` split the minimal polynomial as t^k * h with h(0) != 0,
    read from Krylov ranks: dim a^j F[a] = deg - min(j, k) and k <= d, so
    with R(j) = rank(a^j .. a^(j+d-1)) mod p, ``hdeg`` = R(d) and
    ``k`` = R(0) - R(d).
    """

    start: int  # global index of the first element of the chunk
    count: int
    rows: np.ndarray  # (count * (2d-1),) element indices in exact_dtype(size - 1)
    k: np.ndarray  # (count,) int64
    hdeg: np.ndarray  # (count,) int64


def batch_rank(stack: np.ndarray, p: int) -> np.ndarray:
    """Rank mod p of every (r, c) block of a (B, r, c) stack.

    Fraction-free elimination, one column at a time across the whole stack:
    each block takes its first unused row with a nonzero entry in the column
    as pivot and clears that column from its other unused rows.  Rows are
    only ever scaled by nonzero residues, so no inverse is needed, and a
    cleared column is dropped from the working array.
    """
    m = reduce_mod(np.array(stack, dtype=np.int64), p)  # a copy: reduced in place
    used = np.zeros(m.shape[:2], dtype=bool)
    blocks = np.arange(len(m))
    for _ in range(m.shape[2]):
        column = m[:, :, 0]
        candidates = (column != 0) & ~used
        found = candidates.any(axis=1)
        pivot = candidates.argmax(axis=1)
        used[blocks[found], pivot[found]] = True
        factor = np.where(used, 0, column)  # all zero where nothing was found
        pivot_row = m[blocks, pivot, 1:]
        m = m[:, :, 1:] * np.where(found, column[blocks, pivot], 1)[:, None, None]
        m -= factor[:, :, None] * pivot_row[:, None, :]
        reduce_mod(m, p)
    return used.sum(axis=1)


def build_power_chunk(a: Algebra, start: int, stop: int) -> PowerChunk:
    """Power data for elements start..stop (global lexicographic indices)."""
    p = a.field.order
    d = a.dim
    count = stop - start
    horizon = 2 * d - 1
    base = coeff_block(p, d, start, stop)
    stack = np.empty((count, horizon, d), dtype=np.int64)  # a^1 .. a^(2d-1)
    stack[:, 0] = base
    for m in range(1, horizon):
        stack[:, m] = batch_mul(a, stack[:, m - 1], base)
    radix = np.array([p ** (d - 1 - i) for i in range(d)], dtype=np.int64)
    rows = (stack @ radix).astype(exact_dtype(a.size - 1)).reshape(-1)
    unit = np.broadcast_to(np.array(a.unit, dtype=np.int64), (count, 1, d))
    rank_low = batch_rank(np.concatenate([unit, stack[:, : d - 1]], axis=1), p)
    hdeg = batch_rank(stack[:, d - 1 :], p)
    chunk = PowerChunk(start, count, rows, rank_low - hdeg, hdeg)
    _replay_sample(a, chunk)
    return chunk


def _replay_sample(a: Algebra, chunk: PowerChunk) -> None:
    """Recompute three elements of a new chunk with the reference arithmetic.

    The chunk's first and last elements and the one with the largest k go
    through ``minimal_polynomial`` and repeated ``Element`` products, which
    share no code with the array kernels.  Any difference in (k, deg h) or
    the stored powers, decoded from their element indices, raises
    ``ConsistencyError``.
    """
    p, d = a.field.order, a.dim
    horizon = 2 * d - 1

    def decode(index):
        return [index // p ** (d - 1 - i) % p for i in range(d)]

    for b in sorted({0, chunk.count - 1, int(np.argmax(chunk.k))}):
        x = a.element(decode(chunk.start + b))
        minpoly = minimal_polynomial(x)
        powers = [x]
        while len(powers) < horizon:
            powers.append(powers[-1] * x)
        want = (minpoly.k, minpoly.h.degree, [list(y.coords) for y in powers])
        stored = chunk.rows[b * horizon : (b + 1) * horizon].tolist()
        got = (int(chunk.k[b]), int(chunk.hdeg[b]), [decode(index) for index in stored])
        if got != want:
            raise ConsistencyError(
                f"power kernel and reference arithmetic disagree on {x.coords} "
                f"in {a.label}"
            )


def power_chunks(a: Algebra, max_scan: int):
    """Yield PowerChunk records covering the whole algebra.

    The job is priced once, first: size * (2d-1) power evaluations past
    ``max_scan`` raise ``TooLarge`` before the cache is read or anything is
    allocated, so a cached and an uncached algebra refuse the same budget.
    Small algebras (at most POWER_CACHE_LIMIT elements) are cached on the
    instance after their last chunk is built, and later calls replay the
    cache; larger ones are streamed in smaller chunks.
    """
    if not a.field.is_finite:
        raise InfiniteField("power scans need a finite field")
    size = a.size
    needed = size * (2 * a.dim - 1)
    if needed > max_scan:
        raise TooLarge(needed, max_scan, what=f"power scan of {a.label}")
    if a._power_data is not None:
        yield from a._power_data
        return
    cache = [] if size <= POWER_CACHE_LIMIT else None
    step = STREAM_BLOCK if cache is None else DEFAULT_BLOCK
    for s in range(0, size, step):
        chunk = build_power_chunk(a, s, min(s + step, size))
        if cache is not None:
            cache.append(chunk)
        yield chunk
    if cache is not None:
        a._power_data = cache


def membership_bitmap(rows: np.ndarray, constraints, p: int) -> np.ndarray:
    """Boolean vector: which of the given coordinate rows satisfy N x = 0."""
    if not constraints:
        return np.ones(len(rows), dtype=bool)
    n = np.array(constraints, dtype=np.int64)
    return np.all(reduce_mod(rows @ n.T, p) == 0, axis=1)
