"""Vectorized exhaustive-scan kernels for algebras over prime fields.

Everything here is exact integer arithmetic: coordinates are residues in
int64 arrays and every product is reduced mod p immediately, so no value
ever approaches overflow (sums are bounded by dim * p^2).  The kernels are
plumbing for the decision procedures; the pure-Python element arithmetic in
:mod:`mathieu_kit.algebra` is the reference they are tested against.

Element blocks enumerate coefficient tuples in ascending lexicographic
order (most significant digit first), which is the canonical scan order for
witness selection everywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .algebra import Algebra
from .errors import InfiniteField, TooLarge

DEFAULT_BLOCK = 1 << 16

#: Chunk size for algebras too big to cache: each streamed chunk is dropped
#: once consumed, so smaller chunks bound the memory held.
STREAM_BLOCK = 1 << 14

#: Algebras at most this big get their power data cached on the instance.
POWER_CACHE_LIMIT = 200_000


def np_table(a: Algebra):
    """(dim, dim*dim) int64 view of the structure constants, cached."""
    if not a.field.is_finite:
        raise InfiniteField("numpy kernels need a finite prime field")
    if a._np_table is None:
        d = a.dim
        t = np.array(a.table, dtype=np.int64).reshape(d, d * d)
        a._np_table = t
    return a._np_table


def coeff_block(q: int, r: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop of the lexicographic enumeration of {0..q-1}^r."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, r), dtype=np.int64)
    for i in range(r):
        out[:, i] = (idx // (q ** (r - 1 - i))) % q
    return out


def batch_mul(t2: np.ndarray, x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Row-wise algebra product of two (B, d) coordinate blocks, mod p."""
    d = x.shape[1]
    partial = (x @ t2) % p  # partial[b, j*d+k] = sum_i x[b,i] c_ijk
    partial = partial.reshape(-1, d, d)
    return np.matmul(y[:, None, :], partial)[:, 0, :] % p


def iter_idempotents(
    ambient: Algebra, basis_rows, max_scan: int
) -> Iterator[tuple[int, ...]]:
    """Coordinates of every idempotent in the span of ``basis_rows``, lazily.

    Scans all q^r coefficient combinations in lexicographic order, one block
    at a time, and yields in that order.  Raises ``TooLarge`` before any
    scanning if q^r exceeds the budget.
    """
    p = ambient.field.order
    r = len(basis_rows)
    total = p**r
    if total > max_scan:
        raise TooLarge(total, max_scan, what=f"idempotent scan in {ambient.label}")
    t2 = np_table(ambient)
    basis = np.array(basis_rows, dtype=np.int64).reshape(r, ambient.dim)
    for start in range(0, total, DEFAULT_BLOCK):
        vecs = coeff_block(p, r, start, min(start + DEFAULT_BLOCK, total)) @ basis
        vecs %= p  # in place, so the block costs no more memory than one array
        squares = batch_mul(t2, vecs, vecs, p)
        for row in vecs[np.all(squares == vecs, axis=1)].tolist():
            yield tuple(row)


def idempotent_coords(
    ambient: Algebra, basis_rows, max_scan: int
) -> list[tuple[int, ...]]:
    """Every idempotent in the span of ``basis_rows``, in scan order."""
    return list(iter_idempotents(ambient, basis_rows, max_scan))


@dataclass
class PowerChunk:
    """Power-sequence data for one contiguous block of algebra elements.

    For element b (0-based within the chunk) the stored rows
    ``rows[offset[b] : offset[b+1]]`` are the coordinates of a^1 .. a^(mu+lam-1),
    all distinct; the sequence repeats with a^(m+lam) = a^m for m >= mu.
    ``k`` / ``hdeg`` come from the minimal polynomial split t^k * h and are
    computed by Krylov elimination, independently of the hash-detected cycle.

    ``cyc_idx[cyc_off[b]:cyc_off[b+1]]`` indexes the rows of one full tail
    cycle a^mu .. a^(mu+lam-1); ``win_idx`` does the same for the
    minimal-polynomial window a^s .. a^(s+hdeg-1), s = max(k, 1), and is
    empty for nilpotent elements (hdeg = 0).
    """

    start: int  # global index of the first element of the chunk
    count: int
    rows: np.ndarray  # (R, d) int64, concatenated distinct powers
    offset: np.ndarray  # (count+1,) int64
    mu: np.ndarray  # (count,) int64
    lam: np.ndarray  # (count,) int64
    k: np.ndarray  # (count,) int64
    hdeg: np.ndarray  # (count,) int64
    cyc_idx: np.ndarray  # flat row indices, grouped by element
    cyc_off: np.ndarray  # (count+1,) int64
    win_idx: np.ndarray
    win_off: np.ndarray

    def power_index(self, b: int, m: int) -> int:
        """Row index of a^m (m >= 1) for chunk element b, via cycle reduction."""
        mu = int(self.mu[b])
        lam = int(self.lam[b])
        if m < mu + lam:
            return int(self.offset[b]) + m - 1
        return int(self.offset[b]) + mu - 1 + ((m - mu) % lam)


def _minpoly_split_mod_p(powers, unit, d: int, p: int) -> tuple[int, int]:
    """(k, deg h) of the minimal polynomial, by Krylov elimination mod p.

    ``powers(m)`` must return the coordinate tuple of a^m for m >= 1.
    """
    rows: list[tuple[list[int], int]] = []
    combos: list[list[int]] = []
    cur = list(unit)
    m = 0
    while True:
        vec = list(cur)
        combo = [0] * m + [1]
        for (rvec, rpiv), rcombo in zip(rows, combos):
            c = vec[rpiv]
            if c:
                vec = [(x - c * y) % p for x, y in zip(vec, rvec)]
                for idx in range(len(rcombo)):
                    combo[idx] = (combo[idx] - c * rcombo[idx]) % p
        piv = -1
        for idx, x in enumerate(vec):
            if x:
                piv = idx
                break
        if piv < 0:
            k = 0
            while combo[k] == 0:
                k += 1
            return k, m - k
        inv = pow(vec[piv], p - 2, p)
        if inv != 1:
            vec = [(inv * x) % p for x in vec]
            combo = [(inv * x) % p for x in combo]
        rows.append((vec, piv))
        combos.append(combo)
        m += 1
        cur = powers(m)


def build_power_chunk(a: Algebra, start: int, stop: int) -> PowerChunk:
    """Power data for elements start..stop (global lexicographic indices)."""
    p = a.field.order
    d = a.dim
    t2 = np_table(a)
    count = stop - start
    base = coeff_block(p, d, start, stop)
    radix = np.array([p ** (d - 1 - i) for i in range(d)], dtype=np.int64)

    # powers are stored in the smallest unsigned type that holds a residue;
    # matmul against the int64 table promotes before multiplying, so nothing
    # can overflow
    store = np.min_scalar_type(p - 1)
    powers = [base.astype(store)]
    keys = [base @ radix]
    horizon = 8
    while True:
        while len(powers) < horizon:
            nxt = batch_mul(t2, powers[-1], base, p)
            keys.append(nxt @ radix)
            powers.append(nxt.astype(store))
        key_mat = np.stack(keys, axis=1)
        srt = np.sort(key_mat, axis=1)
        if np.all(np.any(srt[:, 1:] == srt[:, :-1], axis=1)):
            break
        horizon *= 2

    mu = np.zeros(count, dtype=np.int64)
    lam = np.zeros(count, dtype=np.int64)
    key_lists = key_mat.tolist()
    for b in range(count):
        seen: dict[int, int] = {}
        for m1, key in enumerate(key_lists[b], start=1):
            if key in seen:
                mu[b] = seen[key]
                lam[b] = m1 - seen[key]
                break
            seen[key] = m1

    lengths = mu + lam - 1
    offset = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, out=offset[1:])
    rows = np.empty((int(offset[-1]), d), dtype=np.int64)
    stack = np.stack(powers, axis=1)  # (count, horizon, d)
    for b in range(count):
        rows[offset[b] : offset[b + 1]] = stack[b, : lengths[b]]

    unit = tuple(int(c) for c in a.unit)
    k_arr = np.zeros(count, dtype=np.int64)
    h_arr = np.zeros(count, dtype=np.int64)

    # one full tail cycle per element: rows offset[b]+mu[b]-1 .. offset[b]+mu[b]+lam[b]-2
    cyc_off = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lam, out=cyc_off[1:])
    total_cyc = int(cyc_off[-1])
    cyc_idx = (
        np.repeat(offset[:-1] + mu - 1, lam)
        + np.arange(total_cyc, dtype=np.int64)
        - np.repeat(cyc_off[:-1], lam)
    )

    chunk = PowerChunk(
        start, count, rows, offset, mu, lam, k_arr, h_arr,
        cyc_idx, cyc_off,
        np.zeros(0, dtype=np.int64), np.zeros(count + 1, dtype=np.int64),
    )
    row_list = rows.tolist()
    for b in range(count):

        def powers_of(m: int, _b=b) -> list[int]:
            return row_list[chunk.power_index(_b, m)]

        k_arr[b], h_arr[b] = _minpoly_split_mod_p(powers_of, unit, d, p)

    win_indices: list[int] = []
    win_off = np.zeros(count + 1, dtype=np.int64)
    for b in range(count):
        e = int(h_arr[b])
        if e:
            s = max(int(k_arr[b]), 1)
            win_indices.extend(chunk.power_index(b, s + j) for j in range(e))
        win_off[b + 1] = len(win_indices)
    chunk.win_idx = np.array(win_indices, dtype=np.int64)
    chunk.win_off = win_off
    return chunk


def power_chunks(a: Algebra, max_scan: int):
    """Yield PowerChunk records covering the whole algebra.

    Small algebras (at most POWER_CACHE_LIMIT elements) are cached on the
    instance after their last chunk is built, and later calls replay the
    cache; larger ones are streamed in smaller chunks.  The budget counts power-vector evaluations
    (elements times the advance horizon), not just elements, so an algebra
    whose power sequences cycle slowly is refused rather than ground
    through; the work done before refusing is itself capped by the budget.
    """
    if not a.field.is_finite:
        raise InfiniteField("power scans need a finite field")
    size = a.size
    if size > max_scan:
        raise TooLarge(size, max_scan, what=f"element scan of {a.label}")
    if a._power_data is not None:
        yield from a._power_data
        return
    cache = [] if size <= POWER_CACHE_LIMIT else None
    step = STREAM_BLOCK if cache is None else DEFAULT_BLOCK
    spent = 0
    for s in range(0, size, step):
        chunk = build_power_chunk(a, s, min(s + step, size))
        spent += chunk.count * int(chunk.mu.max() + chunk.lam.max())
        if spent > max_scan:
            raise TooLarge(spent, max_scan, what=f"power scan of {a.label}")
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
    return np.all((rows @ n.T) % p == 0, axis=1)


def slice_all_true(flags: np.ndarray, idx: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """For consecutive index slices idx[offsets[b]:offsets[b+1]], test all-true.

    Empty slices count as all-true.
    """
    bad = (~flags[idx]).astype(np.int64) if len(idx) else np.zeros(0, dtype=np.int64)
    prefix = np.zeros(len(bad) + 1, dtype=np.int64)
    np.cumsum(bad, out=prefix[1:])
    return prefix[offsets[1:]] == prefix[offsets[:-1]]
