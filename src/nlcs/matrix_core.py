"""Dense linear-algebra kernel: validation, rank, the exact monomial test,
column-subset tables, seeded random generation, and CSV readers.

All operations are pure: inputs are never mutated and all randomness is
driven by an explicit 64-bit seed (PCG64 via ``numpy.random.default_rng``),
so results are reproducible bit for bit across runs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import OrderedDict
from itertools import chain, combinations, islice

import numpy as np

__all__ = [
    "as_matrix",
    "as_vector",
    "as_system",
    "seeded_rng",
    "nonzero_normals",
    "RANK_TOL",
    "rank_of_singular_values",
    "rank",
    "is_monomial",
    "in_safe_range",
    "column_subsets",
    "minor_tables",
    "gaussian_matrix",
    "random_sparse_signal",
    "read_matrix",
    "read_vector",
]

MAX_SEED = 2**64

#: relative singular-value cutoff of every numerical rank decision in the package
RANK_TOL = 1e-10
#: unit roundoff u of float64, in the error bounds of the certified screens and certificates
_UNIT_ROUNDOFF = 2.0**-53
# Gram-floor lemma, the one proof behind every shifted-Cholesky screen.  Let X be a
# symmetric k x k float matrix, s a float, gamma_j = j u / (1 - j u), and let a
# Cholesky factorization of the finite fl(X - sI) (X's diagonal minus s, each
# entry rounded once) end with k positive pivots, its computed R exact for
# fl(X - sI) + E, |E| <= c |R'| |R|, c <= 0.005.  Higham (Accuracy and Stability of
# Numerical Algorithms, Thm 10.3) gives c = gamma_(k+1) whatever the order of the
# operations: for LAPACK's blocked Cholesky and an outer-product loop alike.
# (1) Every x_ii > s, and lambda_min(X) > s - (c (1 + u) / (1 - c) + u) P, P = tr X
# - k s; that is s - 1.01 (k + 2) u P for c = gamma_(k+1), (k + 1) u <= 0.004.
# Proof: R'R is positive definite, and its diagonal ||R e_i||^2 is within
# c ||R e_i||^2 of fl(x_ii - s), which is thus positive: each rounding of the shift
# is <= u P, and ||R||_F^2 = tr(R'R) <= (1 + u) P + c ||R||_F^2 bounds ||E||_2 <=
# c ||R||_F^2.  Underflow adds at most k^2 2^-1074 (2^-1075 per product); a
# quotient r_ij that underflows moves r_jj r_ij by 2^-1075 r_jj < 2^-537 P, inside
# the 1.01.  (2) If X = G_S, the block on the columns S of G = fl(N'N) for an N of
# l rows, l u <= 0.005, its l-term dot products put it within gamma_l |N_S|'|N_S| +
# l 2^-1075 of N_S'N_S, so within 1.01 gamma_l tr G_S + k l 2^-1074 in the 2-norm,
# and for s >= 0 (P <= tr G_S) lambda_min(N_S'N_S) > s - (1.01 (k + 2) u +
# 1.01 gamma_l) tr G_S - k (k + l) 2^-1074.  The mirror X = -G_S bounds
# lambda_max(N_S'N_S) alike.

#: rows per chunk of ``column_subsets`` (memory control for the batched kernels)
_CHUNK = 4096
#: floats one batched gather of a chunk's columns may hold (16 MiB)
_GATHER_FLOATS = _CHUNK * 64 * 8
#: a one-chunk level's tables are cached when one holds at most this many indices
_CACHE_ENTRIES = 8 * _CHUNK
#: bytes the cached tables may hold together (8 MiB)
_CACHE_BYTES = 8 * 2**20


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix must be nonempty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def as_vector(a) -> np.ndarray:
    """Validate and return ``a`` as a 1-D float64 array with finite entries."""
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got ndim={v.ndim}")
    if v.size < 1:
        raise ValueError("vector must be nonempty")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    return v


def as_system(M, b) -> tuple[np.ndarray, np.ndarray]:
    """Validate the matrix and right-hand side of a linear system ``M u = b``."""
    A = as_matrix(M)
    y = as_vector(b)
    if A.shape[0] != y.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix has {A.shape[0]} rows, vector has dim {y.shape[0]}"
        )
    return A, y


def seeded_rng(seed: int) -> np.random.Generator:
    """Return a PCG64 generator for an unsigned 64-bit seed."""
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= int(seed) < MAX_SEED:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    return np.random.default_rng(int(seed))


def nonzero_normals(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normal draws, each redrawn until its magnitude is at least 1e-6."""
    vals = rng.standard_normal(size)
    while True:
        small = np.abs(vals) < 1e-6
        if not small.any():
            return vals
        vals[small] = rng.standard_normal(int(small.sum()))


def rank_of_singular_values(s: np.ndarray) -> np.ndarray:
    """Number of singular values strictly greater than ``RANK_TOL`` times the
    largest, along the last axis of descending singular values ``s``: one
    count for a single matrix, an array of counts for a stack."""
    return np.count_nonzero(s > RANK_TOL * s[..., :1], axis=-1)


def rank(M) -> int:
    """Numerical rank of a matrix (see ``rank_of_singular_values``)."""
    return int(rank_of_singular_values(np.linalg.svd(as_matrix(M), compute_uv=False)))


def is_monomial(M: np.ndarray) -> bool:
    """True iff M has exactly one nonzero entry in each row and each column,
    that is, M is a permuted invertible diagonal matrix.  The zero test is
    exact, so a True answer proves invertibility however small an entry is."""
    nz = M != 0.0
    return bool((nz.sum(axis=0) == 1).all() and (nz.sum(axis=1) == 1).all())


def in_safe_range(M: np.ndarray) -> bool:
    """True iff M has a nonzero entry and every nonzero entry lies in [2^-400, 2^400] in
    magnitude, where the batched screens' rounding bounds hold: their products can neither
    overflow nor lose accuracy to underflow.  Read in place: max |M| = max(max M, -min M),
    which a nan or inf fails, and the band (-2^-400, 2^-400) may hold only M's zeros."""
    if not 0.0 < max(float(M.max(initial=0.0)), -float(M.min(initial=0.0))) <= 2.0**400:
        return False
    band = M < 2.0**-400
    band &= M > -2.0**-400
    count = np.count_nonzero(band)
    return bool(count == 0 or count == M.size - np.count_nonzero(M))


# ``rip_constants`` scales M only outside [2^-500, 2^500), where the largest Gram entry is
# normal for m < 2^23 and ``eigvalsh`` rescales the rest: those matrices keep their bits.
# Its screen and gate need no ``in_safe_range``: their 2^-1000 covers underflow.
_RIP_EXPONENT = 500


def _unit_exponent(M: np.ndarray, keep: int = 0) -> int:
    """The e with 2^e M's largest entry in [1/2, 1) (0 for a zero M), or 0 when
    that entry lies in [2^-keep, 2^keep)."""
    e = -math.frexp(float(np.abs(M).max()))[1]
    return 0 if -keep <= e < keep else e


def _subset_rows(it, count: int, r: int) -> np.ndarray:
    """The next ``count`` r-subsets of ``it`` as a (count, r) intp array."""
    flat = np.fromiter(chain.from_iterable(islice(it, count)), dtype=np.intp, count=count * r)
    return flat.reshape(count, r)


class _TableCache(OrderedDict):
    """Read-only index tables by key, holding at most ``_CACHE_BYTES``
    together; the least recently used go first."""

    nbytes = 0

    def table(self, key, build):
        table = self.pop(key, None)
        if table is None:
            table = build()
            table.flags.writeable = False
            self.nbytes += table.nbytes
        self[key] = table
        while self.nbytes > _CACHE_BYTES:
            self.nbytes -= self.popitem(last=False)[1].nbytes
        return table


_TABLES = _TableCache()


def _cacheable(n: int, r: int) -> bool:
    total = math.comb(n, r)
    return 0 < total <= _CHUNK and total * r <= _CACHE_ENTRIES


def _level_chunks(n: int, r: int):
    it, total = combinations(range(n), r), math.comb(n, r)
    if _cacheable(n, r):
        yield _TABLES.table(("subsets", n, r), lambda: _subset_rows(it, total, r))
        return
    for start in range(0, total, _CHUNK):
        yield _subset_rows(it, min(_CHUNK, total - start), r)


def column_subsets(n: int, r: int, floats_per_subset: int = 0):
    """Yield every r-subset of range(n) in lexicographic order, as (rows, r)
    intp arrays of at most ``_CHUNK`` rows each.

    A caller that gathers ``floats_per_subset`` floats for each subset (m r
    for the columns of an m-row matrix) gets chunks cut further, to at most
    ``_GATHER_FLOATS // floats_per_subset`` rows (at least one), so that one
    gather holds at most 16 MiB whatever the row count.  A level that fits
    in one chunk and holds at most ``_CACHE_ENTRIES`` indices is built once
    and then served read-only from a cache shared with ``minor_tables``,
    which drops the least recently used tables while they hold more than
    ``_CACHE_BYTES`` (8 MiB).  Larger levels are built chunk by chunk as
    they are consumed.
    """
    step = _CHUNK
    if floats_per_subset > 0:
        step = max(1, min(step, _GATHER_FLOATS // floats_per_subset))
    for chunk in _level_chunks(n, r):
        if len(chunk) <= step:
            yield chunk
        else:
            yield from (chunk[i:i + step] for i in range(0, len(chunk), step))


def _minor_rows(prev: np.ndarray, r: int, start: int, stop: int, dtype=np.intp) -> np.ndarray:
    """Rows start..stop-1 of level r's table from level r-1's: in colex
    order, rows C(j, r)..C(j+1, r)-1 are the first C(j, r-1) subsets of
    level r-1 (those of range(j)), each followed by j."""
    out = np.empty((2, r, stop - start), dtype=dtype)
    at = start  # in block j, the first with C(j+1, r) > start
    j = r - 1 + bisect_right(range(r - 1, start + r), start, key=lambda j: math.comb(j + 1, r))
    while at < stop:
        lo, hi = at - math.comb(j, r), min(stop, math.comb(j + 1, r)) - math.comb(j, r)
        dst = slice(at - start, at - start + hi - lo)
        out[:, :r - 1, dst] = prev[:, :, lo:hi]
        out[1, :r - 1, dst] += math.comb(j, r - 1)
        out[0, r - 1, dst] = j if r % 2 else ~j
        out[1, r - 1, dst] = np.arange(lo, hi)
        at, j = at + hi - lo, j + 1
    return out


def _minor_table(n: int, r: int) -> np.ndarray:
    """Level r's whole table over range(n); one too large to cache is only
    read while the next level streams, so it is built in int32."""
    if r == 1:
        return np.stack([np.arange(n), np.zeros(n, dtype=np.intp)])[:, None]
    if _cacheable(n, r):
        return _TABLES.table(("minors", n, r), lambda: _minor_rows(
            _minor_table(n - 1, r - 1), r, 0, math.comb(n, r)))
    return _minor_rows(_minor_table(n - 1, r - 1), r, 0, math.comb(n, r), np.int32)


def minor_tables(n: int, r: int):
    """Yield, for every r-subset S of range(n) in colex order, what the
    Laplace expansion along row r-1, det M[:r, S] = (-1)^(r-1) sum_p
    (-1)^p M[r-1, s_p] det M[:r-1, S - s_p], reads: (2, r, rows) intp
    chunks of at most ``_CHUNK`` subsets, the last subsets first (r >= 2).
    Row p of ``[0]`` holds s_p, or -1 - s_p for odd p, to index
    [M[r-1], reversed(-M[r-1])]; row p of ``[1]`` holds the colex index of
    S - s_p.  Small levels are cached as in ``column_subsets``; a larger one
    is cut from level r-1 over range(n-1).
    """
    if _cacheable(n, r):
        yield _minor_table(n, r)
        return
    prev = _minor_table(n - 1, r - 1)
    for stop in range(math.comb(n, r), 0, -_CHUNK):
        yield _minor_rows(prev, r, max(0, stop - _CHUNK), stop)


def gaussian_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Random matrix with i.i.d. normal entries of mean 0 and variance 1/rows.

    The 1/rows variance normalizes the expected energy of projections:
    E||Ax||^2 = ||x||^2 for any fixed x.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"rows and cols must be >= 1, got {rows}x{cols}")
    # rng.normal(0.0, scale) bit for bit (its 0.0 + scale * z turns -0.0 into
    # +0.0), in two in-place passes, which is faster
    A = seeded_rng(seed).standard_normal((rows, cols))
    A *= np.sqrt(1.0 / rows)
    A += 0.0
    return A


def random_sparse_signal(n: int, k: int, seed: int) -> np.ndarray:
    """Vector with exactly k nonzero entries on a uniformly random support.

    Nonzero values are standard normal, resampled until every magnitude is
    at least 1e-6 so the support is unambiguous.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    rng = seeded_rng(seed)
    support = rng.choice(n, size=k, replace=False)
    x = np.zeros(n)
    x[support] = nonzero_normals(rng, k)
    return x


# ---------------------------------------------------------------------------
# CSV input: matrices are one row per line, comma separated, no header.
# Vectors are a single CSV line or one value per line (the reader accepts both).
# ---------------------------------------------------------------------------

def _parse_row(line: str) -> list[float]:
    return [float(tok) for tok in line.split(",") if tok.strip() != ""]


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [_parse_row(ln) for ln in fh if ln.strip() != ""]
    if not rows:
        raise ValueError(f"no data in {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"ragged rows in {path}")
    return as_matrix(rows)


def read_vector(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip() != ""]
    if not lines:
        raise ValueError(f"no data in {path}")
    if len(lines) == 1:
        vals = _parse_row(lines[0])
    else:
        vals = []
        for ln in lines:
            row = _parse_row(ln)
            if len(row) != 1:
                raise ValueError(f"multi-line vector in {path} must have one value per line")
            vals.append(row[0])
    return as_vector(vals)
