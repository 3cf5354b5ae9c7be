"""Dense linear-algebra kernel: validation, rank, the exact monomial test,
extreme eigenvalues, seeded random generation, and CSV I/O.

All operations are pure: inputs are never mutated and all randomness is
driven by an explicit 64-bit seed (PCG64 via ``numpy.random.default_rng``),
so results are reproducible bit for bit across runs.
"""

from __future__ import annotations

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
    "extreme_eigenvalues",
    "gaussian_matrix",
    "random_sparse_signal",
    "read_matrix",
    "write_matrix",
    "read_vector",
    "write_vector",
]

MAX_SEED = 2**64

#: relative singular-value cutoff of every numerical rank decision in the package
RANK_TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix must be nonempty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def as_vector(a) -> np.ndarray:
    """Validate and return ``a`` as a 1-D float64 array with finite entries."""
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got ndim={v.ndim}")
    if v.size < 1:
        raise ValueError("vector must be nonempty")
    if not np.all(np.isfinite(v)):
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
    return bool(np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1))


def extreme_eigenvalues(S) -> tuple[float, float]:
    """Smallest and largest eigenvalues of a symmetric matrix.

    The input must be square and symmetric to a relative tolerance of
    1e-12; asymmetric or non-square input is rejected.
    """
    A = as_matrix(S)
    n, m = A.shape
    if n != m:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    scale = max(1.0, float(np.abs(A).max()))
    if float(np.abs(A - A.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within tolerance 1e-12")
    ev = np.linalg.eigvalsh(A)
    return float(ev[0]), float(ev[-1])


def gaussian_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Random matrix with i.i.d. normal entries of mean 0 and variance 1/rows.

    The 1/rows variance normalizes the expected energy of projections:
    E||Ax||^2 = ||x||^2 for any fixed x.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"rows and cols must be >= 1, got {rows}x{cols}")
    rng = seeded_rng(seed)
    return rng.normal(0.0, np.sqrt(1.0 / rows), size=(rows, cols))


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
# CSV I/O: matrices are one row per line, comma separated, no header.
# Vectors are a single CSV line or one value per line (reader accepts both).
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


def write_matrix(path, M) -> None:
    A = as_matrix(M)
    with open(path, "w", encoding="utf-8") as fh:
        for row in A:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


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


def write_vector(path, v) -> None:
    x = as_vector(v)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(repr(float(t)) for t in x) + "\n")
