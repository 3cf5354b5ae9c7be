"""Certification of sparse-recovery properties of sensing matrices.

Three properties are covered:

* spark -- the smallest number of linearly dependent columns, found by
  exhaustive enumeration of column subsets in lexicographic order;
* RIP -- asymmetric restricted-isometry constants (alpha, beta) of a given
  order k, obtained by brute force over all size-k column supports, together
  with the rescale factor lambda = sqrt(2/(beta+alpha)) that symmetrizes the
  bounds around 1 with constant delta = (beta-alpha)/(beta+alpha);
* NSP -- a sampled lower bound on the null space property constant.  Exact
  NSP certification is combinatorially hard, so only random unit vectors of
  the null space are examined; for each sample the worst support is chosen
  exactly (the k largest magnitudes), making the per-sample value tight.

Invariance checkers confirm that multiplying a sensing matrix by an
invertible matrix on the left, or by a permuted invertible diagonal matrix
on the right, preserves the spark and the RIP order.  These hold as
theorems; the checkers exist to exercise the implementation.  The right
factor passes ``matrix_core.is_monomial``, as a type-4 certificate must.

Enumeration guards are fixed limits (``MAX_SPARK_COLS``,
``MAX_RIP_SUPPORTS``); exceeding them raises ``GuardError`` rather than
silently truncating.  Every rank decision uses ``matrix_core.RANK_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from .errors import GuardError, NspOrderError, RipOrderError
from .matrix_core import as_matrix, is_monomial, rank, rank_of_singular_values, seeded_rng
from .report import JsonReport

__all__ = [
    "SparkReport",
    "RipReport",
    "NspEstimate",
    "spark",
    "rip_constants",
    "null_space_basis",
    "sample_null_vectors",
    "nsp_estimate",
    "check_invariance_spark",
    "check_invariance_rip_order",
]

#: cap on matrix columns for spark enumeration
MAX_SPARK_COLS = 24
#: cap on the number of supports enumerated by rip_constants
MAX_RIP_SUPPORTS = 200_000
#: enumeration chunk size (memory control for batched SVD/eigh)
_CHUNK = 4096
#: alpha <= _DEPENDENT_TOL * beta is treated as a numerically zero alpha
_DEPENDENT_TOL = 1e-10


@dataclass
class SparkReport(JsonReport):
    """Spark value in [1, cols+1] plus a witness set of dependent columns
    (empty when all column subsets are independent, spark = cols+1)."""

    spark: int
    witness: list[int]


@dataclass
class RipReport(JsonReport):
    """Asymmetric restricted-isometry constants of a given order.

    alpha and beta bound ||Ax||^2 / ||x||^2 over all k-sparse x; multiplying
    A by lam = sqrt(2/(beta+alpha)) yields symmetric bounds 1 -+ delta with
    delta = (beta-alpha)/(beta+alpha).
    """

    order: int
    alpha: float
    beta: float
    delta: float
    lam: float = field(metadata={"json": "lambda"})

    @classmethod
    def from_bounds(cls, order: int, alpha: float, beta: float) -> "RipReport":
        if not 0 < alpha <= beta:
            raise ValueError(f"need 0 < alpha <= beta, got alpha={alpha}, beta={beta}")
        delta = (beta - alpha) / (beta + alpha)
        lam = math.sqrt(2.0 / (beta + alpha))
        return cls(order=order, alpha=alpha, beta=beta, delta=delta, lam=lam)


@dataclass
class NspEstimate(JsonReport):
    """Sampled lower bound on the null space property constant of order k.

    c_lower is the largest sampled value of sqrt(k) * ||h_L||_2 / ||h_Lc||_1
    with L the k largest-magnitude entries of the null vector h (the
    maximizing support for fixed h).  samples = 0 means the null space is
    trivial and the property holds vacuously.
    """

    order: int
    c_lower: float
    samples: int


def _chunked_combinations(n: int, r: int):
    it = combinations(range(n), r)
    while True:
        block = list(islice(it, _CHUNK))
        if not block:
            return
        yield np.array(block, dtype=np.intp)


def spark(A) -> SparkReport:
    """Smallest number of linearly dependent columns, with a witness subset.

    Subsets are scanned in lexicographic order by increasing size, so the
    returned witness is the first dependent subset encountered.  If every
    subset of all cols columns is independent the spark is cols+1 by
    convention and the witness is empty.
    """
    M = as_matrix(A)
    m, n = M.shape
    if n > MAX_SPARK_COLS:
        raise GuardError(f"spark enumeration guard exceeded: cols={n} > max_cols={MAX_SPARK_COLS}")
    for r in range(1, min(m + 1, n) + 1):
        if r > m:
            # more columns than rows: any r columns are dependent
            return SparkReport(spark=r, witness=list(range(r)))
        for subs in _chunked_combinations(n, r):
            stacks = np.moveaxis(M[:, subs], 1, 0)  # (chunk, m, r)
            dep = rank_of_singular_values(np.linalg.svd(stacks, compute_uv=False)) < r
            if dep.any():
                first = int(np.argmax(dep))
                return SparkReport(spark=r, witness=[int(j) for j in subs[first]])
    return SparkReport(spark=n + 1, witness=[])


def rip_constants(A, k: int) -> RipReport:
    """Brute-force asymmetric RIP constants of order k.

    alpha is the smallest and beta the largest eigenvalue of the Gram matrix
    of any k columns.  Raises ``RipOrderError`` when alpha is zero to
    numerical precision (some k columns are dependent, so the RIP of order k
    fails), and ``GuardError`` when the number of supports exceeds the guard.
    """
    M = as_matrix(A)
    n = M.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"order k must satisfy 1 <= k <= cols, got k={k}, cols={n}")
    total = math.comb(n, k)
    if total > MAX_RIP_SUPPORTS:
        raise GuardError(
            f"RIP enumeration guard exceeded: C({n},{k})={total}"
            f" > max_supports={MAX_RIP_SUPPORTS}"
        )
    alpha = np.inf
    beta = -np.inf
    for subs in _chunked_combinations(n, k):
        stacks = np.moveaxis(M[:, subs], 1, 0)  # (chunk, m, k)
        grams = stacks.transpose(0, 2, 1) @ stacks
        ev = np.linalg.eigvalsh(grams)
        alpha = min(alpha, float(ev[:, 0].min()))
        beta = max(beta, float(ev[:, -1].max()))
    if alpha <= _DEPENDENT_TOL * beta:
        raise RipOrderError(
            f"RIP of order {k} fails: alpha={alpha:.3e} is zero to numerical precision"
        )
    return RipReport.from_bounds(k, alpha, beta)


def null_space_basis(A) -> np.ndarray:
    """Orthonormal basis of the null space as columns of an (n, d) array."""
    M = as_matrix(A)
    n = M.shape[1]
    _, s, vt = np.linalg.svd(M, full_matrices=True)
    r = int(rank_of_singular_values(s))
    return vt[r:].T.reshape(n, n - r)


def sample_null_vectors(A, samples: int, seed: int) -> np.ndarray:
    """Draw unit-norm random vectors in the null space; shape (samples, n).

    Returns an empty (0, n) array when the null space is trivial.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    basis = null_space_basis(A)
    n, d = basis.shape
    if d == 0:
        return np.zeros((0, n))
    rng = seeded_rng(seed)
    H = rng.standard_normal((samples, d)) @ basis.T
    norms = np.linalg.norm(H, axis=1)
    while (norms < 1e-12).any():
        redo = norms < 1e-12
        H[redo] = rng.standard_normal((int(redo.sum()), d)) @ basis.T
        norms = np.linalg.norm(H, axis=1)
    return H / norms[:, None]


def nsp_estimate(A, k: int, samples: int, seed: int) -> NspEstimate:
    """Sampled lower bound on the NSP constant of order k.

    For each sampled null vector h the support L is the k largest-magnitude
    entries, which maximizes sqrt(k)*||h_L||_2/||h_Lc||_1 for fixed h; only
    the sampling over h is approximate.  A sample with ||h_Lc||_1 = 0 is a
    k-sparse null vector and raises ``NspOrderError``.
    """
    M = as_matrix(A)
    n = M.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"order k must satisfy 1 <= k <= cols, got k={k}, cols={n}")
    H = sample_null_vectors(M, samples, seed)
    if H.shape[0] == 0:
        return NspEstimate(order=k, c_lower=0.0, samples=0)
    absH = np.abs(H)
    # stable descending sort so ties break deterministically
    order = np.argsort(-absH, axis=1, kind="stable")
    top = order[:, :k]
    h_top = np.take_along_axis(H, top, axis=1)
    num = np.sqrt(k) * np.linalg.norm(h_top, axis=1)
    den = absH.sum(axis=1) - np.abs(h_top).sum(axis=1)
    if (den == 0.0).any():
        bad = int(np.argmax(den == 0.0))
        raise NspOrderError(
            f"NSP of order {k} fails: sampled null vector {bad} is {k}-sparse"
        )
    return NspEstimate(order=k, c_lower=float((num / den).max()), samples=samples)


def _validate_factors(A, M_I, M_D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A, an invertible left factor M_I and a monomial right factor M_D."""
    M, L, R = as_matrix(A), as_matrix(M_I), as_matrix(M_D)
    rows, cols = M.shape
    if L.shape[0] != L.shape[1] or L.shape[0] != rows:
        raise ValueError(f"M_I must be square of size {rows}, got shape {L.shape}")
    if rank(L) < L.shape[0]:
        raise ValueError("M_I is not invertible (numerically rank deficient)")
    if R.shape[0] != R.shape[1] or R.shape[0] != cols:
        raise ValueError(f"M_D must be square of size {cols}, got shape {R.shape}")
    if not is_monomial(R):
        raise ValueError(
            "M_D is not a permuted invertible diagonal matrix "
            "(needs exactly one nonzero entry in each row and each column)"
        )
    return M, L, R


def check_invariance_spark(A, M_I, M_D) -> bool:
    """True iff spark(M_I A) = spark(A) = spark(A M_D).

    This always holds for invertible M_I and permuted invertible diagonal
    M_D; a False return indicates an implementation bug.
    """
    M, L, R = _validate_factors(A, M_I, M_D)
    s0 = spark(M).spark
    return spark(L @ M).spark == s0 and spark(M @ R).spark == s0


def check_invariance_rip_order(A, k: int, M_I, M_D) -> bool:
    """True iff M_I A and A M_D both still satisfy the RIP of order k.

    Requires A itself to satisfy the RIP of order k (``RipOrderError``
    propagates otherwise).  Constant values may change; only the order is
    asserted to be preserved.
    """
    M, L, R = _validate_factors(A, M_I, M_D)
    rip_constants(M, k)  # precondition on A
    try:
        rip_constants(L @ M, k)
        rip_constants(M @ R, k)
    except RipOrderError:
        return False
    return True
