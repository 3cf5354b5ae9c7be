"""Certification of sparse-recovery properties of sensing matrices.

Three properties are covered:

* spark -- the smallest number of linearly dependent columns.  Level
  min(rows, cols) is probed first: when all its column subsets are
  independent, so are all smaller ones, and the spark is settled without
  visiting them.  Square probe subsets are first screened by a batched
  determinant bound with a margin for LU rounding, and only those it cannot
  clear reach the SVD.  A dependent probe subset falls back to the
  exhaustive upward scan in lexicographic order, so the witness is the
  first dependent subset at the spark level;
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

Enumeration guards are fixed limits on the number of column subsets
visited (``MAX_SPARK_SUBSETS``, ``MAX_RIP_SUPPORTS``); exceeding them raises
``GuardError`` rather than silently truncating.  Subsets come from
``matrix_core.column_subsets``, which builds a small level's table once
and serves it from a cache, and cuts chunks so that a batched gather of a
tall matrix's columns stays within a fixed number of floats.  Every rank
decision uses ``matrix_core.RANK_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GuardError, NspOrderError, RipOrderError
from .matrix_core import (RANK_TOL, _UNIT_ROUNDOFF, as_matrix, column_subsets, in_safe_range,
                          is_monomial, rank, rank_of_singular_values, seeded_rng)
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

#: cap on the column subsets spark can visit (probe plus upward scan)
MAX_SPARK_SUBSETS = 1_000_000
#: cap on the number of supports enumerated by rip_constants
MAX_RIP_SUPPORTS = 200_000
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


def _spark_worst_case(n: int, t: int) -> int:
    """Column subsets ``spark`` visits at most on n columns with probe level
    t: the probe's C(n, t) plus the upward scan's C(n, 1) + ... + C(n, t)."""
    return math.comb(n, t) + sum(math.comb(n, r) for r in range(1, t + 1))


def _screen_inputs(M: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Squared column norms and the spectral norm of M for the determinant
    screen, or None when M is outside ``in_safe_range``."""
    if not in_safe_range(M):
        return None
    return (M * M).sum(axis=0), float(np.linalg.norm(M, 2))


def _cleared(M: np.ndarray, subs: np.ndarray, screen: tuple[np.ndarray, float]) -> np.ndarray:
    """For each row of ``subs`` (square subsets, ``screen`` from
    ``_screen_inputs(M)``): does the determinant bound prove that those
    columns of M pass the ``RANK_TOL`` test?"""
    colsq, norm2 = screen
    r = subs.shape[1]
    # 1e3 * RANK_TOL plus twice the worst-case LU backward error (see spark)
    floor = 1e3 * RANK_TOL + 2.0 * r**3 * 2.0 ** (r - 1) * _UNIT_ROUNDOFF
    sign, logdet = np.linalg.slogdet(np.moveaxis(M[:, subs], 1, 0))
    s_hat = (1.0 + 1e-12) * np.minimum(np.sqrt(colsq[subs].sum(axis=1)), norm2)
    cleared = sign != 0.0  # a nonzero determinant, so s_hat > 0
    cleared[cleared] = logdet[cleared] - r * np.log(s_hat[cleared]) > math.log(floor)
    return cleared


def _dependent(M: np.ndarray, subs: np.ndarray, screen=None) -> np.ndarray:
    """For each row of ``subs``: do those columns of M fail the ``RANK_TOL``
    test?  With ``screen`` (square subsets only) the determinant bound
    clears subsets first, and only the rest reach the SVD."""
    r = subs.shape[1]
    todo = np.ones(len(subs), dtype=bool) if screen is None else ~_cleared(M, subs, screen)
    dep = np.zeros(len(subs), dtype=bool)
    if todo.any():
        stacks = np.moveaxis(M[:, subs[todo]], 1, 0)  # (count, m, r)
        dep[todo] = rank_of_singular_values(np.linalg.svd(stacks, compute_uv=False)) < r
    return dep


def spark(A) -> SparkReport:
    """Smallest number of linearly dependent columns, with a witness subset.

    A subset of r <= rows columns is dependent when s_min <= RANK_TOL * s_max
    for its singular values.  The answer is that of an upward scan: subsets
    in lexicographic order by increasing size, the witness being the first
    dependent one; rows+1 columns are always dependent (witness
    ``range(rows+1)``), and if no subset is dependent the spark is cols+1
    with an empty witness.

    Guard.  ``GuardError`` is raised when the worst case, C(n, t) probe
    subsets plus C(n, 1) + ... + C(n, t) for the scan, exceeds
    ``MAX_SPARK_SUBSETS``.  Generic shapes it admits include 10x20
    (801,421 worst case), 11x20, 9x21, 8x22, 2x1000 and any matrix of at
    most 19 columns; it refuses 12x20, 10x21 and 20x20 (README lists
    timings).  The worst case is at least 2^t, so t <= 19.

    Probe.  Level t = min(rows, cols) is scanned first.  Every smaller
    subset lies inside some t-subset, and removing columns can only raise
    s_min and lower s_max (interlacing), so when every t-subset passes the
    test, every smaller one does too and the scan would return t+1.  Only
    when the probe finds a dependent t-subset does the upward scan run, and
    then the scan alone fixes the spark and the witness, so the witness is
    always the scan's.  In floating point the shortcut can differ from
    the scan only for a subset whose ratio lies within the SVD's rounding
    (about eps * s_max in s_min) of the cutoff.

    Screen.  When t = rows the probe's subsets A_S are square, and
    |det A_S| <= s_min * s_max^(t-1) gives
    s_min/s_max >= |det A_S| / s_hat^t for any s_hat >= s_max; here
    s_hat = (1 + 1e-12) * min(||A_S||_F, ||A||_2).  Batched ``slogdet`` is
    several times cheaper than the SVD.  It factors A_S by partial-pivoting
    LU, so it returns the determinant of A_S + E with
    ||E|| <= d ||A_S||, d = t^3 * 2^(t-1) * u (u = 2^-53; at most 2.0e-7 for
    the t <= 19 that the guard allows, 3.9e-10 at t = 12).  Then the
    computed bound is at most (s_min/s_max + d)(1 + d)^(t-1), so a subset
    is cleared only when the bound exceeds 1e3 * RANK_TOL + 2d, which
    leaves its true ratio above 900 * RANK_TOL, far from the SVD's cutoff.
    Every subset not cleared goes to the same SVD test as in the scan, so
    the answer never depends on the screen.  The screen is skipped when a
    nonzero entry lies outside [2^-400, 2^400], where underflow or overflow
    could void this bound.  Tall probes (cols < rows) and the upward scan
    use the SVD alone.
    """
    M = as_matrix(A)
    m, n = M.shape
    t = min(m, n)
    worst = _spark_worst_case(n, t)
    if worst > MAX_SPARK_SUBSETS:
        raise GuardError(
            f"spark enumeration guard exceeded: C({n},{t}) + C({n},1) + ... + C({n},{t})={worst}"
            f" > max_subsets={MAX_SPARK_SUBSETS}"
        )
    screen = _screen_inputs(M) if t == m else None
    if not any(_dependent(M, subs, screen).any() for subs in column_subsets(n, t, m * t)):
        return SparkReport(spark=t + 1, witness=list(range(t + 1)) if t < n else [])
    for r in range(1, min(m + 1, n) + 1):
        if r > m:
            # more columns than rows: any r columns are dependent
            return SparkReport(spark=r, witness=list(range(r)))
        for subs in column_subsets(n, r, m * r):
            dep = _dependent(M, subs)
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
    for subs in column_subsets(n, k, M.shape[0] * k):
        stacks = np.moveaxis(M[:, subs], 1, 0)  # (chunk, m, k)
        grams = stacks.transpose(0, 2, 1) @ stacks
        ev = np.linalg.eigvalsh(grams)
        alpha = min(alpha, float(ev[:, 0].min()))
        beta = max(beta, float(ev[:, -1].max()))
    if alpha <= _DEPENDENT_TOL * beta:
        raise RipOrderError(
            f"RIP of order {k} fails: alpha={alpha:.3e} is zero to numerical precision"
        )
    return RipReport(order=k, alpha=alpha, beta=beta, delta=(beta - alpha) / (beta + alpha),
                     lam=math.sqrt(2.0 / (beta + alpha)))


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
