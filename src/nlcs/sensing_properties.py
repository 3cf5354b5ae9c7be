"""Certification of sparse-recovery properties of sensing matrices.

Three properties are covered:

* spark -- the smallest number of linearly dependent columns.  Level
  min(rows, cols) is probed first: when all its column subsets are
  independent, so are all smaller ones, and the spark is settled without
  visiting them.  Certified screens (a Laplace recursion's determinants on
  wide shapes, then the RIP-order gate's Cholesky floor test) clear most
  square probe subsets before the SVD.  A dependent probe subset falls back
  to the exhaustive upward scan in lexicographic order, so the witness is
  the first dependent subset at the spark level;
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
``matrix_core.column_subsets`` and the recursion's index tables from
``matrix_core.minor_tables``; both build a small level's table once and
serve it from one cache, and cut larger levels into bounded chunks.
Every rank decision uses ``matrix_core.RANK_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GuardError, NspOrderError, RipOrderError, RipRangeError
from .matrix_core import (RANK_TOL, _RIP_EXPONENT, _UNIT_ROUNDOFF, _unit_exponent, as_matrix,
                          column_subsets, in_safe_range, is_monomial, minor_tables, rank,
                          rank_of_singular_values, seeded_rng)
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


def _base_level(n: int, t: int) -> int:
    """The level where ``spark``'s screen starts its minors: t, or 1 when
    the recursion's products over levels 2..t are fewer than the t^2 C(n, t)
    entries that the floor test gathers."""
    products = sum(r * math.comb(n, r) for r in range(2, t + 1))
    return t if products >= t * t * math.comb(n, t) else 1


def _minors(M: np.ndarray):
    """Yield chunks (subs, D, err) covering every t-subset S of the columns
    of M (t x n, entries below 1), by the recursion of ``spark``'s screen:
    S as a row of column indices, D = +-det M[:, S] with one sign for all
    S, and err >= |D -+ det M[:, S]|."""
    t, n = M.shape
    ku = t * (t + 1) // 2 * _UNIT_ROUNDOFF
    gamma, eta = ku / (1.0 - ku), math.ldexp(math.factorial(t), -1072)
    # the recursion runs on the reversed columns in colex order, so that the
    # probe meets the subsets roughly in lexicographic order, as the scan does
    rows = np.empty((t, 2, n), dtype=complex)  # [M[r, ::-1], -M[r]] + i |.|
    rows.real[:, 0], rows.real[:, 1] = M[:, ::-1], -M
    rows.imag[:, 0], rows.imag[:, 1] = np.abs(M[:, ::-1]), np.abs(M)
    V = rows[0, 0].real + 1j * (gamma * rows[0, 0].imag)

    def level(r: int):  # reads V, which holds level r-1 until level r is complete
        row = rows[r - 1].ravel()
        for cols, child in minor_tables(n, r):
            g = V[child]
            np.multiply(g.view(np.float64), row[cols].view(np.float64), out=g.view(np.float64))
            yield cols, g.sum(axis=0)

    chunks = [(np.arange(n)[None], V)]
    for r in range(2, t + 1):
        chunks = level(r)
        if r < t:
            out, at = np.empty(math.comb(n, r), dtype=complex), math.comb(n, r)
            for _, part in chunks:
                out[at - len(part):at], at = part, at - len(part)
            V = out
    for cols, part in chunks:  # undo the reversal and the sign encoding
        subs = np.where(cols < 0, n + cols, n - 1 - cols).T
        yield subs, part.real, (part.imag + eta) / (1.0 - gamma) + eta


def _uncleared(M: np.ndarray):
    """Yield, chunk by chunk, the subsets of a square probe (M is t x n,
    inside ``in_safe_range``) that ``spark``'s screen cannot clear."""
    t, n = M.shape
    M, G = M * 2.0 ** _unit_exponent(M), None
    if _base_level(n, t) > 1:
        chunks = column_subsets(n, t, t * t)
    else:  # the recursion's bound first, in logs as s_hat^t may underflow; 2^-1074 keeps log(0) out
        colsq, norm2 = (M * M).sum(axis=0), np.linalg.norm(M, 2)
        chunks = (subs[np.log(np.abs(D) - err, where=np.abs(D) > err, out=np.full(len(D), -np.inf))
                       - t * np.log(np.maximum(np.minimum(np.sqrt(colsq[subs].sum(axis=1)), norm2),
                                               2.0**-1074) * (1.0 + 1e-12))
                       <= math.log(1e3 * RANK_TOL)] for subs, D, err in _minors(M))
    for subs in chunks:
        if len(subs):
            G = M.T @ M if G is None else G  # not formed when the recursion clears all
            if not (cleared := _floor_cleared(G, subs, 0.0)).all():
                yield subs[~cleared]


def _dependent(M: np.ndarray, subs: np.ndarray) -> np.ndarray:
    """For each row of ``subs``: do those columns of M fail the ``RANK_TOL``
    test?"""
    stacks = np.moveaxis(M[:, subs], 1, 0)  # (count, m, r)
    return rank_of_singular_values(np.linalg.svd(stacks, compute_uv=False)) < subs.shape[1]


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

    Screen.  When t = rows the probe's subsets A_S are square.  A subset is
    cleared only when a stage below proves rho = s_min/s_max > 900 RANK_TOL
    (the floor test: rho > 9.9e-5), far from the SVD's cutoff; every other
    subset goes to the same SVD test as the scan, so the answer never depends
    on the screen.  Both stages run on A scaled by a power of two to entries
    below 1 (exact; no ratio changes):
    - on wide shapes (10x20, 2x1000, the benchmark's), where r products per
      r-subset at levels 2..t read fewer entries than t^2 per t-subset (no
      start in between reads fewer on any shape the guard admits), first a
      determinant bound.  One recursion forms the minors D_r(S) = det A[:r,
      S] of every r-subset, level by level, D_r(S) = sum_p (-1)^(r-1+p)
      A[r-1, s_p] D_(r-1)(S - s_p) from D_1 = A[0] (``minor_tables``; its
      C(n, 1) + ... + C(n, t) minors fit in the guard's worst case).  Each
      level adds one product and r - 1 additions to every term, so each term
      of D takes fewer than k = t(t+1)/2 roundings (Higham, Accuracy and
      Stability of Numerical Algorithms, 3.1): |D - det A_S| <= gamma P, with
      gamma = ku / (1 - ku), u = 2^-53 and P the sum of the terms'
      magnitudes.  The same pass, run on gamma |A[0]| and |A| in the
      imaginary part, gives W >= (1 - gamma) gamma P - eta, so err = (W +
      eta) / (1 - gamma) + eta >= |D - det A_S|; eta = t! 2^-1072 covers
      underflow (2^-1075 per product, never amplified by entries below 1, r
      terms per level-r value).  |det A_S| <= s_min s_max^(t-1), so S is
      cleared when (|D| - err) / s_hat^t > 1e3 RANK_TOL, s_hat = (1 + 1e-12)
      min(||A_S||_F, ||A||_2) >= s_max;
    - then ``_floor_cleared(G, S, 0)``, G = fl(A'A): at k = m = t <= 19 its
      Gram-floor bound gives s_min^2 > 0.99e-8 tr G_S >= 0.99e-8 (1 - gamma_t) s_max^2.
    The screen is skipped when a nonzero entry lies outside [2^-400, 2^400]
    (``in_safe_range``), where underflow or overflow could void these
    bounds.  Tall probes (cols < rows) and the upward scan use the SVD alone.
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
    probe = _uncleared(M) if t == m and in_safe_range(M) else column_subsets(n, t, m * t)
    if not any(_dependent(M, subs).any() for subs in probe):
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


def _rip_screens(N: int, k: int) -> bool:
    """Is a chunk of N supports of order k screened?  The measured break-evens, N about 330
    at k = 2, 110 at 3 and 60-85 at 4..13, rounded; the screen's proof needs k <= 12."""
    return 2 <= k <= 12 and N >= (300 if k == 2 else 100)


def _extremes(M: np.ndarray, subs: np.ndarray, alpha: float, beta: float) -> tuple[float, float]:
    stacks = np.moveaxis(M[:, subs], 1, 0)  # (N, m, k): each support's own Gram fl(M_S' M_S)
    ev = np.linalg.eigvalsh(stacks.transpose(0, 2, 1) @ stacks)
    return min(alpha, float(ev[:, 0].min())), max(beta, float(ev[:, -1].max()))


def _blocks(G: np.ndarray, subs: np.ndarray, sides: int) -> np.ndarray:
    """(k, k, sides N), the batch innermost: the first N hold the blocks G_S of
    the supports, gathered from G; the rest are left to the caller."""
    N, k = subs.shape
    H = np.empty((k, k, sides * N))
    S = subs.T.copy()  # one flat index into G: numpy's fast single-array gather
    H[:, :, :N] = G.ravel()[(S * len(G))[:, None] + S]
    return H


def _positive_definite(H: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Cholesky of every H[:, :, s] - shift[s] I, outer-product form, in place:
    are its pivots all positive?  An overflow gives a NaN or -inf pivot: no."""
    k = H.shape[0]
    diag = H.reshape(k * k, -1)[::k + 1]
    diag -= shift
    with np.errstate(all="ignore"):
        for j in range(k - 1):  # the pivots stay on the diagonal; the last needs no step
            r = H[j + 1:, j] / np.sqrt(H[j, j])
            H[j + 1:, j + 1:] -= r[:, None] * r
    return (diag > 0.0).all(axis=0)


def _floor_cleared(G: np.ndarray, subs: np.ndarray, tau: float) -> np.ndarray:
    """For each row S of ``subs``: has the Cholesky of G_S - sI, s = tau + d,
    d = 1e-8 tr G_S + 2^-1000, positive pivots?  G_S, of order k, is gathered
    from G = fl(M' M), M of m rows, and tau >= 0.  A yes gives
    lambda_min(M_S'M_S) > tau + (1e-8 - e) tr G_S, e = 2.02 (k + 2) u + 2 gamma_m,
    by the Gram-floor lemma (``matrix_core``; l = m): tau <= s < tr G_S / k, the
    roundings of s lose at most 2.01 u (tau + 2^-1000) + 1.01e-8 (k + 3) u tr G_S
    + 2^-1075, and 2^-1000 covers that 2^-1075 and the lemma's k (k + m) 2^-1074."""
    H = _blocks(G, subs, 1)
    return _positive_definite(H, tau + 1e-8 * np.trace(H) + 2.0**-1000)


def _screened_extremes(M: np.ndarray, G: np.ndarray, subs: np.ndarray, alpha: float,
                       beta: float) -> tuple[float, float]:
    """``_extremes(M, subs, alpha, beta)`` bit for bit, from the blocks G_S of
    G = fl(M' M): ``eigvalsh`` runs on 16 seeds (the 8 smallest Gershgorin
    lower and 8 largest upper bounds), then only on the S whose Cholesky fails
    on G_S - sI, s = max(alpha, 0) + d, or on (beta - d)I - G_S, with d =
    1e-8 (tr G_S + k beta) + 2^-1000.  Proof: the Gram-floor lemma (``matrix_core``;
    P <= tr G_S + k beta for both shifts, the mirror on -G_S) and batched ``eigvalsh``
    (LAPACK syevd), backward stable per matrix and off by <= p(k) u tr G_S, leave S's
    computed eigenvalues above alpha + d - 2.1 (k + 2 + m + p(k)) u (tr G_S + k beta)
    > alpha; the mirror case is alike, as p(k) <= 12^7 and m < 1.1e4 (N >= 100
    supports of m k floats fit one 2^21-float gather)."""
    N, k = subs.shape
    H = _blocks(G, subs, 2)
    diag = H.reshape(k * k, 2 * N)[::k + 1, :N]
    rows = np.abs(H[:, :, :N], out=H[:, :, N:]).sum(axis=1)  # Gershgorin: diag -+ (rows - diag)
    seeds = np.concatenate([np.argpartition(proxy, 8)[:8] for proxy in (
        (2.0 * diag - rows).min(axis=0), -rows.max(axis=0))])
    a, b = _extremes(M, subs[seeds], alpha, beta)
    np.negative(H[:, :, :N], out=H[:, :, N:])
    d = 1e-8 * (diag.sum(axis=0) + k * b) + 2.0**-1000
    shift = np.concatenate([max(a, 0.0) + d, d - b])  # G_S - sI and (b - d)I - G_S
    sent = ~_positive_definite(H, shift).reshape(2, N).all(axis=0)
    sent[seeds] = False
    return _extremes(M, subs[sent], a, b) if sent.any() else (a, b)


def _in_range(alpha: float, beta: float, scale: int) -> bool:
    """Are alpha and beta, computed on A scaled by 2^scale, normal floats once unscaled?"""
    return math.frexp(alpha)[1] - 2 * scale >= -1021 and math.frexp(beta)[1] - 2 * scale <= 1024


def rip_constants(A, k: int) -> RipReport:
    """Brute-force asymmetric RIP constants of order k.

    alpha is the smallest and beta the largest eigenvalue of the Gram matrix
    of any k columns.  Raises ``RipOrderError`` when alpha is zero to
    numerical precision (some k columns are dependent, so the RIP of order k
    fails), ``GuardError`` when the number of supports exceeds the guard, and
    ``RipRangeError`` when alpha or beta is not a normal float (A is scaled
    by a power of two outside ``matrix_core._RIP_EXPONENT``'s range).
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
    scale = _unit_exponent(M, _RIP_EXPONENT)
    M = np.ldexp(M, scale)
    alpha, beta = np.inf, -np.inf
    G = M.T @ M if 2 <= k <= 12 else None  # the screen's; the guard keeps n <= 632 here
    for subs in column_subsets(n, k, M.shape[0] * k):
        alpha, beta = (_screened_extremes(M, G, subs, alpha, beta) if _rip_screens(len(subs), k)
                       else _extremes(M, subs, alpha, beta))
    scaled = f" of A scaled by 2^{scale}" if scale else ""
    if alpha <= _DEPENDENT_TOL * beta:
        raise RipOrderError(f"RIP of order {k} fails: alpha={alpha:.3e}{scaled}"
                            " is zero to numerical precision")
    if not _in_range(alpha, beta, scale):
        raise RipRangeError(f"RIP constants of order {k} are outside float64's range:"
                            f" alpha={alpha:.3e} and beta={beta:.3e}{scaled}")
    lam = math.ldexp(math.sqrt(2.0 / (beta + alpha)), scale)
    return RipReport(k, math.ldexp(alpha, -2 * scale), math.ldexp(beta, -2 * scale),
                     (beta - alpha) / (beta + alpha), lam)


def _require_rip_order(A, k: int) -> None:
    """Raise what ``rip_constants(A, k)`` raises; return nothing otherwise.

    Proof, for 2 <= k <= 12, m < 4e6 and the guard, on M = A scaled as by
    ``rip_constants`` and G = fl(M' M): S's computed eigenvalues are within
    (2 gamma_m + p(k) u) tr G_S of M_S'M_S's (p(k) <= 12^7, as in
    ``_screened_extremes``), in [0, tr G_S], so beta_hi = 1.001 (sum of G's k
    largest diagonal entries, one >= 2^-1000) bounds every computed beta.  If
    ``_floor_cleared`` clears every S at tau = fl(1e-10 beta_hi), its Gram-floor
    bound, with e + 2 gamma_m + p(k) u < 1e-8, gives alpha > tau >= fl(1e-10 beta);
    if tau and beta_hi are normal once unscaled, so are alpha and beta.  Any
    other case goes to ``rip_constants``."""
    M = as_matrix(A)
    m, n = M.shape
    if 2 <= k <= min(n, 12) and math.comb(n, k) <= MAX_RIP_SUPPORTS and m < 4e6:
        scale = _unit_exponent(M, _RIP_EXPONENT)
        M = np.ldexp(M, scale)
        G = M.T @ M
        beta_hi = 1.001 * float(np.sort(G.diagonal())[-k:].sum())
        tau = 1e-10 * beta_hi
        if _in_range(tau, beta_hi, scale) and all(
                _floor_cleared(G, subs, tau).all() for subs in column_subsets(n, k, m * k)):
            return
    rip_constants(A, k)


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
    # the k largest magnitudes in the descending order a stable argsort gives them
    top = -np.sort(-absH, axis=1)[:, :k]
    num = np.sqrt(k) * np.linalg.norm(top, axis=1)
    den = absH.sum(axis=1) - top.sum(axis=1)
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
    _require_rip_order(M, k)  # precondition on A
    try:
        _require_rip_order(L @ M, k)
        _require_rip_order(M @ R, k)
    except RipOrderError:
        return False
    return True
