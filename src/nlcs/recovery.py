"""Sparse recovery engines and the linearize-then-recover pipeline.

Two decoders are provided:

* ``basis_pursuit`` -- l1-norm minimization subject to B u = y, solved by
  the in-repo interior-point core for the split form u = u+ - u-, which
  stops at the first iterate whose support carries a dual certificate of
  unique optimality (``certify_l1``, checked by ``l1_dual_errors``);
* ``l0_oracle`` -- exhaustive minimum-support search: for k = 0, 1, ... all
  size-k supports are tried in lexicographic order and the first one whose
  least-squares fit reproduces the measurements is returned.  Each level
  is screened in chunks by one batched QR of the augmented support
  matrices, which skips a support only when a rounding-aware lower bound
  on its residual proves the fit would miss; every other support goes, in
  order, to the same ``lstsq`` test, so the screen never changes the
  answer.  Feasible only at small scale (guarded).

``recover_via_linearization`` composes them with the pointwise-linearization
machinery: given the true signal x, the measurements of a composite map are
rewritten as linear measurements of x under an effective matrix (certificate
matrix times sensing matrix, on the side matching the composition), which a
linear decoder then inverts.  The certificate depends on the anchor point
and hence on x itself; the pipeline therefore takes the ground truth as an
explicit input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import GuardError, RipOrderError, RipRangeError
from .lp import solve_standard_form
from .matrix_core import (RANK_TOL, _UNIT_ROUNDOFF, _unit_exponent, as_matrix, as_system,
                          as_vector, column_subsets, in_safe_range, rank_of_singular_values)
from .nonlinear_maps import NonlinearMap, PointRequirements
from .pointwise_linearization import LinearizationCertificate, linearize, qualified_type
from .report import JsonReport
from .sensing_properties import MAX_RIP_SUPPORTS, _require_rip_order, rip_constants

__all__ = [
    "RecoveryReport",
    "PipelineResult",
    "support_set",
    "basis_pursuit",
    "certify_l1",
    "l1_dual_errors",
    "l0_oracle",
    "recover_via_linearization",
]

#: guard on the number of supports the l0 search can visit, C(n, 1) + ... + C(n, k_max)
MAX_L0_SUPPORTS = 200_000
#: relative floor (1e3 RANK_TOL)^2 on lambda_min(M M') / ||M||_F^2 of the row-rank screen
_RANK_FLOOR = (1e3 * RANK_TOL) ** 2
#: l1 decoder tolerances: the residual ||B u - y|| and the relative duality gap
LP_FEASIBILITY_TOL = 1e-8
LP_OPTIMALITY_TOL = 1e-8


def _check_max_iter(max_iter) -> None:
    """The l1 decoder's iteration cap must be a positive int (not a bool)."""
    if isinstance(max_iter, bool) or not isinstance(max_iter, int):
        raise ValueError(f"max_iter must be an int, got {max_iter!r}")
    if max_iter <= 0:
        raise ValueError(f"max_iter must be positive, got {max_iter}")


@dataclass
class RecoveryReport(JsonReport):
    """Outcome of a recovery run.

    support_exact and rel_error are filled only when ground truth is
    available (None otherwise).  residual is the Euclidean norm of
    B x_hat - y for the system actually solved.  margin is
    1 - ||B_S^c' w||_inf of the dual certificate w that x_hat is the unique
    l1 minimizer when the l1 solve ended on one (see ``basis_pursuit``),
    None otherwise; certified is derived from it (margin is not None), so
    the two cannot disagree.
    """

    x_hat: np.ndarray
    residual: float
    l1_norm: float
    support_exact: bool | None
    rel_error: float | None
    solver_status: str  # converged | max_iter | infeasible
    margin: float | None
    certified: bool = field(init=False)

    def __post_init__(self):
        self.certified = self.margin is not None


def support_set(v) -> set[int]:
    """Indices of the significant entries of a recovered vector.

    The threshold 1e-6 * max(1, ||v||_inf) separates true support values
    from decoder noise on the scales this package works at.
    """
    x = as_vector(v)
    threshold = 1e-6 * max(1.0, float(np.abs(x).max()))
    return {int(i) for i in np.flatnonzero(np.abs(x) > threshold)}


def _report(x_hat: np.ndarray, B: np.ndarray, y: np.ndarray, status: str,
            margin: float | None = None) -> RecoveryReport:
    return RecoveryReport(
        x_hat=x_hat,
        residual=float(np.linalg.norm(B @ x_hat - y)),
        l1_norm=float(np.abs(x_hat).sum()),
        support_exact=None,
        rel_error=None,
        solver_status=status,
        margin=margin,
    )


def _gram_floor(M: np.ndarray, phi: float | None = None, safe: bool | None = None) -> float:
    """Certified lower bound phi F / 2 on lambda_min(M M'), F = trace(fl(M M')), from a
    Cholesky factorization of fl(M M') - sI, or 0.0 when it fails or M is outside
    ``matrix_core.in_safe_range`` (``safe``, when the caller knows).  Without ``phi``,
    phi is half the computed smallest eigenvalue over F, kept within [``_RANK_FLOOR``,
    1/2].  Proof: the Gram-floor lemma of ``matrix_core``, as ``basis_pursuit`` applies it."""
    if not (in_safe_range(M) if safe is None else safe):
        return 0.0
    m, n = M.shape
    G = M @ M.T
    F = float(np.trace(G))
    if phi is None:
        phi = min(max(float(np.linalg.eigvalsh(G)[0]) / (2.0 * F), _RANK_FLOOR), 0.5)
    try:
        np.linalg.cholesky(G - (phi + 4.0 * (m + n) * _UNIT_ROUNDOFF) * F * np.eye(m))
    except np.linalg.LinAlgError:
        return 0.0
    return phi * F / 2.0


def _margin_and_bound(B: np.ndarray, S: np.ndarray, w: np.ndarray, sign: np.ndarray,
                      c: np.ndarray) -> tuple[float, float] | None:
    """The computed margin 1 - max over j outside S of |c_j|, c = fl(B' w),
    and its rounding bound beta, or None when B_S has no certified full
    column rank (see ``basis_pursuit``)."""
    m, n = B.shape
    u = _UNIT_ROUNDOFF
    g = 2.0 * (m + 2) * u
    a = np.abs(B).T @ np.abs(w)
    off = np.ones(n, dtype=bool)
    off[S] = False
    eps, s_lo = 0.0, 1.0
    if S.size:
        lam_lo = _gram_floor(B[:, S].T)
        if lam_lo == 0.0:
            return None
        s_lo = math.sqrt(lam_lo)
        eps = 1.05 * float(np.linalg.norm(np.abs(c[S] - sign) + g * a[S]))
    terms = g * a[off] + np.linalg.norm(B, axis=0)[off] * (eps / s_lo)
    margin = 1.0 - float(np.max(np.abs(c[off]), initial=0.0))
    return margin, 1.05 * float(np.max(terms, initial=0.0)) + 2.0 * u


def l1_dual_errors(B, b, x_hat, w) -> list[str]:
    """Problems that stop w from certifying x_hat as the unique minimizer of
    ||u||_1 subject to B u = B x_hat, with B x_hat within the l1 decoder's
    feasibility tolerance of b; empty when none.

    With S the nonzeros of x_hat, the conditions of Zhang, Yin & Cheng are
    checked with every rounding error bounded: B_S has full column rank, and
    w lies close enough to {B_S' w = sign(x_hat_S)} that its margin
    1 - ||B_S^c' w||_inf stays positive after the correction onto that set
    (``basis_pursuit`` gives the proof).  The check uses only its arguments,
    so it does not trust the solver or ``certify_l1``.
    """
    B, bv = as_system(B, b)
    x = as_vector(x_hat)
    w = as_vector(w)
    m, n = B.shape
    if x.shape[0] != n or w.shape[0] != m:
        raise ValueError(f"x_hat needs {n} entries and w {m}, got {x.shape[0]} and {w.shape[0]}")
    return _dual_problems(B, bv, x, w, B.T @ w)[0]


def _dual_problems(B: np.ndarray, b: np.ndarray, x: np.ndarray, w: np.ndarray,
                   c: np.ndarray) -> tuple[list[str], float | None]:
    """``l1_dual_errors`` on validated arrays, with c = fl(B' w) given, and
    the margin it computed (None when B_S has no certified rank)."""
    problems = []
    residual = float(np.linalg.norm(B @ x - b))
    tol = LP_FEASIBILITY_TOL * (1.0 + float(np.linalg.norm(b)))
    if not residual <= tol:
        problems.append(f"residual ||B x_hat - b|| = {residual:.3g} exceeds {tol:.3g}")
    S = x.nonzero()[0]
    found = _margin_and_bound(B, S, w, np.sign(x[S]), c)
    if found is None:
        problems.append(f"B_S ({S.size} columns) has no certified full column rank")
        return problems, None
    if not found[0] > found[1]:
        problems.append(f"margin {found[0]:.3g} does not exceed its rounding bound {found[1]:.3g}")
    return problems, found[0]


def certify_l1(B, b, S, y) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Polished l1 minimizer on the support S, its dual certificate w and
    margin 1 - ||B_S^c' w||_inf, or None when they fail ``l1_dual_errors``.

    One R-only QR of [B_S, b] gives R_S, the factor of B_S, and the
    least-squares residual |R[k, k]| of b on B_S (k = |S|); the attempt
    stops there when that residual exceeds half the feasibility tolerance,
    so a support that cannot fit b costs one QR without Q.  Otherwise
    x_S = R_S^-1 R[:k, k], and w is the dual y projected onto
    {B_S' w = sign(x_S)}, w = y + B_S R_S^-1 R_S^-T (sign(x_S) - B_S' y).
    The arguments are only read.
    """
    m, n = B.shape
    k = S.size
    A = np.empty((m, k + 1))
    A[:, :k] = B[:, S]
    A[:, k] = b
    R = np.linalg.qr(A, mode="r")
    if not abs(R[k, k]) <= 0.5 * LP_FEASIBILITY_TOL * (1.0 + float(np.linalg.norm(b))):
        return None
    BS, RS = A[:, :k], R[:k, :k]
    try:
        xs = np.linalg.solve(RS, R[:k, k])
        if not np.all(xs != 0.0):
            return None
        w = y + BS @ np.linalg.solve(RS, np.linalg.solve(RS.T, np.sign(xs) - BS.T @ y))
    except np.linalg.LinAlgError:  # an exactly singular R_S
        return None
    c = B.T @ w
    off = np.ones(n, dtype=bool)
    off[S] = False
    if not 1.0 - float(np.abs(c[off]).max()) > 0.0:
        return None
    x = np.zeros(n)
    x[S] = xs
    problems, margin = _dual_problems(B, b, x, w, c)
    return None if problems else (x, w, margin)


def basis_pursuit(B, y, *, max_iter: int = 200) -> RecoveryReport:
    """Minimize ||u||_1 subject to B u = y (within the feasibility tolerance).

    Row-rank-deficient systems are reduced to their row space first; if y
    has a component outside the column space beyond tolerance the report
    comes back with solver_status "infeasible" and x_hat = 0.  The solver
    stops after ``max_iter`` iterations with status "max_iter".

    Range.  B or y outside ``matrix_core.in_safe_range`` is scaled by 2^p or
    2^q to a largest entry in [1/2, 1); x_hat = 2^(p - q) u is exact for the
    solution u, and the margin is B's, as 2^p B' w = B' (2^p w).

    Gram floor.  Let u = 2^-53, gamma_j = j u / (1 - j u), M a p x q matrix inside
    ``matrix_core.in_safe_range``, (1e3 RANK_TOL)^2 <= phi <= 1/2 and (p + q + 2) u <=
    0.004, true of any M that fits in memory.  ``_gram_floor`` factors fl(M M') - sI, s
    the float (phi + 4 (p + q) u) F, F = fl(tr fl(M M')) >= 2^-800, so s is normal and
    within a relative (p + 1.01) u of (phi + 4 (p + q) u) tr fl(M M').  If that
    succeeds, the Gram-floor lemma (``matrix_core``; N = M', l = q, k = p) gives
    lambda_min(M M') > s - (1.01 (p + 2) u + 1.01 gamma_q) tr fl(M M') - p (p + q)
    2^-1074 > phi tr fl(M M') > 0.99 phi F; it returns phi F / 2.

    Row-rank screen.  The row rank r is the ``RANK_TOL`` count of B's
    singular values; the SVD that computes it is skipped when the Gram
    floor with M = B and phi = (1e3 RANK_TOL)^2 holds.  Then
    s_min^2 > 0.99 phi F >= 0.98 phi s_max^2, so s_min/s_max >
    900 RANK_TOL, and the backward-stable SVD, whose singular values are
    off by a small multiple of u s_max, would count all m of them as well.
    A failed factorization, or a B outside the safe range, takes the SVD
    path, so the rank, the row reduction and the "infeasible" answer never
    depend on the screen.

    Certified exit.  The solve ends at the first iterate whose candidate
    support carries the certificate below, returning the polished fit and
    the checker's margin (hook in ``lp``, fit and projection in ``certify_l1``).

    Certificate (Zhang, Yin & Cheng, JOTA 2015).  Let S be the support of
    x_hat.  If B_S has full column rank and some w* has
    B_S' w* = sign(x_S) and ||B_S^c' w*||_inf < 1, then every h != 0 with
    B h = 0 has ||x_hat + h||_1 >= ||x_hat||_1 + sign(x_S)' h_S +
    ||h_S^c||_1 and sign(x_S)' h_S = w*' B_S h_S = -w*' B_S^c h_S^c, so
    ||x_hat + h||_1 - ||x_hat||_1 >= (1 - ||B_S^c' w*||_inf) ||h_S^c||_1,
    which is positive unless h_S^c = 0, and then B_S h_S = 0 forces h = 0.
    On the row-reduced path the certificate is for (U_r' B, U_r' y), whose
    null space is B's, so it proves the same.

    Rounding.  ``l1_dual_errors`` proves that such a w* exists from the
    computed w, which meets B_S' w = sign(x_S) only up to rounding.  With
    k = |S|, g = 2 (m + 2) u, c = fl(B' w) and a = fl(|B|' |w|), every
    |c_j - b_j' w| <= g a_j (the dot-product bound gamma_m |b_j|' |w| with
    |b_j|' |w| <= a_j / (1 - gamma_m); underflow adds at most m 2^-1074,
    far below the 2u of step 3).
    (1) Rank: ``_gram_floor(B_S')``, the Gram floor with M = B_S' (p = k, q = m) and
    the phi it picks, must be positive; then sigma_min(B_S) > s_lo = sqrt(phi F / 2).
    (2) Equality: e = B_S' w - sign(x_S) has |e_i| <= 1.01 |r_i| + g a_i
    for the computed r = c_S - sign(x_S), so ||e||_2 <= eps =
    1.05 fl(|| |r| + g a_S ||_2).  Then w* = w - B_S (B_S' B_S)^-1 e meets
    B_S' w* = sign(x_S) exactly, and as ||B_S (B_S' B_S)^-1||_2 =
    1 / sigma_min(B_S) < 1 / s_lo, every j outside S has
    |b_j' w*| <= |c_j| + g a_j + ||b_j||_2 eps / s_lo.
    (3) Margin: the check passes only when fl(1 - max_j |c_j|) exceeds
    beta = 1.05 max_j (g a_j + fl(||b_j||_2) eps / s_lo) + 2u, over j
    outside S.  The factor 1.05 covers the rounding of the norms, products
    and sums that form eps and beta, each a relative error of at most
    (m + k + 4) u <= 0.01, and 2u covers the subtraction from 1; so
    ||B_S^c' w*||_inf < 1.
    """
    _check_max_iter(max_iter)
    B0, y0 = B, yv = as_system(B, y)
    m, n = B.shape
    if not yv.any():
        return _report(np.zeros(n), B, yv, "converged")
    safe, p, q = in_safe_range(B), 0, 0
    if not (safe and in_safe_range(yv)):  # solve 2^p B u = 2^q y; then x = 2^(p - q) u
        p, q = _unit_exponent(B), _unit_exponent(yv)
        B, yv, safe = np.ldexp(B, p), np.ldexp(yv, q), None

    # rank m when the Gram floor proves the SVD would count it ("Row-rank screen"); budget
    # half the feasibility tolerance for the out-of-span component and half for the LP residual
    r = m if _gram_floor(B, _RANK_FLOOR, safe) > 0.0 else int(
        rank_of_singular_values(np.linalg.svd(B, compute_uv=False)))
    if r < m:
        Ur = np.linalg.svd(B, full_matrices=False)[0][:, :r]
        out_of_span = float(np.linalg.norm(yv - Ur @ (Ur.T @ yv)))
        if out_of_span > 0.5 * LP_FEASIBILITY_TOL * (1.0 + float(np.linalg.norm(yv))):
            return _report(np.zeros(n), B0, y0, "infeasible")
        B_eff = Ur.T @ B
        y_eff = Ur.T @ yv
    else:
        B_eff, y_eff = B, yv

    res = solve_standard_form(
        B_eff,
        y_eff,
        feas_tol=0.5 * LP_FEASIBILITY_TOL,
        opt_tol=LP_OPTIMALITY_TOL,
        max_iter=max_iter,
        certify=partial(certify_l1, B_eff, y_eff),
    )
    margin = None if res.certificate is None else res.certificate[2]
    return _report(np.ldexp(res.x, p - q), B0, y0, res.status, margin)


def _may_fit(By: np.ndarray, subs: np.ndarray, thr: float, gamma: float) -> np.ndarray:
    """For each row of ``subs`` (k < m columns of B; ``By`` is [B, y]): may
    that support's least-squares residual still pass ``thr``?  False only
    when the QR bound of ``l0_oracle`` rules that out."""
    count, k = subs.shape
    n = By.shape[1] - 1
    R = np.linalg.qr(np.moveaxis(By[:, np.hstack([subs, np.full((count, 1), n)])], 1, 0), mode="r")
    rho = np.abs(R[:, k, k])
    R11 = R[:, :k, :k]
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero R11 gives w = nan
        w = np.prod(np.abs(np.diagonal(R11, axis1=1, axis2=2))
                    / np.linalg.norm(R11, axis=(1, 2))[:, None], axis=1)
    margin = 32.0 * gamma * float(np.linalg.norm(By[:, n]))
    ruled_out = (w > 1e3 * gamma) & (rho * w > thr * w + margin)
    return ~ruled_out


def l0_oracle(B, y, k_max: int) -> RecoveryReport:
    """Sparsest solution of B u = y by exhaustive support enumeration.

    For each k = 0..k_max, supports are tried in lexicographic order and
    the first least-squares fit with residual <= thr = 1e-8 (1 + ||y||_2)
    wins, which also fixes the tie-breaking within a sparsity level.  When
    no support of size <= k_max fits, the report carries solver_status
    "infeasible" (nothing found) and x_hat = 0.

    Screen.  Each level is taken in chunks of ``matrix_core.column_subsets``
    and, for k < m, screened before ``lstsq`` runs.  One batched
    Householder QR of the augmented matrices [C, y] (C = B[:, S]) gives R;
    rho = |R[k, k]| is the distance from y to range(C) for the problem the
    QR solved exactly, and w = prod_i |R[i, i]| / ||R11||_F (R11 the
    leading k x k block, the R factor of C) satisfies w <= s_min/s_max for
    the singular values of R11, since |det R11| <= s_min s_max^(k-1) and
    s_max <= ||R11||_F.  In exact arithmetic every residual C c - y is at
    least rho.  In floating point, with u = 2^-53 and gamma = 64 m k^2 u
    (generous for the constants of the columnwise backward-error bounds of
    Householder QR, of ``lstsq`` and of the residual's matrix-vector
    product): the QR is exact for [C + dC, y + dy] with ||dC|| <= gamma ||C||
    and ||dy|| <= gamma ||y||.  If w > 1e3 gamma, then sigma_min(C) >=
    (w/2) s_max and ||C|| <= 2 s_max, so kappa = 4/w bounds the condition
    number of C, and the distance from y to range(C) is at least
    rho - gamma (1 + kappa) ||y||.  ``lstsq`` truncates nothing (its cutoff
    eps max(m, k) s_max is far below w s_max) and returns
    ||c|| <= 2 ||y|| / sigma_min(C), so forming and measuring C c - y costs
    at most gamma (2 kappa + 1) ||y||.  The computed ``lstsq`` residual is
    therefore at least rho - 4 kappa gamma ||y||, and a support is skipped
    only when rho > thr + 32 gamma ||y|| / w, twice that margin.  Supports
    with w <= 1e3 gamma (duplicate or zero columns, factors near
    ``lstsq``'s cutoff) always go to ``lstsq``, as does every support at
    k >= m, where range(C) can be all of R^m.  The screen is off when
    [B, y] is outside ``matrix_core.in_safe_range``, where underflow or
    overflow could void the bound.  The supports not skipped go in
    lexicographic order through the same ``lstsq`` call and residual test
    as without the screen, so the chosen support, x_hat and status never
    depend on it.

    Guard.  A y that fits no support visits every level, so ``GuardError``
    is raised when C(n, 1) + ... + C(n, k_max) exceeds ``MAX_L0_SUPPORTS``,
    not only when the deepest level does.
    """
    B, yv = as_system(B, y)
    m, n = B.shape
    if not 0 <= k_max <= n:
        raise ValueError(f"k_max must satisfy 0 <= k_max <= cols, got {k_max}")
    total = sum(math.comb(n, k) for k in range(1, k_max + 1))
    if total > MAX_L0_SUPPORTS:
        raise GuardError(
            f"l0 enumeration guard exceeded: C({n},1) + ... + C({n},{k_max})={total}"
            f" > max_supports={MAX_L0_SUPPORTS}"
        )
    thr = 1e-8 * (1.0 + float(np.linalg.norm(yv)))
    if float(np.linalg.norm(yv)) <= thr:
        return _report(np.zeros(n), B, yv, "converged")
    By = np.column_stack([B, yv])
    screenable = in_safe_range(By)
    for k in range(1, k_max + 1):
        gamma = 64.0 * m * k * k * _UNIT_ROUNDOFF
        screen = screenable and k < m
        for subs in column_subsets(n, k, m * (k + 1)):
            if screen:
                subs = subs[_may_fit(By, subs, thr, gamma)]
            for sup in subs:
                cols = B[:, sup]
                coef, *_ = np.linalg.lstsq(cols, yv, rcond=None)
                if float(np.linalg.norm(cols @ coef - yv)) <= thr:
                    u = np.zeros(n)
                    u[sup] = coef
                    return _report(u, B, yv, "converged")
    return _report(np.zeros(n), B, yv, "infeasible")


@dataclass
class PipelineResult:
    """Recovery report plus the pipeline diagnostics that produced it."""

    report: RecoveryReport
    certificate: LinearizationCertificate
    delta_2k: float | None  # symmetric RIP constant of the effective matrix, if measured
    scale: float  # rescale factor applied to the linear system (1.0 when not measured)


def _balanced_free_value(p: PointRequirements) -> float:
    """Free diagonal value that keeps the implied l1 weighting one-sided.

    Constrained diagonal entries are f_i(z)/z_i on the support of z; setting
    the free entries to min(1, min |c_i|) makes deviations off the support
    at least as expensive as on it, so the l1 decoder on the reweighted
    system is never worse than on the unweighted one.
    """
    if not p.z_nz.any():
        return 1.0
    cmin = float(np.min(np.abs(p.fz[p.z_nz] / p.z[p.z_nz])))
    return min(1.0, cmin) if cmin > 0 else 1.0


def _effective_matrix(A: np.ndarray, cert: LinearizationCertificate, composition: str):
    """Y A for "pre", A Y for "post".  A Y without a replaced column is a
    scaled permutation, so its product gathers and scales A: each entry is
    a sum with one nonzero term, which the dense product rounds once, as
    the scaling does.  Adding 0.0 turns the -0.0 of a zero entry of A times
    a negative value into the +0.0 of the dense product, so the two agree
    bit for bit unless a product underflows to zero.  ``take`` keeps B
    C-ordered like the dense product, so later BLAS calls round alike."""
    if cert.q is not None:
        return cert.Y @ A if composition == "pre" else A @ cert.Y
    if composition == "pre":
        B = A.take(cert.perm, axis=0)
        B *= cert.vals[:, None]
    else:
        inv = np.argsort(cert.perm)  # column j of A Y is vals[i] A[:, i] with perm[i] = j
        B = A.take(inv, axis=1)
        B *= cert.vals[inv]
    B += 0.0
    return B


def recover_via_linearization(
    A,
    F: NonlinearMap,
    composition: str,
    x_true,
    method: str,
    *,
    max_iter: int = 200,
) -> PipelineResult:
    """Recover a sparse signal from composite nonlinear measurements.

    composition "pre" means the map acts on the linear measurements
    (z = F(A x)); "post" means it acts on the signal (z = A F(x)).  The
    certificate is built at the matching anchor (A x for "pre", x for
    "post") with the strongest construction the map supports over its whole
    domain, and the measurements are then decoded as z = (Y A) x or
    z = (A Y) x by the chosen method ("l1" or "l0").

    The map is qualified (``qualified_type``) first.  A signal with a
    subnormal nonzero entry raises ``ValueError`` naming its index: a map's
    nominal type holds only where nonzero coordinates are normal floats, and
    such an entry would also count as support.  The sensing matrix's
    RIP of order 2k is then verified by brute force when the support count
    is within the guard, and asserted by the caller otherwise.  The
    effective matrix is rescaled to symmetric RIP bounds when its constants
    are measurable (again within the guard); rescaling never changes the
    recovered support.  ``max_iter`` caps the l1 solver's
    iterations; it is validated for either method.
    """
    _check_max_iter(max_iter)
    A = as_matrix(A)
    x = as_vector(x_true)
    # ValueError for an unknown composition, RequirementError when F does not qualify
    target = qualified_type(F, composition)
    if method not in ("l1", "l0"):
        raise ValueError(f"method must be 'l1' or 'l0', got {method!r}")
    m, n = A.shape
    if x.shape[0] != n:
        raise ValueError(f"signal dim {x.shape[0]} does not match sensing matrix cols {n}")
    subnormal = np.flatnonzero((x != 0.0) & (np.abs(x) < np.finfo(np.float64).tiny))
    if subnormal.size:
        i = int(subnormal[0])
        raise ValueError(f"x_true[{i}] = {x[i]:.3g} is subnormal; rescale the signal or set it to 0")
    k = int(np.count_nonzero(x))
    if k == 0:
        raise ValueError("x_true must have at least one nonzero entry")

    order = min(2 * k, n)
    measurable = math.comb(n, order) <= MAX_RIP_SUPPORTS
    if measurable:
        _require_rip_order(A, order)  # RipOrderError on failure

    # the certificate has exactly the map's type, even where a stronger one
    # exists; the measurements reuse its one evaluation of F
    if composition == "pre":
        cert = linearize(F, A @ x, target)
        z = cert.Fz
    else:
        cert = linearize(F, x, target, free_value=_balanced_free_value)
        z = A @ cert.Fz
    B = _effective_matrix(A, cert, composition)

    lam, delta = 1.0, None
    if measurable:  # B has the n columns of A
        try:
            rep = rip_constants(B, order)
            lam, delta = rep.lam, rep.delta
        except (RipOrderError, RipRangeError):  # lam 1: the decoder scales B itself
            pass

    B *= lam  # B is fresh; the measurements may be the certificate's Fz
    if method == "l1":
        report = basis_pursuit(B, lam * z, max_iter=max_iter)
    else:
        report = l0_oracle(B, lam * z, k)

    e = _unit_exponent(x)  # one power of two on both norms: exact, and neither overflows
    error, xnorm = (np.linalg.norm(np.ldexp(v, e)) for v in (report.x_hat - x, x))
    report = replace(
        report,
        support_exact=support_set(report.x_hat) == {int(i) for i in np.flatnonzero(x)},
        rel_error=float(error / xnorm),
    )
    return PipelineResult(report=report, certificate=cert, delta_2k=delta, scale=lam)
