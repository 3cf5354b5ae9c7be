"""Sparse recovery engines and the linearize-then-recover pipeline.

Two decoders are provided:

* ``basis_pursuit`` -- l1-norm minimization subject to B u = y, solved by
  the in-repo interior-point core for the split form u = u+ - u-;
* ``l0_oracle`` -- exhaustive minimum-support search: for k = 0, 1, ... all
  size-k supports are tried in lexicographic order and the first one whose
  least-squares fit reproduces the measurements is returned.  Feasible only
  at small scale (guarded).

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
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .errors import GuardError, RipOrderError
from .lp import solve_standard_form
from .matrix_core import as_matrix, as_system, as_vector, rank_of_singular_values
from .nonlinear_maps import NonlinearMap, PointRequirements
from .pointwise_linearization import (
    REQUIRED_TYPE,
    LinearizationCertificate,
    linearize,
    qualified_type,
)
from .report import JsonReport
from .sensing_properties import MAX_RIP_SUPPORTS, rip_constants

__all__ = [
    "RecoveryReport",
    "PipelineResult",
    "support_set",
    "basis_pursuit",
    "l0_oracle",
    "recover_via_linearization",
]

#: guard on the number of supports at the deepest level of the l0 search
MAX_L0_SUPPORTS = 100_000
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
    B x_hat - y for the system actually solved.
    """

    x_hat: np.ndarray
    residual: float
    l1_norm: float
    support_exact: bool | None
    rel_error: float | None
    solver_status: str  # converged | max_iter | infeasible


def support_set(v) -> set[int]:
    """Indices of the significant entries of a recovered vector.

    The threshold 1e-6 * max(1, ||v||_inf) separates true support values
    from decoder noise on the scales this package works at.
    """
    x = as_vector(v)
    threshold = 1e-6 * max(1.0, float(np.abs(x).max()))
    return {int(i) for i in np.flatnonzero(np.abs(x) > threshold)}


def _report(x_hat: np.ndarray, B: np.ndarray, y: np.ndarray, status: str) -> RecoveryReport:
    return RecoveryReport(
        x_hat=x_hat,
        residual=float(np.linalg.norm(B @ x_hat - y)),
        l1_norm=float(np.abs(x_hat).sum()),
        support_exact=None,
        rel_error=None,
        solver_status=status,
    )


def basis_pursuit(B, y, *, max_iter: int = 200) -> RecoveryReport:
    """Minimize ||u||_1 subject to B u = y (within the feasibility tolerance).

    Row-rank-deficient systems are reduced to their row space first; if y
    has a component outside the column space beyond tolerance the report
    comes back with solver_status "infeasible" and x_hat = 0.  The solver
    stops after ``max_iter`` iterations with status "max_iter".
    """
    _check_max_iter(max_iter)
    B, yv = as_system(B, y)
    m, n = B.shape
    ynorm = float(np.linalg.norm(yv))
    if ynorm == 0.0:
        return _report(np.zeros(n), B, yv, "converged")

    # reduce to a full-row-rank system; budget half the feasibility
    # tolerance for the out-of-span component and half for the LP residual
    r = int(rank_of_singular_values(np.linalg.svd(B, compute_uv=False)))
    if r < m:
        Ur = np.linalg.svd(B, full_matrices=False)[0][:, :r]
        out_of_span = float(np.linalg.norm(yv - Ur @ (Ur.T @ yv)))
        if out_of_span > 0.5 * LP_FEASIBILITY_TOL * (1.0 + ynorm):
            return _report(np.zeros(n), B, yv, "infeasible")
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
    )
    return _report(res.x, B, yv, res.status)


def l0_oracle(B, y, k_max: int) -> RecoveryReport:
    """Sparsest solution of B u = y by exhaustive support enumeration.

    For each k = 0..k_max, supports are tried in lexicographic order and
    the first least-squares fit with residual <= 1e-8 (1 + ||y||_2) wins,
    which also fixes the tie-breaking within a sparsity level.  When no
    support of size <= k_max fits, the report carries solver_status
    "infeasible" (nothing found) and x_hat = 0.
    """
    B, yv = as_system(B, y)
    m, n = B.shape
    if not 0 <= k_max <= n:
        raise ValueError(f"k_max must satisfy 0 <= k_max <= cols, got {k_max}")
    if math.comb(n, k_max) > MAX_L0_SUPPORTS:
        raise GuardError(
            f"l0 enumeration guard exceeded: C({n},{k_max})={math.comb(n, k_max)}"
            f" > max_supports={MAX_L0_SUPPORTS}"
        )
    thr = 1e-8 * (1.0 + float(np.linalg.norm(yv)))
    if float(np.linalg.norm(yv)) <= thr:
        return _report(np.zeros(n), B, yv, "converged")
    for k in range(1, k_max + 1):
        for sup in combinations(range(n), k):
            cols = B[:, sup]
            coef, *_ = np.linalg.lstsq(cols, yv, rcond=None)
            if float(np.linalg.norm(cols @ coef - yv)) <= thr:
                u = np.zeros(n)
                u[list(sup)] = coef
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

    The sensing matrix's RIP of order 2k is verified by brute force when
    the support count is within the guard, and asserted by the caller
    otherwise.  The effective matrix is rescaled to symmetric RIP bounds
    when its constants are measurable (again within the guard); rescaling
    never changes the recovered support.  ``max_iter`` caps the l1 solver's
    iterations; it is validated for either method.
    """
    _check_max_iter(max_iter)
    A = as_matrix(A)
    x = as_vector(x_true)
    if composition not in REQUIRED_TYPE:
        raise ValueError(f"composition must be 'pre' or 'post', got {composition!r}")
    if method not in ("l1", "l0"):
        raise ValueError(f"method must be 'l1' or 'l0', got {method!r}")
    m, n = A.shape
    if x.shape[0] != n:
        raise ValueError(f"signal dim {x.shape[0]} does not match sensing matrix cols {n}")
    k = int(np.count_nonzero(x))
    if k == 0:
        raise ValueError("x_true must have at least one nonzero entry")

    order = min(2 * k, n)
    measurable = math.comb(n, order) <= MAX_RIP_SUPPORTS
    if measurable:
        rip_constants(A, order)  # RipOrderError on failure

    target = qualified_type(F, composition)  # RequirementError when F does not qualify

    # the certificate has exactly the map's type, even where a stronger one
    # exists; the measurements reuse its one evaluation of F
    if composition == "pre":
        cert = linearize(F, A @ x, target)
        z = cert.Fz
        B = cert.Y @ A
    else:
        cert = linearize(F, x, target, free_value=_balanced_free_value)
        z = A @ cert.Fz
        B = A @ cert.Y

    lam, delta = 1.0, None
    if measurable:  # B has the n columns of A
        try:
            rep = rip_constants(B, order)
            lam, delta = rep.lam, rep.delta
        except RipOrderError:
            pass

    if method == "l1":
        report = basis_pursuit(lam * B, lam * z, max_iter=max_iter)
    else:
        report = l0_oracle(lam * B, lam * z, k)

    xnorm = float(np.linalg.norm(x))
    report = replace(
        report,
        support_exact=support_set(report.x_hat) == {int(i) for i in np.flatnonzero(x)},
        rel_error=float(np.linalg.norm(report.x_hat - x)) / xnorm,
    )
    return PipelineResult(report=report, certificate=cert, delta_2k=delta, scale=lam)
