"""Primal-dual interior-point solver for basis pursuit.

Solves min ||u||_1 s.t. B u = b, with B of full row rank, as the split
linear program (Chen, Donoho & Saunders 2001)

    minimize 1'(u+ + u-)  subject to  B (u+ - u-) = b,  u+, u- >= 0

by Mehrotra's predictor-corrector method: the affine-scaling (predictor)
direction sets the centering weight sigma = (mu_aff/mu)^3 and a corrector
step reuses the same factorization.

Numerical design, chosen for the badly column-scaled systems the l1 decoder
produces:

* the program's matrix E = [B, -B] is never formed: E x and E'y are applied
  in split form, and with d = x/s split as (d+, d-) the normal matrix
  E diag(d) E' is G = X X' with X = B diag(sqrt(d+ + d-)), formed as
  fl(X X') (one symmetric rank-k product);
* the Cholesky factorization G = L L' decides the route.  If it fails, or
  L's diagonal is not finite and positive, Householder QR of X' gives the
  fallback factor R with R'R = G; else R = L'.  Where L is accepted and G
  has order at most ``_BLOCK`` = 64, G v = r is solved by LU of G: solving
  with a matrix beats forming an inverse (Higham, Accuracy and Stability
  of Numerical Algorithms, ch. 14).  Every other solve substitutes forward
  with R' and back with R over R's diagonal blocks of order at most
  ``_BLOCK``, each inverted once per factorization by LAPACK's ``inv``
  (whose partial pivoting never swaps rows of a triangular block).  An
  iteration makes two solves, predictor and corrector; the starting point
  makes one, by LU of G at every order (``_start_solve``).  Measured, LU
  of every Gram with no Cholesky test takes more Newton steps, and LU
  loses to block substitution at orders 128 and 160 (it still wins at 96);
  the cutoff reuses ``_BLOCK`` rather than add a constant;
* accuracy: the LU solve and substitution with either R are backward
  stable, with an error of order u ||G||; the QR's smaller condition
  number (the square root of G's) helps a least-squares problem in X', not
  a solve with G.  Cholesky-based normal-equation steps of an
  interior-point method stay accurate as G grows ill-conditioned near the
  solution (Wright 1999), so each direction is solved once, without
  refinement.  The stopping tests below use true residuals, so the route
  can change how many iterations a solve takes, never whether its answer
  passes; and a certified exit refits x on its support by its own QR, so
  a certified answer depends on the iterates only through its support S;
* convergence is declared on relative primal/dual residuals plus the
  complementarity measure x's / (1 + |1'x|), the standard gap proxy that
  stays meaningful when cancellation pollutes 1'x - b'y;
* the best iterate (by the max of those three measures) is tracked, and a
  sharp merit blow-up (a Newton step computed beyond working precision)
  aborts the loop, returning the best iterate with status "max_iter"; so
  do a singular factor or LU pivot, and the ``max_iter``-th iterate,
  before any step is computed from it.

The returned y is the dual solution and certifies the answer independently
of this code: if ||B'y||_inf <= 1, every u with B u = b has
||u||_1 >= y'B u = y'b, so y'b close to ||u||_1 proves u optimal.  The
method is deterministic dense numpy.  Basis pursuit with B of full row rank
is feasible and bounded, so the statuses are "converged" and "max_iter".

Certified exit.  A caller may pass ``certify``, called with the current
dual y and the candidate support S = {i : r_i > tau}, where
r_i = max(x+_i/s+_i, x-_i/s-_i) and tau = ``_SUPPORT_RATIO`` (the
primal/dual-slack indicator of El-Bakry, Tapia & Zhang, 1994: r_i grows
without bound on the optimal support and tends to 0 off it).  The call is
made at each iterate where 0 < |S| < m and the two groups are apart:
every r_i in S is at least ``_SUPPORT_GAP`` times every r_i outside.
While some r_i still sit near tau, S is seldom the support, and each
failed call costs the hook a factorization.  The hook returns None or a
tuple whose first two entries are an x and a y; the solve then returns
them at once with status "converged" and keeps the whole tuple as
``LpResult.certificate``.  The solver neither reads nor checks the tuple,
so the caller's hook alone answers for it (``recovery.certify_l1``
returns a polished x, a dual certificate of its unique optimality and
that certificate's margin).  The hook must not modify y: a None then
leaves the iterate untouched, and the solve goes on bit for bit as
without a hook.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = ["LpResult", "solve_standard_form"]

#: accepted Grams of at most this order are solved by LU; longer factors by blocks of this order
_BLOCK = 64
#: support indicator of the certified exit: x_i/s_i above this on either split half
_SUPPORT_RATIO = 0.1
#: the certified exit is tried only when every ratio in S is this many times every ratio outside
_SUPPORT_GAP = 2.0


@dataclass
class LpResult:
    """x is the l1 minimizer u+ - u- and y the dual solution; iterations is the
    returned iterate's index and steps the number of Newton steps computed, one
    factorization each; certificate is the ``certify`` hook's return value if it ended the solve."""

    x: np.ndarray
    y: np.ndarray
    status: str  # converged | max_iter
    iterations: int
    steps: int
    certificate: tuple | None = None


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    q = v[neg] / dv[neg]
    return min(1.0, -float(q.max())) if q.size else 1.0


def _gram_factor(X: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The Gram G = fl(X X') and the upper triangular R = L' with R'R = G
    from its Cholesky factorization, or None when G overflows, the
    factorization fails, or a diagonal entry of L is not finite and positive."""
    with np.errstate(over="ignore", invalid="ignore"):
        G = X @ X.T
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    diag = np.diagonal(L)
    if not (0.0 < float(diag.min()) and float(diag.max()) < np.inf):
        return None
    return G, L.T


def _factor_solver(R: np.ndarray):
    """Solver of R'R v = r for the upper triangular R, by block substitution
    (see the module docstring); ``LinAlgError`` when a diagonal entry is zero."""
    m = R.shape[0]
    blocks = [(i, i + _BLOCK, np.linalg.inv(R[i:i + _BLOCK, i:i + _BLOCK]))
              for i in range(0, m, _BLOCK)]

    def solve(r):
        w = np.empty(m)
        for i, j, D in blocks:  # R'w = r
            w[i:j] = D.T @ (r[i:j] - R[:i, i:j].T @ w[:i])
        v = np.empty(m)
        for i, j, D in reversed(blocks):  # R v = w
            v[i:j] = D @ (w[i:j] - R[i:j, j:] @ v[j:])
        return v

    return solve


def _normal_solver(B: np.ndarray, dsum: np.ndarray):
    """Solver of (B diag(dsum) B') v = r by the route of the module
    docstring; the LU route raises ``LinAlgError`` at a zero pivot."""
    X = B * np.sqrt(dsum)
    found = _gram_factor(X)
    if found is None:
        return _factor_solver(np.linalg.qr(X.T, mode="r"))
    G, R = found
    if G.shape[0] <= _BLOCK:
        return lambda r: np.linalg.solve(G, r)
    return _factor_solver(R)


def _start_solve(B: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(2 B B')^-1 b by LU of the Gram at every order, as one solve needs no
    factor or block inverses; by the QR fallback's block substitution if the
    Gram overflows or LU fails."""
    X = B * np.sqrt(2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        G = X @ X.T
    if np.isfinite(G).all():
        try:
            return np.linalg.solve(G, b)
        except np.linalg.LinAlgError:
            pass
    return _factor_solver(np.linalg.qr(X.T, mode="r"))(b)


def solve_standard_form(B, y, *, feas_tol: float = 1e-8, opt_tol: float = 1e-8,
                        max_iter: int = 200,
                        certify: Callable[[np.ndarray, np.ndarray], tuple | None] | None = None,
                        ) -> LpResult:
    """Minimize ||u||_1 s.t. B u = b for the measurements b (argument y) and
    B of full row rank, through the split program above; ``certify`` is the
    optional certified-exit hook (see the module docstring)."""
    B = np.asarray(B, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    n = B.shape[1]
    N = 2 * n  # number of split variables

    def E(v):
        return B @ (v[:n] - v[n:])

    def Et(w):
        g = B.T @ w
        return np.concatenate([g, -g])

    # Mehrotra's heuristic starting point: x = E'(EE')^-1 b, y = (EE')^-1 E1 = 0
    x = Et(_start_solve(B, b))
    y = np.zeros(B.shape[0])
    s = np.ones(N)
    x = x + max(-1.5 * float(x.min()), 0.0)
    xs = float(x @ s)
    x = x + (0.5 * xs / max(float(s.sum()), 1e-12) if xs > 0 else 1.0)
    s = s + (0.5 * xs / max(float(x.sum()), 1e-12) if xs > 0 else 1.0)
    if x.min() <= 0:
        x = x + (1.0 - x.min())

    bn = 1.0 + float(np.linalg.norm(b))
    cn = 1.0 + float(np.sqrt(N))
    best = None  # (merit, x, y, iteration); x and y are rebound each step, never written
    for it in range(1, max_iter + 1):
        rp = b - E(x)
        rd = 1.0 - Et(y) - s
        mu = float(x @ s) / N
        pr = float(np.linalg.norm(rp)) / bn
        dr = float(np.linalg.norm(rd)) / cn
        mu_rel = float(x @ s) / (1.0 + abs(float(x.sum())))
        merit = max(pr, dr, mu_rel)
        if best is None or merit < best[0]:
            best = (merit, x, y, it - 1)
        ratio = x / s
        if certify is not None:
            r = np.maximum(ratio[:n], ratio[n:])
            inside = r > _SUPPORT_RATIO
            S = inside.nonzero()[0]
            found = None
            if 0 < S.size < B.shape[0] and r[inside].min() >= _SUPPORT_GAP * r[~inside].max():
                found = certify(S, y)
            if found is not None:
                return LpResult(found[0], found[1], "converged", it - 1, it - 1, found)
        if pr <= feas_tol and dr <= feas_tol and mu_rel <= opt_tol:
            return LpResult(x[:n] - x[n:], y, "converged", it - 1, it - 1)
        if merit > 1e6 * best[0]:
            break  # the last step was beyond working precision; keep the best iterate
        if it == max_iter:
            break  # no step would be evaluated; keep the best iterate

        d = np.minimum(np.maximum(ratio, 1e-300), 1e300)
        dsum = d[:n] + d[n:]

        def newton(rc):
            dy = solve(rp - E((rc - x * rd) / s))
            ds_ = rd - Et(dy)
            dx_ = (rc - x * ds_) / s
            return dx_, dy, ds_

        try:
            solve = _normal_solver(B, dsum)
            # predictor (affine scaling)
            dx_a, _, ds_a = newton(-x * s)
            ap = _max_step(x, dx_a)
            ad = _max_step(s, ds_a)
            mu_aff = float((x + ap * dx_a) @ (s + ad * ds_a)) / N
            sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

            # corrector with centering
            dx_c, dy_c, ds_c = newton(-x * s - dx_a * ds_a + sigma * mu)
        except np.linalg.LinAlgError:
            break  # a singular factor or LU pivot: no Newton step; keep the best iterate
        eta = 0.9995
        ap = min(1.0, eta * _max_step(x, dx_c))
        ad = min(1.0, eta * _max_step(s, ds_c))
        x = x + ap * dx_c
        y = y + ad * dy_c
        s = s + ad * ds_c

    _, bx, by, bit = best
    return LpResult(bx[:n] - bx[n:], by, "max_iter", bit, it - 1)
