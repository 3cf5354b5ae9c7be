"""Exact-arithmetic audits of the certified screens' rounding bounds.

Each screen proves an inequality in floating point (the Gram-floor lemma of
``matrix_core`` and the steps each screen adds to it).  These tests plant
float inputs just inside and just outside each screen's cutoff and check the
proven inequality in rational arithmetic on the floats the screen read, so
that a bound that does not hold fails here, not only a reference answer.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from nlcs import matrix_core, recovery, sensing_properties
from nlcs.errors import RipOrderError
from tests.exact import definite, gram, rationals, solve
from tests.test_sensing_properties import gate_matrix

U = Fraction(1, 2**53)


def gamma(j):
    return j * U / (1 - j * U)


def with_singular_values(s, m, rng):
    """An m x len(s) matrix with singular values s (m >= len(s))."""
    Q, _ = np.linalg.qr(rng.normal(size=(m, len(s))))
    V, _ = np.linalg.qr(rng.normal(size=(len(s), len(s))))
    return (Q * s) @ V.T


def below(H, hi, strict=True):
    """Is every eigenvalue of the symmetric rational H below hi (at most hi)?"""
    return definite([[-v for v in row] for row in H], -Fraction(hi), strict)


# ---------------------------------------------------------------------------
# sensing_properties._floor_cleared: a cleared block S has
# lambda_min(M_S'M_S) > tau + (1e-8 - e) tr G_S, e = 2.02 (k + 2) u + 2 gamma_m
# ---------------------------------------------------------------------------

FLOOR_SIDES = (1 - 1e-3, 1 - 1e-5, 1 + 1e-5, 1 + 1e-3)


def floor_blocks(k, m, scale, with_tau, rng):
    """M = 2^scale [M_1, ..., M_4], each m x k block with its smallest squared
    singular value at a factor ``FLOOR_SIDES`` of the floor test's shift
    tau + 1e-8 tr G_S + 2^-1000; the supports and tau."""
    s = np.geomspace(1.0, 0.6, k - 1)
    bases = [(np.linalg.qr(rng.normal(size=(m, k)))[0], np.linalg.qr(rng.normal(size=(k, k)))[0])
             for _ in FLOOR_SIDES]
    top = np.sort([float(q @ q) for Q, V in bases for q in ((Q[:, :-1] * s) @ V[:, :-1].T).T])
    tau0 = 1e-10 * 1.001 * top[-k:].sum() if with_tau else 0.0
    cut = tau0 + 1e-8 * float(s @ s) + 2.0 ** (-1000 - 2 * scale)  # the shift at scale 1
    M = np.ldexp(np.hstack([(Q * np.r_[s, np.sqrt(side * cut / (1 - 1e-8 * side))]) @ V.T
                            for (Q, V), side in zip(bases, FLOOR_SIDES)]), scale)
    G = M.T @ M
    tau = 1e-10 * (1.001 * float(np.sort(G.diagonal())[-k:].sum())) if with_tau else 0.0
    return M, G, np.arange(len(FLOOR_SIDES) * k).reshape(-1, k), tau


@pytest.mark.parametrize("scale", [-499, -460, 0, 400, 499])
def test_floor_cleared_bound_holds_exactly(scale):
    rng = np.random.default_rng(1000 + scale)
    for k, m in ((2, 3), (4, 8), (6, 6)):
        for with_tau in (False, True):
            M, G, subs, tau = floor_blocks(k, m, scale, with_tau, rng)
            cleared = sensing_properties._floor_cleared(G, subs, tau)
            e = Fraction(202, 100) * (k + 2) * U + 2 * gamma(m)
            for S in subs[cleared]:
                trace = sum(Fraction(G[j, j]) for j in S)
                assert definite(gram(M, S), Fraction(tau) + (Fraction(1, 10**8) - e) * trace)
            assert cleared.tolist() == [side > 1 for side in FLOOR_SIDES], (k, with_tau)


# ---------------------------------------------------------------------------
# recovery._gram_floor, in both phi modes: a positive return r = phi F / 2 has
# lambda_min(M M') > 0.99 phi F = 1.98 r
# ---------------------------------------------------------------------------

def planted_rows(p, q, ratio, rng):
    """A p x q matrix M whose smallest squared singular value is ``ratio``
    times the sum of them all (M M''s lambda_min over its trace)."""
    s = np.geomspace(1.0, 0.5, p - 1)
    rest = float(s @ s)
    return with_singular_values(np.r_[s, np.sqrt(ratio * rest / (1 - ratio))], q, rng).T


def edges(M):
    """M scaled to each edge of ``in_safe_range``: largest entry just below
    2^400, smallest just above 2^-400; then each just outside."""
    hi, lo = (np.frexp(f(np.abs(M)))[1] for f in (np.max, np.min))
    return [np.ldexp(M, 400 - hi), np.ldexp(M, -399 - lo)], \
        [np.ldexp(M, 401 - hi), np.ldexp(M, -401 - lo)]


def assert_gram_floor_bound(M, phi):
    r = recovery._gram_floor(M, phi)
    if r > 0.0:
        assert definite(gram(M.T), Fraction(198, 100) * Fraction(r))
    return r


@pytest.mark.parametrize("phi", [None, recovery._RANK_FLOOR], ids=["own_phi", "rank_floor"])
def test_gram_floor_bound_holds_exactly(phi):
    rng = np.random.default_rng(1100)
    for p, q in ((2, 3), (4, 9), (8, 20)):
        # lambda_min / F at the cutoff: the shift is (phi + x) F, x = 4 (p + q) u, and without
        # a phi, phi = lambda_min / (2F) unless that is below the floor
        x, floor = 4 * (p + q) * 2.0**-53, recovery._RANK_FLOOR
        cut = phi + x if phi else max(floor + x, 2 * x)
        ratios = [0.5 * cut, 0.98 * floor, 2 * cut, 1e-6, 0.3]
        cleared = []
        for ratio in ratios:
            for M in [planted_rows(p, q, ratio, rng) for _ in range(4)]:
                inside, outside = edges(M)
                cleared.append(assert_gram_floor_bound(M, phi) > 0.0)
                for E in inside:
                    assert matrix_core.in_safe_range(E)
                    assert (assert_gram_floor_bound(E, phi) > 0.0) == cleared[-1], (p, q, ratio)
                for E in outside:
                    assert recovery._gram_floor(E, phi) == 0.0
        assert cleared == [ratio > cut for ratio in ratios for _ in range(4)], (p, q)


#: seeds whose 2 x 500 plant at 0.98 ``_RANK_FLOOR`` passes a Cholesky test shifted
#: by phi F alone: the rounding of fl(M M') (about q u F, q = 500) exceeds the gap
#: to the floor there, so only the 4 (p + q) u F term of the shift rejects them
#: (51 of seeds 0-999 pass without it, none with it)
WIDE_SEEDS = (30, 61, 72, 94, 102)


def test_gram_floor_shift_covers_wide_products():
    phi = recovery._RANK_FLOOR
    for seed in WIDE_SEEDS:
        M = planted_rows(2, 500, 0.98 * phi, np.random.default_rng(seed))
        r = phi * float(np.trace(M @ M.T)) / 2.0  # what a pass would return
        assert not definite(gram(M.T), Fraction(198, 100) * Fraction(r)), seed
        assert assert_gram_floor_bound(M, phi) == 0.0, seed


def test_gram_floor_is_off_where_products_underflow():
    # rows (1, 3/4) 2^-537 and 3/4 of it: M M' is singular, but each product
    # rounds to a whole multiple of 2^-1074, to [[100, 50], [50, 50]] 2^-1074,
    # which a Cholesky factorization would accept
    M = np.ldexp(np.tile([[1.0, 0.75], [0.75, 0.5625]], 50), -537)
    assert not definite(gram(M.T))
    for phi in (None, recovery._RANK_FLOOR, 0.5):
        assert assert_gram_floor_bound(M, phi) == 0.0


# ---------------------------------------------------------------------------
# recovery._may_fit: every support it skips has an exact least-squares
# residual above thr
# ---------------------------------------------------------------------------

def exact_residual2(By, S):
    """The squared least-squares residual of y = By[:, -1] on the columns S."""
    H = gram(By, [int(j) for j in S] + [By.shape[1] - 1])
    k = len(S)
    z = solve([row[:k] for row in H[:k]], [row[k] for row in H[:k]])
    return H[k][k] - sum(zi * row[k] for zi, row in zip(z, H[:k]))


def screen_cutoff(By, S, thr, gamma):
    """The residual above which ``_may_fit`` skips S: thr + 32 gamma ||y|| / w."""
    R = np.linalg.qr(By[:, list(S) + [By.shape[1] - 1]], mode="r")
    k = len(S)
    w = np.prod(np.abs(np.diag(R)[:k]) / np.linalg.norm(R[:k, :k]))
    return thr + 32.0 * gamma * float(np.linalg.norm(By[:, -1])) / w


@pytest.mark.parametrize("scale", [-380, 0, 380])
def test_may_fit_bound_holds_exactly(scale):
    rng = np.random.default_rng(1200 + scale)
    m, n = 6, 8
    for k in (1, 2, 3):
        B = with_singular_values(np.geomspace(1.0, 0.1, n)[:m], n, rng).T * 2.0**scale
        S = np.sort(rng.choice(n, size=k, replace=False))
        Q = np.linalg.qr(B[:, S], mode="complete")[0]
        fit = B[:, S] @ rng.normal(size=k)
        out = Q[:, k:] @ rng.normal(size=m - k)
        out /= np.linalg.norm(out)
        gamma = 64.0 * m * k * k * 2.0**-53
        thr = 1e-8 * (1.0 + float(np.linalg.norm(fit)))
        y0 = fit + thr * out
        cut = screen_cutoff(np.column_stack([B, y0]), S, 1e-8 * (1.0 + np.linalg.norm(y0)), gamma)
        # residuals just either side of thr, where only rounding separates them, then
        # just below and just above the screen's own cutoff
        kept = []
        for r in np.r_[thr * (1 + np.arange(-12, 13) * 2e-9), cut * 0.999, cut * 1.001]:
            By = np.column_stack([B, fit + r * out])
            y_thr = 1e-8 * (1.0 + float(np.linalg.norm(By[:, -1])))
            kept.append(recovery._may_fit(By, S[None], y_thr, gamma)[0])
            if not kept[-1]:
                assert exact_residual2(By, S) > Fraction(y_thr) ** 2, (k, r)
        assert kept[-2:] == [True, False], k


# ---------------------------------------------------------------------------
# sensing_properties._require_rip_order: beta_hi bounds the exact lambda_max of
# every M_S'M_S, and a proven order has every exact lambda_min above
# tau = fl(1e-10 beta_hi)
# ---------------------------------------------------------------------------

def gate_inputs(rng):
    """(A, k): pairs planted either side of tau and of tau + d, matrices whose
    k largest columns are (nearly) equal, at the gate's scales."""
    top = 1.001 * 2.0  # beta_hi of ``gate_matrix``: its two largest columns have norm 1
    for low, tiny in ((1e-10, 1e-6), (1e-8, 1.0), (1e-6, 1.0)):
        yield gate_matrix(low, tiny), 2
    for side in (0.999, 1.001):
        yield gate_matrix(side * 1e-10 * top, 1e-6), 2
    for k in (2, 3):
        for near in (0.0, 1e-9):
            A = rng.normal(size=(6, 9))
            A[:, :k] = 4.0 * (A[:, :1] + near * rng.normal(size=(6, k)))
            yield A, k
    A = rng.normal(size=(6, 10)) / np.sqrt(6)
    for p in (0, -499, 499, -505, 505):  # tau is subnormal once unscaled at -499 and -505
        for k in (2, 4):
            yield np.ldexp(A, p), k


def test_require_rip_order_bounds_hold_exactly(monkeypatch):
    checks, fallbacks = [], []  # (tau, beta_hi) of the gate's range check; rip_constants calls
    in_range, rip = sensing_properties._normal_once_unscaled, sensing_properties.rip_constants
    monkeypatch.setattr(sensing_properties, "_normal_once_unscaled",
                        lambda a, b, s: checks.append((a, b)) or in_range(a, b, s))
    monkeypatch.setattr(sensing_properties, "rip_constants",
                        lambda A, k: fallbacks.append(k) or rip(A, k))
    proved = 0
    for A, k in gate_inputs(np.random.default_rng(1300)):
        checks.clear()
        fallbacks.clear()
        try:
            sensing_properties._require_rip_order(A, k)
        except RipOrderError:
            pass
        M = np.ldexp(A, matrix_core._unit_exponent(A, matrix_core._RIP_EXPONENT))
        blocks = [gram(M, S) for S in combinations(range(M.shape[1]), k)]
        assert all(below(H, checks[0][1]) for H in blocks)
        if not fallbacks:
            proved += 1
            tau = 1e-10 * (1.001 * float(np.sort(np.diag(M.T @ M))[-k:].sum()))
            assert all(definite(H, tau) for H in blocks)
    assert proved == 8  # (1e-6, 1.0), 1.001 tau and the Gaussian at scales 0, 499 and 505


# ---------------------------------------------------------------------------
# sensing_properties._screened_extremes: for every support it skips,
# M_S'M_S - alpha I and beta I - M_S'M_S are positive semidefinite for the
# alpha and beta it returns
# ---------------------------------------------------------------------------

def near_pair(rng, low=1e-6):
    """8 x 10: unit columns 0 and 1 whose Gram has smallest eigenvalue ``low``,
    and eight columns of norm 2 at cosine 3/4 to column 0.  The pairs of
    column 0 or 1 with one of the eight have the smallest Gershgorin lower
    bounds, and the pairs of two of the eight the largest upper bounds, so
    the screen's seeds leave the pair (0, 1) to its Cholesky test."""
    Z = np.linalg.qr(rng.normal(size=(8, 8)))[0]
    x, rest = Z[:, 0], Z[:, 1:]
    c = 1.0 - low
    z = rest @ rng.normal(size=(7, 9))
    z /= np.linalg.norm(z, axis=0)
    return np.column_stack([x, c * x + np.sqrt(1.0 - c * c) * z[:, 0],
                            2.0 * (0.75 * x[:, None] + np.sqrt(1.0 - 0.75**2) * z[:, 1:])])


def screen_inputs(rng):
    """(M, k, alphas): the pairs of ``near_pair`` with incoming alphas a few
    units of rounding either side of the pair's computed smallest eigenvalue,
    as a later chunk of ``rip_constants`` would pass them; then Gaussians at
    the scales ``rip_constants`` leaves unscaled, as a first chunk."""
    for _ in range(6):
        M = near_pair(rng)
        lam = float(np.linalg.eigvalsh(M[:, :2].T @ M[:, :2])[0])
        yield M, 2, [lam + j * 5e-17 for j in range(-10, 11)]
    for p in (-499, 0, 499):
        M = np.ldexp(rng.normal(size=(7, 12)) / np.sqrt(7), p)
        for k in (2, 3):
            yield M, k, [np.inf]


def test_screened_extremes_bounds_hold_exactly(monkeypatch):
    seen = []  # the supports each call sends to ``eigvalsh``
    extremes = sensing_properties._extremes
    monkeypatch.setattr(sensing_properties, "_extremes",
                        lambda M, subs, a, b: seen.extend(map(tuple, subs.tolist()))
                        or extremes(M, subs, a, b))
    skipped = 0
    for M, k, alphas in screen_inputs(np.random.default_rng(1400)):
        subs, G, grams = np.array(list(combinations(range(M.shape[1]), k))), M.T @ M, {}
        for alpha in alphas:
            seen.clear()
            a, b = sensing_properties._screened_extremes(M, G, subs, alpha, -np.inf)
            for S in set(map(tuple, subs.tolist())) - set(seen):
                skipped += 1
                if S not in grams:
                    grams[S] = gram(M, S)
                assert definite(grams[S], a, strict=False) and below(grams[S], b, strict=False), S
    assert skipped > 0


# ---------------------------------------------------------------------------
# recovery._abs_product, the a = fl(|B|'|w|) of ``l1_dual_errors``' "Rounding",
# summed by blocks of rows: every a_j >= (1 - gamma_m) |b_j|'|w| less the
# underflow allowance m 2^-1074, at the margin cutoff and under underflow
# ---------------------------------------------------------------------------

def assert_abs_product_bound(B, w):
    m, a = B.shape[0], recovery._abs_product(B, w)
    wq = [abs(v) for v in rationals([w])[0]]
    for j, col in enumerate(rationals(B.T)):
        exact = sum(abs(b) * v for b, v in zip(col, wq))
        assert (1 - gamma(m)) * exact <= Fraction(a[j]) + m * Fraction(1, 2**1074), j


def at_margin_cutoff(B, S, w, sign, target):
    """B with its off-support columns scaled until its raw margin is target times
    the checker's bound, as ``test_recovery``'s cutoff tests place it."""
    C, off = B.copy(), np.setdiff1d(np.arange(B.shape[1]), S)
    raw = np.abs(B[:, off].T @ w).max()
    for _ in range(4):  # the bound moves with the scale; iterate to the target
        bound = recovery._margin_and_bound(C, S, w, sign, C.T @ w)[1]
        C[:, off] = B[:, off] * ((1.0 - target * bound) / raw)
    return C


@pytest.mark.parametrize("m, n", [(3, 4097), (12, 1000), (40, 400)])
def test_abs_product_bound_holds_exactly_at_the_margin_cutoff(m, n):
    # n > 8192 / m: |B| is summed in blocks of 1, 8 and 20 rows
    rng = np.random.default_rng(1500 + m)
    S, verdicts = np.array([0, 1]), []
    for _ in range(2):
        B = rng.normal(size=(m, n))
        sign = rng.choice([-1.0, 1.0], size=2)
        w = np.linalg.lstsq(B[:, S].T, sign, rcond=None)[0]
        w = w + 10.0 ** rng.uniform(-12, -5) * rng.normal(size=m)
        B[:, 2] = 0.25 / w  # every |b_i2 w_i| = 1/4
        B[:, 3] = np.ldexp(np.sign(w), -1060)  # its products with w underflow
        x = np.zeros(n)
        x[S] = sign * rng.uniform(0.5, 2.0, size=2)
        for target in (0.99, 1.01):  # raw margin / bound
            C = at_margin_cutoff(B, S, w, sign, target)
            verdicts.append(not recovery.l1_dual_errors(C, C @ x, x, w))
            assert_abs_product_bound(C, w)
    assert verdicts == [False, True] * 2


@pytest.mark.parametrize("scale", [-1070, -600, -530, 0, 300])
def test_abs_product_bound_covers_underflow(scale):
    # B or w scaled until the products lose bits to underflow, or vanish
    rng = np.random.default_rng(1600)
    B, w = rng.normal(size=(12, 700)), rng.normal(size=12)
    B[:, 0] = np.abs(w)
    for Bs, ws in ((np.ldexp(B, scale), w), (B, np.ldexp(w, scale)),
                   (np.ldexp(B, scale // 2), np.ldexp(w, scale // 2))):
        assert_abs_product_bound(Bs, ws)


def test_abs_product_matches_the_one_block_product():
    # the blocks change only the order of each column's sum
    rng = np.random.default_rng(1700)
    for m, n in ((160, 512), (64, 128), (7, 5000)):
        B, w = rng.normal(size=(m, n)), rng.normal(size=m)
        whole = np.abs(B).T @ np.abs(w)
        assert np.all(np.abs(recovery._abs_product(B, w) - whole) <= 2 * m * 2.0**-53 * whole)
