import math
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import combinations

import numpy as np
import pytest

from nlcs import matrix_core, nonlinear_maps, recovery
from nlcs.errors import GuardError, RequirementError, RipOrderError, RipRangeError
from nlcs.matrix_core import (as_system, gaussian_matrix, in_safe_range, random_sparse_signal,
                              rank_of_singular_values)
from nlcs.nonlinear_maps import (
    abs_map,
    custom_map,
    identity_map,
    map_from_spec,
    nonzero_random_map,
    quantize_floor,
    sign_map,
    sine_map,
    square_map,
)
from nlcs.lp import solve_standard_form
from nlcs.recovery import (
    LP_FEASIBILITY_TOL,
    LP_OPTIMALITY_TOL,
    basis_pursuit,
    certify_l1,
    l0_oracle,
    l1_dual_errors,
    recover_via_linearization,
    support_set,
)
from nlcs.pointwise_linearization import LinearizationCertificate, linearize
from nlcs.sensing_properties import rip_constants, spark
from tests.exact import gram, rationals, solve

SQRT2_MINUS_1 = np.sqrt(2.0) - 1.0


def partial_orthonormal(m, n, seed):
    """m random rows of a random n x n orthogonal matrix, energy-normalized."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q[:m, :] * np.sqrt(n / m)


def scan_qualifying_matrix(m, n, order, limit=400, start=0):
    """First seeded partial-orthonormal matrix with delta_order < sqrt(2)-1."""
    for seed in range(start, start + limit):
        A = partial_orthonormal(m, n, seed)
        try:
            rep = rip_constants(A, order)
        except RipOrderError:
            continue
        if rep.delta < SQRT2_MINUS_1:
            return A, rep, seed
    raise AssertionError(f"no qualifying {m}x{n} matrix of order {order} in {limit} seeds")


class TestBasisPursuit:
    def test_identity_sensing(self):
        y = np.array([0.5, -1.25, 2.0])
        rep = basis_pursuit(np.eye(3), y)
        assert rep.solver_status == "converged"
        assert np.abs(rep.x_hat - y).max() < 1e-6

    def test_zero_measurements(self):
        rep = basis_pursuit(gaussian_matrix(3, 6, 0), np.zeros(3))
        assert rep.solver_status == "converged"
        assert np.array_equal(rep.x_hat, np.zeros(6))
        assert rep.residual == 0.0

    def test_two_by_three_vertex(self):
        B = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        rep = basis_pursuit(B, np.array([1.0, 0.0]))
        assert np.abs(rep.x_hat - np.array([1.0, 0.0, 0.0])).max() < 1e-6
        assert rep.l1_norm == pytest.approx(1.0, abs=1e-6)

    def test_infeasible_system(self):
        B = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
        rep = basis_pursuit(B, np.array([1.0, 0.0]))  # y outside the column space
        assert rep.solver_status == "infeasible"
        assert np.array_equal(rep.x_hat, np.zeros(2))

    def test_rank_deficient_but_consistent(self):
        B = np.array([[1.0, 2.0, 0.5], [2.0, 4.0, 1.0]])  # rank 1
        y = np.array([1.0, 2.0])  # = column 0
        rep = basis_pursuit(B, y)
        assert rep.solver_status == "converged"
        assert rep.residual <= 1e-8 * (1.0 + np.linalg.norm(y))

    def test_max_iter_status(self):
        B = gaussian_matrix(3, 8, 1)
        y = B @ random_sparse_signal(8, 2, 2)
        rep = basis_pursuit(B, y, max_iter=1)
        assert rep.solver_status == "max_iter"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            basis_pursuit(np.eye(3), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("seed", range(10))
    def test_feasibility_reverified(self, seed):
        B = gaussian_matrix(4, 10, seed)
        y = B @ random_sparse_signal(10, 2, seed + 100)
        rep = basis_pursuit(B, y)
        assert rep.solver_status == "converged"
        assert rep.residual <= 1e-8 * (1.0 + np.linalg.norm(y))
        # stored residual matches a recomputation
        assert rep.residual == pytest.approx(np.linalg.norm(B @ rep.x_hat - y), abs=1e-12)

    @pytest.mark.parametrize("lam", [0.37, 1.0, 5.5])
    def test_scaling_neutrality(self, lam):
        B = gaussian_matrix(5, 12, 7)
        y = B @ random_sparse_signal(12, 2, 8)
        base = basis_pursuit(B, y)
        scaled = basis_pursuit(lam * B, lam * y)
        assert support_set(base.x_hat) == support_set(scaled.x_hat)


def with_singular_values(s, n, seed):
    """U diag(s) V' for random orthonormal U (m x m) and V (n x m)."""
    rng = np.random.default_rng(seed)
    m = len(s)
    U, _ = np.linalg.qr(rng.normal(size=(m, m)))
    V, _ = np.linalg.qr(rng.normal(size=(n, m)))
    return (U * s) @ V.T


class TestRowRankScreen:
    """The Cholesky screen may clear B only when the SVD counts rank m."""

    @pytest.mark.parametrize("ratio", [1e-7 * (1 - 1e-3), 1e-7 * (1 + 1e-3),
                                       1e-10 * (1 - 1e-3), 1e-10 * (1 + 1e-3), 1e-3, 0.5])
    @pytest.mark.parametrize("m, n", [(3, 5), (20, 40), (70, 90)])
    def test_cleared_only_at_full_svd_rank(self, ratio, m, n):
        B = with_singular_values(np.geomspace(1.0, ratio, m), n, m + n)
        svd_rank = int(rank_of_singular_values(np.linalg.svd(B, compute_uv=False)))
        if recovery._gram_floor(B, recovery._RANK_FLOOR) > 0.0:
            assert svd_rank == m
        if ratio < 1e-7:
            assert not recovery._gram_floor(B, recovery._RANK_FLOOR) > 0.0

    def test_clears_well_conditioned_systems(self):
        for m, n in [(1, 1), (1, 4), (4, 4), (64, 128), (160, 512)]:
            assert recovery._gram_floor(gaussian_matrix(m, n, m + n), recovery._RANK_FLOOR) > 0.0

    def test_zero_rows_and_tall_matrices_are_not_cleared(self):
        B = gaussian_matrix(6, 12, 71)
        B[2] = 0.0
        assert not recovery._gram_floor(B, recovery._RANK_FLOOR) > 0.0
        assert not recovery._gram_floor(gaussian_matrix(8, 5, 72), recovery._RANK_FLOOR) > 0.0
        assert not recovery._gram_floor(np.zeros((3, 4)), recovery._RANK_FLOOR) > 0.0

    @pytest.mark.parametrize("scale", [2.0**-420, 2.0**420])
    def test_out_of_range_entries_skip_the_screen(self, scale, monkeypatch):
        # the Cholesky factorization is disabled inside the Gram floor only, and
        # only for a matrix outside the safe range: ``basis_pursuit`` screens the
        # system it scaled into range, and the solver's own normal-matrix
        # factorization may still use it
        def unreachable(*args, **kwargs):  # pragma: no cover
            raise AssertionError("screen ran outside its safe range")

        gram_floor = recovery._gram_floor

        def guarded(M, *args, **kwargs):
            with monkeypatch.context() as mp:
                if not in_safe_range(M):
                    mp.setattr(np.linalg, "cholesky", unreachable)
                return gram_floor(M, *args, **kwargs)

        monkeypatch.setattr(recovery, "_gram_floor", guarded)
        B = gaussian_matrix(4, 9, 73)
        assert not recovery._gram_floor(scale * B, recovery._RANK_FLOOR) > 0.0
        x = random_sparse_signal(9, 2, 74)
        rep = basis_pursuit(scale * B, scale * (B @ x))
        assert rep.solver_status == "converged"
        assert np.abs(rep.x_hat - basis_pursuit(B, B @ x).x_hat).max() <= 1e-9  # scaled back

    def test_cleared_system_skips_the_svd(self, monkeypatch):
        def unreachable(*args, **kwargs):  # pragma: no cover
            raise AssertionError("SVD reached")

        B = gaussian_matrix(20, 40, 75)
        y = B @ random_sparse_signal(40, 3, 76)
        monkeypatch.setattr(np.linalg, "svd", unreachable)
        assert basis_pursuit(B, y).solver_status == "converged"

    @pytest.mark.parametrize("ratio", [1e-7 * (1 + 1e-3), 1e-10 * (1 + 1e-3), 1e-3])
    def test_answers_match_the_svd_path(self, ratio, monkeypatch):
        B = with_singular_values(np.geomspace(1.0, ratio, 8), 16, 77)
        ys = [B @ random_sparse_signal(16, 2, 78), np.random.default_rng(79).normal(size=8)]
        screened = [basis_pursuit(B, y).to_json() for y in ys]
        gram_floor = recovery._gram_floor  # off for the row-rank screen only
        monkeypatch.setattr(recovery, "_gram_floor", lambda M, phi=None, safe=None: (
            0.0 if phi == recovery._RANK_FLOOR else gram_floor(M, phi, safe)))
        assert screened == [basis_pursuit(B, y).to_json() for y in ys]


def certified_solve(B, y):
    """The l1 solve of ``basis_pursuit`` with the certificate hook, and the
    same solve without it."""
    kw = {"feas_tol": 0.5 * LP_FEASIBILITY_TOL, "opt_tol": LP_OPTIMALITY_TOL}
    return (solve_standard_form(B, y, certify=partial(certify_l1, B, y), **kw),
            solve_standard_form(B, y, **kw))


def exact_corrected_margin(B, S, w, sign):
    """1 - ||B_S^c' w*||_inf in rational arithmetic, for w* = w - B_S (B_S'B_S)^-1 e
    and e = B_S' w - sign, the exact correction of w onto {B_S' w = sign}."""
    m, n = B.shape
    wq = [Fraction(float(v)) for v in w]
    col = [list(c) for c in zip(*rationals(B))]
    dot = lambda a, b: sum(p * q for p, q in zip(a, b))
    e = [dot(col[j], wq) - int(sg) for j, sg in zip(S, sign)]
    z = solve(gram(B, S), e)
    wstar = [wq[i] - sum(col[j][i] * zj for j, zj in zip(S, z)) for i in range(m)]
    return 1 - max(abs(dot(col[j], wstar)) for j in range(n) if j not in S)


class TestL1Certificate:
    """The certified exit of the l1 solve and its independent checker."""

    @pytest.mark.parametrize("seed", range(6))
    def test_certified_desk_instances_match_the_hook_free_solve(self, seed):
        B = gaussian_matrix(64, 128, 300 + seed)
        y = B @ random_sparse_signal(128, 10, 400 + seed)
        res, plain = certified_solve(B, y)
        assert res.status == "converged" and res.iterations < plain.iterations
        assert l1_dual_errors(B, y, res.x, res.y) == []
        assert np.abs(res.x - plain.x).max() <= 1e-8 * max(1.0, np.abs(plain.x).max())
        rep = basis_pursuit(B, y)
        assert rep.certified and 0.0 < rep.margin < 1.0
        assert np.array_equal(rep.x_hat, res.x) and rep.margin == res.certificate[2]
        # the margin is the one the checker computes from (x_hat, w)
        assert rep.margin == 1.0 - np.abs(np.delete(B.T @ res.y, np.flatnonzero(res.x))).max()

    def test_certified_follows_the_margin(self):
        rep = basis_pursuit(np.array([[1.0, 1.0, 0.3]]), np.array([1.0]))
        assert rep.margin is None and not rep.certified
        assert replace(rep, margin=0.5).certified
        assert not replace(replace(rep, margin=0.5), margin=None).certified
        with pytest.raises(TypeError):
            recovery.RecoveryReport(rep.x_hat, 0.0, 1.0, None, None, "converged", None, certified=True)

    def test_non_unique_lp_is_never_certified(self, monkeypatch):
        # every (a, 1 - a, 0) with a in [0, 1] is optimal: no certificate may hold
        calls = []
        monkeypatch.setattr(recovery, "certify_l1", lambda *a: calls.append(a))
        rep = basis_pursuit(np.array([[1.0, 1.0, 0.3]]), np.array([1.0]))
        assert calls == []  # m = 1: no support 0 < |S| < m to try
        assert not rep.certified and rep.margin is None
        assert rep.solver_status == "converged"
        # the output of the solver without the certified exit, bit for bit
        ref = solve_standard_form(np.array([[1.0, 1.0, 0.3]]), np.array([1.0]))
        assert rep.x_hat.tobytes() == ref.x.tobytes()
        assert [v.hex() for v in rep.x_hat] == [
            "0x1.ffffffff00470p-2", "0x1.ffffffff00470p-2", "0x1.aa34301fa2000p-32"]

    def test_non_unique_vertex_is_rejected(self):
        B = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])  # columns 0 and 2 are equal
        x = np.array([1.0, 0.0, 0.0])
        problems = l1_dual_errors(B, B @ x, x, np.array([1.0, 0.0]))
        assert len(problems) == 1 and problems[0].startswith("margin")

    def test_accepts_a_valid_certificate(self):
        B = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        x = np.array([1.0, 0.0, 0.0])
        assert l1_dual_errors(B, B @ x, x, np.array([1.0, 0.0])) == []
        assert l1_dual_errors(B, B @ (2 * x), 2 * x, np.array([1.0, 0.0])) == []
        D, full = np.diag([2.0, 1.0]), np.array([1.0, -1.0])  # S is every column
        assert l1_dual_errors(D, D @ full, full, np.array([0.5, -1.0])) == []

    def test_rejects_perturbed_duals(self):
        B = gaussian_matrix(20, 40, 81)
        y = B @ random_sparse_signal(40, 3, 82)
        res, _ = certified_solve(B, y)
        assert l1_dual_errors(B, y, res.x, res.y) == []
        assert l1_dual_errors(B, y, res.x, -res.y)
        assert l1_dual_errors(B, y, res.x, 3.0 * res.y)
        off = np.setdiff1d(np.arange(40), np.flatnonzero(res.x))
        j = off[np.argmax(np.abs(B[:, off].T @ res.y))]
        push = B[:, j] / (B[:, j] @ B[:, j]) * (np.sign(B[:, j] @ res.y) - B[:, j] @ res.y)
        assert l1_dual_errors(B, y, res.x, res.y + 1.01 * push)

    def test_equality_error_counts_against_the_margin(self):
        # w = (1 - 1e-6, 0) leaves a raw margin of 1e-6, but the exact w* = (1, 0)
        # has margin 0: the error in B_S'w = sign must void the certificate
        B = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        x = np.array([1.0, 0.0, 0.0])
        w = np.array([1.0 - 1e-6, 0.0])
        assert 1.0 - np.abs(B[:, 1:].T @ w).max() > 0.0
        assert l1_dual_errors(B, B @ x, x, w)

    def test_rejects_wrong_x_hat(self):
        B = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        x = np.array([1.0, 0.0, 0.0])
        w = np.array([1.0, 0.0])
        assert l1_dual_errors(B, B @ x + 1e-3, x, w)[0].startswith("residual")
        assert l1_dual_errors(B, B @ x, -x, w)  # the sign of x_hat is wrong for w
        with pytest.raises(ValueError):
            l1_dual_errors(B, B @ x, x, np.ones(3))

    def test_dependent_support_has_no_rank_certificate(self):
        B = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])  # columns 0 and 1 are parallel
        x = np.array([1.0, 0.5, 0.0])
        problems = l1_dual_errors(B, B @ x, x, np.array([0.5, 0.0]))
        assert problems and "column rank" in problems[-1]

    def test_cutoff(self):
        # margin and bound both scale with the off-support column t e_1; w = (1 + 1e-3, 0)
        # misses B_S'w = 1, so its bound is far from zero
        def system(t):
            return np.array([[1.0, 0.0, t], [0.0, 1.0, 0.0]])

        x, w = np.array([1.0, 0.0, 0.0]), np.array([1.0 + 1e-3, 0.0])
        lo, hi = 0.5, 1.0
        assert not l1_dual_errors(system(lo), system(lo) @ x, x, w)
        assert l1_dual_errors(system(hi), system(hi) @ x, x, w)
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if l1_dual_errors(system(mid), system(mid) @ x, x, w):
                hi = mid
            else:
                lo = mid
        S, sign = np.array([0]), np.array([1.0])
        margin_lo, bound_lo = recovery._margin_and_bound(system(lo), S, w, sign, system(lo).T @ w)
        margin_hi, bound_hi = recovery._margin_and_bound(system(hi), S, w, sign, system(hi).T @ w)
        assert margin_lo > bound_lo and margin_hi <= bound_hi
        assert bound_hi > 1e-3 and margin_hi > 1e-3  # the raw margin alone would pass
        assert l1_dual_errors(system(hi), system(hi) @ x, x, w)[0].startswith("margin")
        assert exact_corrected_margin(system(lo), [0], w, sign) > 0

    @pytest.mark.parametrize("seed", range(12))
    def test_accepted_near_the_cutoff_means_exactly_certified(self, seed):
        # dual vectors missing B_S'w = sign by 1e-12 .. 1e-3, with off-support columns
        # scaled so the raw margin sits near the bound: every accepted w must
        # still have a positive margin after the exact correction
        rng = np.random.default_rng(500 + seed)
        B = rng.normal(size=(3, 6))
        S, sign = [0, 1], rng.choice([-1.0, 1.0], size=2)
        w = np.linalg.lstsq(B[:, S].T, sign, rcond=None)[0]
        w = w + 10.0 ** rng.uniform(-12, -3) * rng.normal(size=3)
        x = np.zeros(6)
        x[S] = sign * rng.uniform(0.5, 2.0, size=2)
        raw = np.abs(B[:, 2:].T @ w).max()
        verdicts = []
        for target in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0):  # raw margin / bound
            C = B.copy()
            for _ in range(4):  # the bound moves with the scale; iterate to the target
                bound = recovery._margin_and_bound(C, np.array(S), w, sign, C.T @ w)[1]
                C[:, 2:] = B[:, 2:] * ((1.0 - target * bound) / raw)
            verdicts.append(not l1_dual_errors(C, C @ x, x, w))
            if verdicts[-1]:
                assert exact_corrected_margin(C, S, w, sign) > 0
        assert verdicts == [False, False, False, True, True, True]

    def test_row_reduced_system_is_certified(self):
        B = gaussian_matrix(12, 24, 83)
        B[11] = B[0] - 2.0 * B[1]  # rank 11: the solve runs on the reduced rows
        x = random_sparse_signal(24, 2, 84)
        assert not recovery._gram_floor(B, recovery._RANK_FLOOR) > 0.0
        rep = basis_pursuit(B, B @ x)
        assert rep.certified and rep.solver_status == "converged"
        assert np.abs(rep.x_hat - x).max() <= 1e-12 * np.abs(x).max()

    def test_failed_certificates_leave_the_solve_unchanged(self, monkeypatch):
        B = gaussian_matrix(20, 40, 85)
        y = B @ random_sparse_signal(40, 3, 86)
        seen = []

        def never(S, y_dual):
            seen.append((S.copy(), y_dual.copy()))
            return None

        kw = {"feas_tol": 0.5 * LP_FEASIBILITY_TOL, "opt_tol": LP_OPTIMALITY_TOL}
        ref = solve_standard_form(B, y, **kw)
        res = solve_standard_form(B, y, certify=never, **kw)
        assert seen and all(0 < S.size < 20 for S, _ in seen)
        assert res.x.tobytes() == ref.x.tobytes() and res.y.tobytes() == ref.y.tobytes()
        assert (res.status, res.iterations) == (ref.status, ref.iterations)
        monkeypatch.setattr(recovery, "certify_l1", lambda *a: None)
        rep = basis_pursuit(B, y)
        assert not rep.certified and rep.margin is None
        assert rep.x_hat.tobytes() == ref.x.tobytes()


class TestMaxIter:
    @pytest.mark.parametrize("value", [2.5, 200.0, True, "200"])
    def test_rejects_non_int_max_iter(self, value):
        with pytest.raises(ValueError, match="must be an int"):
            basis_pursuit(np.eye(2), np.ones(2), max_iter=value)

    @pytest.mark.parametrize("value", [0, -3])
    def test_rejects_non_positive_max_iter(self, value):
        with pytest.raises(ValueError, match="positive"):
            basis_pursuit(np.eye(2), np.ones(2), max_iter=value)

    @pytest.mark.parametrize("method", ["l1", "l0"])
    @pytest.mark.parametrize("value", [0, True])
    def test_pipeline_checks_max_iter_for_both_methods(self, method, value):
        A = gaussian_matrix(6, 12, 5)
        x = random_sparse_signal(12, 2, 6)
        with pytest.raises(ValueError, match="max_iter"):
            recover_via_linearization(A, sign_map(6), "pre", x, method, max_iter=value)


class TestL0Oracle:
    def test_zero_measurements(self):
        rep = l0_oracle(gaussian_matrix(3, 6, 0), np.zeros(3), 2)
        assert np.array_equal(rep.x_hat, np.zeros(6))
        assert rep.solver_status == "converged"

    def test_single_column_match(self):
        B = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        rep = l0_oracle(B, np.array([1.0, 0.0]), 2)
        assert np.abs(rep.x_hat - np.array([1.0, 0.0, 0.0])).max() < 1e-10
        assert np.count_nonzero(rep.x_hat) == 1

    def test_planted_two_sparse_with_spark_guarantee(self):
        A = gaussian_matrix(6, 12, 33)
        assert spark(A).spark > 4  # uniqueness of 2-sparse solutions
        x = random_sparse_signal(12, 2, 34)
        rep = l0_oracle(A, A @ x, 2)
        assert np.abs(rep.x_hat - x).max() < 1e-9

    def test_not_found(self):
        B = np.array([[1.0], [0.0]])
        rep = l0_oracle(B, np.array([0.0, 1.0]), 1)
        assert rep.solver_status == "infeasible"
        assert np.array_equal(rep.x_hat, np.zeros(1))

    def test_lexicographic_tie_break(self):
        # identical columns: the first fitting support wins
        B = np.array([[1.0, 1.0], [1.0, 1.0]])
        rep = l0_oracle(B, np.array([2.0, 2.0]), 2)
        assert support_set(rep.x_hat) == {0}

    def test_guard(self):
        with pytest.raises(GuardError):
            l0_oracle(np.ones((2, 60)), np.ones(2), 30)

    def test_guard_counts_every_level(self):
        # C(22, 21) = 22, but a y off the range of a rank-2 B would have
        # every support of size <= 21 tried, 4,194,302 in all
        B = gaussian_matrix(3, 22, 80)
        B[2] = B[0] - B[1]
        with pytest.raises(GuardError) as exc:
            l0_oracle(B, np.array([0.0, 0.0, 1.0]), 21)
        assert str(exc.value) == ("l0 enumeration guard exceeded: C(22,1) + ... + C(22,21)=4194302"
                                  " > max_supports=200000")

    @pytest.mark.parametrize("seed", range(8))
    def test_l1_never_beats_l0_l1_norm_by_more_than_tol(self, seed):
        # the l0 solution is l1-feasible, so ||bp||_1 <= ||l0||_1 + tol
        B = gaussian_matrix(4, 9, seed)
        x = random_sparse_signal(9, 2, seed + 40)
        y = B @ x
        bp = basis_pursuit(B, y)
        oracle = l0_oracle(B, y, 2)
        assert bp.l1_norm <= oracle.l1_norm + 1e-8 * (1.0 + oracle.l1_norm)


def reference_l0(B, y, k_max):
    """The support-by-support search that ``l0_oracle`` must reproduce bit
    for bit: every support in lexicographic order through ``lstsq``."""
    B, yv = as_system(B, y)
    n = B.shape[1]
    thr = 1e-8 * (1.0 + float(np.linalg.norm(yv)))
    if float(np.linalg.norm(yv)) <= thr:
        return recovery._report(np.zeros(n), B, yv, "converged")
    for k in range(1, k_max + 1):
        for sup in combinations(range(n), k):
            cols = B[:, sup]
            coef, *_ = np.linalg.lstsq(cols, yv, rcond=None)
            if float(np.linalg.norm(cols @ coef - yv)) <= thr:
                u = np.zeros(n)
                u[list(sup)] = coef
                return recovery._report(u, B, yv, "converged")
    return recovery._report(np.zeros(n), B, yv, "infeasible")


def assert_l0_matches_reference(B, y, k_max):
    rep = l0_oracle(B, y, k_max)
    assert rep.to_json() == reference_l0(B, y, k_max).to_json()
    return rep


def with_residual(B, support, coef, factor):
    """B[:, support] @ coef plus a component orthogonal to those columns of
    norm factor * thr, so the support's fit misses or meets thr by factor."""
    y0 = B[:, support] @ coef
    Q, _ = np.linalg.qr(B[:, support], mode="complete")
    e = Q[:, len(support)]
    return y0 + factor * 1e-8 * (1.0 + np.linalg.norm(y0)) * e


class TestL0Screen:
    """The batched QR screen may skip a support only when lstsq would reject it."""

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_gaussians(self, seed):
        rng = np.random.default_rng(700 + seed)
        m = int(rng.integers(3, 9))
        n = int(rng.integers(m, 14))
        k = int(rng.integers(1, min(3, m - 1) + 1))
        B = gaussian_matrix(m, n, 800 + seed)
        support = np.sort(rng.choice(n, size=k, replace=False))
        coef = rng.normal(size=k)
        assert_l0_matches_reference(B, B[:, support] @ coef, k)
        assert_l0_matches_reference(B, rng.normal(size=m), min(k + 1, m - 1))
        for factor in (1.0 - 1e-3, 1.0 + 1e-3, 1e3):
            assert_l0_matches_reference(B, with_residual(B, support, coef, factor), k)

    def test_duplicate_and_zero_columns(self):
        B = gaussian_matrix(5, 9, 61)
        B[:, 7] = B[:, 3]
        B[:, 0] = 0.0
        for y in (B[:, 7], 2.0 * B[:, 3] + B[:, 5], B[:, 1] - B[:, 8]):
            assert_l0_matches_reference(B, y, 3)
        assert_l0_matches_reference(np.zeros((4, 6)), np.ones(4), 3)

    def test_two_fitting_supports_break_ties_lexicographically(self):
        B = gaussian_matrix(5, 9, 62)
        B[:, 7] = B[:, 3]
        rep = assert_l0_matches_reference(B, 2.0 * B[:, 3] + B[:, 5], 2)
        assert support_set(rep.x_hat) == {3, 5}

    @pytest.mark.parametrize("ratio", [1.33e-15 * (1 - 1e-3), 1.33e-15 * (1 + 1e-3), 1.33e-14,
                                       1e-9, 1e-6 * (1 - 1e-3), 1e-6 * (1 + 1e-3), 1e-3])
    def test_supports_near_the_lstsq_cutoff(self, ratio):
        # columns 1 and 4 have singular values 1 and ratio; lstsq's cutoff is
        # eps * max(6, 2) * s_max = 1.33e-15
        rng = np.random.default_rng(63)
        B = gaussian_matrix(6, 8, 64)
        U, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        V, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        B[:, [1, 4]] = U @ np.diag([1.0, ratio]) @ V.T
        for y in (U[:, 1], U[:, 0] + ratio * U[:, 1], U[:, 0] + 1e-3 * U[:, 1], rng.normal(size=6)):
            assert_l0_matches_reference(B, y, 2)
        assert recovery._may_fit(np.column_stack([B, U[:, 1]]), np.array([[1, 4]]), 1e-8,
                                  64.0 * 6 * 4 * 2.0**-53)[0]

    def test_k_max_beyond_rows(self):
        B = gaussian_matrix(3, 7, 65)
        assert_l0_matches_reference(B, np.array([1.0, -2.0, 0.5]), 5)
        B[2] = B[0] + B[1]  # rank 2: y off the column space fits at no level
        rep = assert_l0_matches_reference(B, np.array([1.0, -2.0, 0.5]), 5)
        assert rep.solver_status == "infeasible"

    def test_infeasible(self):
        B = gaussian_matrix(4, 8, 66)
        B[3] = B[0] - 2.0 * B[2]
        rep = assert_l0_matches_reference(B, np.array([0.0, 0.0, 0.0, 1.0]), 3)
        assert rep.solver_status == "infeasible"

    def test_out_of_range_entries_skip_the_screen(self, monkeypatch):
        def unreachable(*args, **kwargs):  # pragma: no cover
            raise AssertionError("screen ran outside its safe range")

        monkeypatch.setattr(recovery, "_may_fit", unreachable)
        B = gaussian_matrix(5, 8, 67)
        for scale in (2.0**-420, 2.0**420):
            assert_l0_matches_reference(scale * B, scale * (B[:, 2] - B[:, 6]), 2)

    def test_level_beyond_one_chunk(self, monkeypatch):
        # C(20, 4) = 4,845 supports: level 4 is screened in two chunks, and
        # the fitting support is the last one
        batches = []
        qr = np.linalg.qr

        def recording(a, mode="reduced"):
            batches.append(a.shape)
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", recording)
        B = gaussian_matrix(8, 20, 68)
        rep = assert_l0_matches_reference(B, B[:, 16:] @ np.array([1.0, -0.5, 2.0, 0.7]), 4)
        assert support_set(rep.x_hat) == {16, 17, 18, 19}
        assert [b for b in batches if b[2] == 5] == [(4096, 8, 5), (749, 8, 5)]

    def test_guard_level_is_screened_in_chunks(self, monkeypatch):
        # C(19, 8) = 75,582 supports at the deepest level: no batch holds
        # more than one chunk, and a y that no 8 columns fit never reaches lstsq
        batches = []
        qr = np.linalg.qr

        def recording(a, mode="reduced"):
            batches.append(a.shape[0])
            return qr(a, mode=mode)

        def unreachable(*args, **kwargs):  # pragma: no cover
            raise AssertionError("lstsq reached")

        monkeypatch.setattr(np.linalg, "qr", recording)
        monkeypatch.setattr(np.linalg, "lstsq", unreachable)
        B = gaussian_matrix(10, 19, 69)
        rep = l0_oracle(B, np.random.default_rng(70).normal(size=10), 8)
        assert rep.solver_status == "infeasible"
        assert sum(math.comb(19, k) for k in range(1, 9)) <= recovery.MAX_L0_SUPPORTS
        assert max(batches) == matrix_core._CHUNK
        assert sum(batches) == sum(math.comb(19, k) for k in range(1, 9))


    def test_tall_matrix_is_screened_in_bounded_gathers(self, monkeypatch):
        # C(14, 4) = 1,001 supports of 2,000 x 5 floats at level 4: gathered
        # in pieces of _GATHER_FLOATS // 10,000 = 209 supports
        batches = []
        qr = np.linalg.qr

        def recording(a, mode="reduced"):
            batches.append(a.shape)
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", recording)
        B = gaussian_matrix(2000, 14, 97)
        y = B[:, [9, 11, 12, 13]] @ np.array([1.0, -2.0, 0.5, 3.0])
        rep = assert_l0_matches_reference(B, y, 4)
        assert support_set(rep.x_hat) == {9, 11, 12, 13}
        assert [b[0] for b in batches if b[2] == 5] == [209] * 4 + [165]


class TestOracleEquivalence:
    def test_same_support_on_well_conditioned_instances(self):
        # 50 instances with brute-force delta_2k < sqrt(2)-1 for the matrix
        # handed to both decoders; l1 must then match the l0 oracle
        instances = []
        seed = 0
        while len(instances) < 30 and seed < 800:
            A = partial_orthonormal(10, 12, seed)
            rep = rip_constants(A, 2)
            if rep.delta < SQRT2_MINUS_1:
                instances.append((A, 1))
            seed += 1
        while len(instances) < 50 and seed < 1600:
            rng = np.random.default_rng(seed)
            Q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
            instances.append((Q, 2))  # orthonormal: delta = 0 at every order
            seed += 1
        assert len(instances) == 50
        for idx, (A, k) in enumerate(instances):
            assert rip_constants(A, min(2 * k, A.shape[1])).delta < SQRT2_MINUS_1
            x = random_sparse_signal(A.shape[1], k, 5000 + idx)
            y = A @ x
            bp = basis_pursuit(A, y)
            oracle = l0_oracle(A, y, k)
            assert bp.solver_status == "converged"
            assert support_set(bp.x_hat) == support_set(oracle.x_hat) == support_set(x)


class TestRecoverViaLinearization:
    def test_abs_pre_orthonormal_square(self):
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        x = random_sparse_signal(6, 2, 3)
        for method in ("l1", "l0"):
            out = recover_via_linearization(Q, abs_map(6), "pre", x, method)
            assert out.report.rel_error <= 1e-8
            assert out.report.support_exact
            assert out.certificate.type == 3

    def test_abs_pre_qualifying_matrix_l1_exact(self):
        # abs certificates are sign-flip diagonals, which leave every column
        # Gram unchanged, so the effective matrix inherits the measured
        # delta_2 < sqrt(2)-1 and l1 recovery of 1-sparse signals is certified
        A, rep, seed = scan_qualifying_matrix(7, 8, order=2)
        assert rep.delta < SQRT2_MINUS_1
        x = random_sparse_signal(8, 1, 900 + seed)
        out = recover_via_linearization(A, abs_map(7), "pre", x, "l1")
        assert out.report.rel_error <= 1e-6
        assert out.report.support_exact
        oracle = recover_via_linearization(A, abs_map(7), "pre", x, "l0")
        assert support_set(out.report.x_hat) == support_set(oracle.report.x_hat)
        assert out.delta_2k is not None and out.delta_2k < SQRT2_MINUS_1

    def test_sign_pre_gaussian_l1_agrees_with_l0(self):
        A = gaussian_matrix(4, 8, 12)
        x = random_sparse_signal(8, 1, 13)
        l1 = recover_via_linearization(A, sign_map(4), "pre", x, "l1")
        l0 = recover_via_linearization(A, sign_map(4), "pre", x, "l0")
        assert l0.report.rel_error <= 1e-8
        assert support_set(l1.report.x_hat) == support_set(l0.report.x_hat)

    def test_identity_map_is_plain_linear_sensing(self):
        A = gaussian_matrix(6, 12, 21)
        x = random_sparse_signal(12, 2, 22)
        out = recover_via_linearization(A, identity_map(6), "pre", x, "l0")
        assert out.report.rel_error <= 1e-9
        assert np.array_equal(out.certificate.Y, np.eye(6))

    def test_nonzero_random_pre_uses_invertible_certificate(self):
        A = gaussian_matrix(6, 12, 31)
        x = random_sparse_signal(12, 2, 32)
        out = recover_via_linearization(A, nonzero_random_map(6, 5), "pre", x, "l0")
        assert out.certificate.type == 2
        assert out.report.rel_error <= 1e-8

    def test_square_post_composition(self):
        A = gaussian_matrix(8, 12, 41)
        x = random_sparse_signal(12, 2, 42)
        out = recover_via_linearization(A, square_map(12), "post", x, "l0")
        assert out.certificate.type == 3
        assert out.report.rel_error <= 1e-8
        # free diagonal entries are balanced against the constrained ones
        diag = np.diag(out.certificate.Y)
        on = x != 0
        expected_free = min(1.0, np.abs(diag[on]).min())
        assert np.allclose(diag[~on], expected_free)

    @pytest.mark.parametrize("composition, dim", [("pre", 8), ("post", 12)])
    def test_one_map_evaluation_per_trial(self, monkeypatch, composition, dim):
        # count the square map's evaluations through its catalog row
        row, calls = nonlinear_maps._ROWS["square"], []
        monkeypatch.setitem(nonlinear_maps._ROWS, "square",
                            row._replace(f=lambda F, z: calls.append(1) or row.f(F, z)))
        A = gaussian_matrix(8, 12, 41)
        x = random_sparse_signal(12, 2, 42)
        out = recover_via_linearization(A, square_map(dim), composition, x, "l0")
        assert out.report.rel_error <= 1e-8
        assert len(calls) == 1

    def test_sine_post_composition(self):
        A = gaussian_matrix(8, 12, 51)
        x = random_sparse_signal(12, 2, 52)
        x = x * (3.0 / max(3.0, np.abs(x).max()))  # keep inside the sine domain
        out = recover_via_linearization(A, sine_map(12), "post", x, "l0")
        assert out.certificate.type == 3
        assert out.report.rel_error <= 1e-8

    def test_two_signals_same_sign_measurements_both_recovered(self):
        # sign measurements collide for parallel signals; each certificate
        # still pins its own linear system and its own exact solution
        A = gaussian_matrix(4, 8, 61)
        x1 = np.zeros(8)
        x1[2] = 1.5
        x2 = 2.0 * x1
        assert np.array_equal(np.sign(A @ x1), np.sign(A @ x2))
        out1 = recover_via_linearization(A, sign_map(4), "pre", x1, "l0")
        out2 = recover_via_linearization(A, sign_map(4), "pre", x2, "l0")
        assert np.abs(out1.report.x_hat - x1).max() < 1e-9
        assert np.abs(out2.report.x_hat - x2).max() < 1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_exactness_guarantee_l0(self, seed):
        # whenever the effective matrix keeps RIP of order 2k, the l0 oracle
        # returns exactly the planted signal
        A = gaussian_matrix(6, 12, 700 + seed)
        x = random_sparse_signal(12, 2, 800 + seed)
        maps_pre = [abs_map(6), sign_map(6)]
        maps_post = [square_map(12)]
        for F, comp in [(m, "pre") for m in maps_pre] + [(m, "post") for m in maps_post]:
            out = recover_via_linearization(A, F, comp, x, "l0")
            B = (out.certificate.Y @ A) if comp == "pre" else (A @ out.certificate.Y)
            rip_constants(B, 4)  # alpha > 0 or RipOrderError
            assert out.report.rel_error <= 1e-8
            assert out.report.support_exact

    def test_rip_failure_of_sensing_matrix_raises(self):
        A = np.array([[1.0, 1.0, 0.0, 0.0], [2.0, 2.0, 1.0, 1.0]])  # duplicated columns
        x = np.zeros(4)
        x[0] = 1.0
        with pytest.raises(RipOrderError):
            recover_via_linearization(A, abs_map(2), "pre", x, "l0")

    def test_disqualified_map_rejected(self):
        A = gaussian_matrix(4, 8, 71)
        x = random_sparse_signal(8, 1, 72)
        with pytest.raises(RequirementError):
            recover_via_linearization(A, quantize_floor(4, 1.0), "pre", x, "l1")
        with pytest.raises(RequirementError):
            recover_via_linearization(A, nonzero_random_map(8, 1), "post", x, "l1")

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            recover_via_linearization(gaussian_matrix(4, 8, 0), abs_map(4), "pre", np.zeros(8), "l1")

    @pytest.mark.parametrize("composition", ["pre", "post"])
    def test_subnormal_signal_entry_rejected_before_rip_gate(self, composition, monkeypatch):
        # sign's nominal type 3 fails at a subnormal coordinate, and the entry
        # would count as support; the pipeline rejects it before any work
        def rip_gate_reached(*args):
            raise AssertionError("the RIP gate ran")

        monkeypatch.setattr("nlcs.recovery.rip_constants", rip_gate_reached)
        monkeypatch.setattr("nlcs.recovery._require_rip_order", rip_gate_reached)
        x = np.zeros(12)
        x[3], x[7] = 1.5, 1e-310
        F = sign_map(10 if composition == "pre" else 12)
        with pytest.raises(ValueError, match=r"x_true\[7\] = 1e-310 is subnormal") as info:
            recover_via_linearization(gaussian_matrix(10, 12, 5), F, composition, x, "l1")
        assert type(info.value) is ValueError

    def test_bad_arguments(self):
        A = gaussian_matrix(4, 8, 0)
        x = random_sparse_signal(8, 1, 1)
        with pytest.raises(ValueError):
            recover_via_linearization(A, abs_map(4), "middle", x, "l1")
        with pytest.raises(ValueError):
            recover_via_linearization(A, abs_map(4), "pre", x, "l2")

    def test_guard_skips_rip_and_scale_is_one(self):
        A = gaussian_matrix(20, 64, 81)
        x = random_sparse_signal(64, 8, 82)  # C(64, 16) is far beyond the guard
        out = recover_via_linearization(A, abs_map(20), "pre", x, "l1")
        assert out.scale == 1.0
        assert out.delta_2k is None
        assert math.comb(64, 16) > 200_000

    def test_effective_matrix_outside_the_float_range_keeps_scale_one(self):
        # z = A x near 1e200 puts B = Y A near 1e-200, whose RIP constants are
        # below float64's normal range; the decoder then scales B itself
        A = gaussian_matrix(6, 12, 0)
        x = np.zeros(12)
        x[[2, 7]] = [1e200, -3e200]
        out = recover_via_linearization(A, sign_map(6), "pre", x, "l0")
        with pytest.raises(RipRangeError, match=r"scaled by 2\^"):
            rip_constants(out.certificate.Y @ A, 4)
        assert (out.scale, out.delta_2k) == (1.0, None)
        assert out.report.support_exact
        assert np.allclose(out.report.x_hat, x, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("c", [1e154, 1e155, 1e160, 1e200])
    def test_signals_beyond_the_safe_range(self, c):
        # B = Y A is near 1/c: l1 solves the system scaled into range, and
        # rel_error scales both norms, which would overflow near 1.3e154
        A = gaussian_matrix(6, 12, 0)
        x = np.zeros(12)
        x[[2, 7]] = [c, -3.0 * c]
        for method in ("l1", "l0"):
            rep = recover_via_linearization(A, sign_map(6), "pre", x, method).report
            assert rep.solver_status == "converged" and rep.support_exact, method
            assert rep.rel_error == pytest.approx(
                math.hypot(*(rep.x_hat - x)) / math.hypot(*x), rel=1e-12, abs=0.0)
            assert rep.rel_error <= 1e-14

    def test_full_density_square_invertible(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(6, 6)) + 6 * np.eye(6)  # comfortably invertible
        x = random_sparse_signal(6, 6, 91)
        out = recover_via_linearization(A, abs_map(6), "pre", x, "l1")
        assert out.report.rel_error <= 1e-6

    def test_report_serialization_keys(self):
        import json

        A = gaussian_matrix(4, 8, 95)
        x = random_sparse_signal(8, 1, 96)
        out = recover_via_linearization(A, abs_map(4), "pre", x, "l0")
        payload = json.loads(out.report.to_json())
        assert set(payload) == {
            "x_hat",
            "residual",
            "l1_norm",
            "support_exact",
            "rel_error",
            "solver_status",
            "certified",
            "margin",
        }
        assert payload["certified"] is False and payload["margin"] is None


def permutation_map(dim, rng):
    """F(z)_i = c_i z_perm(i): zero patterns move, so type-4 certificates occur."""
    perm = rng.permutation(dim)
    scale = rng.uniform(0.5, 2.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
    return custom_map([lambda v, j=int(perm[i]), c=float(scale[i]): c * v[j] for i in range(dim)])


class TestEffectiveMatrix:
    """Without a replaced column Y is a scaled permutation, and its product
    gathers and scales A; the result equals the dense product bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_scaling_equals_the_dense_product(self, seed):
        rng = np.random.default_rng(90 + seed)
        A = gaussian_matrix(12, 20, 91 + seed)
        A[rng.random(A.shape) < 0.2] = 0.0  # zero entries keep the dense product's +0.0
        for composition, dim in (("pre", 12), ("post", 20)):
            z = rng.normal(size=dim)
            z[rng.random(dim) < 0.2] = 0.0
            # sign and abs certificates are +-1/|z_i|, here near 1e300 and 1e-300
            wide = z * 10.0 ** rng.choice([-300, -150, 0, 150, 300], size=dim)
            certs = [linearize(sign_map(dim), wide, 3), linearize(abs_map(dim), wide, 3),
                     linearize(square_map(dim), z, 3),
                     linearize(permutation_map(dim, rng), wide, 4),
                     linearize(nonzero_random_map(dim, 5), wide, 2),
                     linearize(nonzero_random_map(dim, 5), np.zeros(dim), 2)]  # the identity
            assert [c.q is None for c in certs] == [True, True, True, True, False, True]
            for cert in certs:
                dense = cert.Y @ A if composition == "pre" else A @ cert.Y
                B = recovery._effective_matrix(A, cert, composition)
                assert B.flags.c_contiguous
                assert np.array_equal(B, dense)
                assert np.array_equal(B.view(np.int64), dense.view(np.int64))

    @pytest.mark.parametrize("composition", ["pre", "post"])
    def test_nominal_type3_maps_never_build_the_dense_y(self, monkeypatch, composition):
        def dense(self):
            raise AssertionError("the dense Y was built")

        monkeypatch.setattr(LinearizationCertificate, "Y", property(dense))
        A = gaussian_matrix(6, 12, 5)
        x = 0.1 * random_sparse_signal(12, 2, 6)  # keeps A x inside the sine domain
        kinds = [k for k, row in nonlinear_maps._KINDS.items() if row.nominal_type == 3]
        assert len(kinds) == 6
        for kind in kinds:
            F = map_from_spec({"kind": kind, "step": 0.5}, 6 if composition == "pre" else 12)
            out = recover_via_linearization(A, F, composition, x, "l1")
            assert out.certificate.type == 3


def test_support_set_threshold():
    v = np.array([1.0, 1e-9, -2.0, 0.0])
    assert support_set(v) == {0, 2}
