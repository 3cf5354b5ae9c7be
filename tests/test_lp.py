from itertools import combinations

import numpy as np
import pytest

from nlcs import lp, recovery
from nlcs.lp import solve_standard_form
from nlcs.matrix_core import gaussian_matrix


def min_l1_by_basic_solutions(B, y, tol=1e-9):
    """Oracle: minimize ||u||_1 s.t. Bu = y by enumerating basic solutions.

    A bounded feasible LP attains its optimum at a vertex, i.e. at a
    solution supported on at most m linearly independent columns.
    """
    m, n = B.shape
    best_val, best_u = np.inf, None
    for r in range(0, min(m, n) + 1):
        for sub in combinations(range(n), r):
            cols = B[:, sub] if sub else np.zeros((m, 0))
            if sub:
                if np.linalg.matrix_rank(cols) < len(sub):
                    continue
                coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
                resid = np.linalg.norm(cols @ coef - y)
            else:
                coef = np.zeros(0)
                resid = np.linalg.norm(y)
            if resid <= tol * (1.0 + np.linalg.norm(y)):
                val = np.abs(coef).sum()
                if val < best_val - 1e-12:
                    best_val = val
                    best_u = np.zeros(n)
                    if sub:
                        best_u[list(sub)] = coef
    return best_val, best_u


def l1_dual_certificate_ok(B, y, res):
    """res.y certifies the l1 optimality of res.x: ||B' res.y||_inf <= 1, and
    the dual objective res.y'y matches ||res.x||_1."""
    l1 = np.abs(res.x).sum()
    return (
        np.abs(B.T @ res.y).max() <= 1.0 + 1e-9
        and abs(l1 - res.y @ y) <= 1e-6 * (1.0 + l1)
    )


class TestSolveStandardForm:
    def test_unique_vertex(self):
        # min |a| + |b| s.t. a + 2b = 2 -> (0, 1)
        res = solve_standard_form(np.array([[1.0, 2.0]]), np.array([2.0]))
        assert res.status == "converged"
        assert np.allclose(res.x, [0.0, 1.0], atol=1e-7)

    def test_degenerate_objective_value(self):
        # min |a| + |b| s.t. a + b = 1: every point of the segment a, b >= 0 is optimal, value 1
        res = solve_standard_form(np.array([[1.0, 1.0]]), np.array([1.0]))
        assert res.status == "converged"
        assert np.abs(res.x).sum() == pytest.approx(1.0, abs=1e-7)

    def test_zero_measurements_never_reach_solver(self, monkeypatch):
        # the solver has no branch for y = 0: basis_pursuit must answer it alone
        def unreachable(*args, **kwargs):
            raise AssertionError("solver called for y = 0")

        monkeypatch.setattr(recovery, "solve_standard_form", unreachable)
        rep = recovery.basis_pursuit(np.array([[1.0, 2.0, 0.5]]), np.zeros(1))
        assert rep.solver_status == "converged"
        assert np.array_equal(rep.x_hat, np.zeros(3))

    def test_max_iter_status(self):
        res = solve_standard_form(np.array([[1.0, 1.0, 0.3]]), np.array([1.0]), max_iter=1)
        assert res.status == "max_iter"

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_max_iter_factors_once_per_evaluated_iterate(self, max_iter, monkeypatch):
        # each step to an iterate that is then evaluated takes one factorization;
        # the starting point takes none, and no step follows the last evaluation
        rng = np.random.default_rng(0)
        B = rng.normal(size=(3, 8))
        y = B @ np.where(np.arange(8) < 2, rng.normal(size=8), 0.0)
        calls = spy_factorizations(monkeypatch)
        res = solve_standard_form(B, y, max_iter=max_iter)
        assert res.status == "max_iter" and res.iterations < max_iter
        assert len(calls) == res.steps == max_iter - 1

    def test_steps_of_a_converged_solve(self, monkeypatch):
        rng = np.random.default_rng(4)
        B = rng.normal(size=(4, 10))
        calls = spy_factorizations(monkeypatch)
        res = solve_standard_form(B, B @ np.where(np.arange(10) < 2, 1.0, 0.0))
        assert res.status == "converged" and res.certificate is None
        assert res.steps == res.iterations == len(calls) > 0

    @pytest.mark.parametrize("m, n, max_iter", [(4, 10, 200), (3, 8, 3), (64, 128, 200)])
    def test_each_step_applies_its_factor_twice(self, m, n, max_iter, monkeypatch):
        # one solve for the predictor and one for the corrector, unrefined
        B = gaussian_matrix(m, n, m + n)
        y = B @ np.where(np.arange(n) < max(m // 6, 1), 1.0, 0.0)
        applies = spy_applies(monkeypatch)
        res = solve_standard_form(B, y, max_iter=max_iter)
        assert res.steps > 0 and len(applies) == 2 * res.steps

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        B = rng.normal(size=(4, 10))
        y = B @ rng.normal(size=10)
        r1 = solve_standard_form(B, y)
        r2 = solve_standard_form(B, y)
        assert r1.x.tobytes() == r2.x.tobytes()
        assert r1.y.tobytes() == r2.y.tobytes()
        assert r1.iterations == r2.iterations

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_basic_solution_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m, n = 3, 8
        B = rng.normal(size=(m, n))
        x0 = np.zeros(n)
        x0[rng.choice(n, 2, replace=False)] = rng.normal(size=2)
        y = B @ x0
        res = solve_standard_form(B, y)
        assert res.status == "converged"
        best_val, _ = min_l1_by_basic_solutions(B, y)
        assert np.abs(res.x).sum() == pytest.approx(best_val, abs=1e-6)
        assert np.linalg.norm(B @ res.x - y) <= 1e-7 * (1.0 + np.linalg.norm(y))
        assert l1_dual_certificate_ok(B, y, res)

    @pytest.mark.parametrize("seed", range(6))
    def test_dual_certificate_at_desk_scale(self, seed):
        rng = np.random.default_rng(1000 + seed)
        B = rng.normal(size=(64, 128)) / 8.0
        x0 = np.zeros(128)
        x0[rng.choice(128, 10, replace=False)] = rng.normal(size=10)
        y = B @ x0
        res = solve_standard_form(B, y)
        assert res.status == "converged"
        assert l1_dual_certificate_ok(B, y, res)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_solution_scale_invariance_of_feasibility(self, scale):
        rng = np.random.default_rng(3)
        B = rng.normal(size=(4, 9))
        x0 = np.zeros(9)
        x0[[1, 5]] = [2.0, -1.0]
        y = scale * (B @ x0)
        res = solve_standard_form(B, y)
        assert res.status == "converged"
        assert np.linalg.norm(B @ res.x - y) <= 1e-7 * (1.0 + np.linalg.norm(y))

    def test_duality_gap_bound_transfers_to_objective(self):
        rng = np.random.default_rng(9)
        B = rng.normal(size=(4, 10))
        x0 = np.zeros(10)
        x0[[0, 7]] = [1.0, 3.0]
        y = B @ x0
        res = solve_standard_form(B, y, opt_tol=1e-10)
        best_val, _ = min_l1_by_basic_solutions(B, y)
        assert np.abs(res.x).sum() <= best_val + 1e-8 * (1.0 + best_val)


class TestCertifyHook:
    def test_accepted_pair_is_returned_as_converged(self, monkeypatch):
        rng = np.random.default_rng(11)
        B = rng.normal(size=(6, 12))
        y = B @ np.where(np.arange(12) < 2, 1.0, 0.0)
        calls = []

        def accept_third(S, y_dual):
            calls.append(S)
            return (np.full(12, 7.0), np.full(6, -1.0)) if len(calls) == 3 else None

        factorizations = spy_factorizations(monkeypatch)
        res = solve_standard_form(B, y, certify=accept_third)
        assert res.status == "converged" and len(calls) == 3
        assert res.steps == res.iterations == len(factorizations) > 0
        assert np.array_equal(res.x, np.full(12, 7.0)) and np.array_equal(res.y, np.full(6, -1.0))
        assert res.certificate[0] is res.x and res.certificate[1] is res.y
        assert all(0 < S.size < 6 and np.array_equal(S, np.unique(S)) for S in calls)

    def test_whole_hook_result_is_kept(self):
        B = np.eye(2, 3)
        found = (np.zeros(3), np.zeros(2), "extra")
        res = solve_standard_form(B, np.array([1.0, 0.0]), certify=lambda S, y_dual: found)
        assert res.certificate is found and res.x is found[0]
        assert solve_standard_form(B, np.array([1.0, 0.0])).certificate is None

    def test_gap_only_skips_calls(self, monkeypatch):
        # failed calls leave the iterates alone, so the calls made under the gap
        # rule are a subsequence of the calls made without it
        rng = np.random.default_rng(12)
        B = rng.normal(size=(64, 128))
        y = B @ np.where(np.arange(128) % 13 == 0, rng.normal(size=128), 0.0)

        def recorder(log):
            def hook(S, y_dual):
                log.append((S.tobytes(), y_dual.tobytes()))
            return hook

        gapped, every = [], []
        res = solve_standard_form(B, y, certify=recorder(gapped))
        monkeypatch.setattr(lp, "_SUPPORT_GAP", 0.0)
        ref = solve_standard_form(B, y, certify=recorder(every))
        assert res.x.tobytes() == ref.x.tobytes() and res.iterations == ref.iterations
        rest = iter(every)
        assert all(call in rest for call in gapped)
        assert 0 < len(gapped) < len(every)

    def test_single_row_never_calls_the_hook(self):
        def unreachable(S, y_dual):  # pragma: no cover
            raise AssertionError("no support with 0 < |S| < m = 1")

        ref = solve_standard_form(np.array([[1.0, 1.0, 0.3]]), np.array([1.0]))
        res = solve_standard_form(np.array([[1.0, 1.0, 0.3]]), np.array([1.0]),
                                  certify=unreachable)
        assert res.x.tobytes() == ref.x.tobytes() and res.status == ref.status


def graded_system(m, seed):
    """A Gaussian m x 4m B and weights dsum spread over e^-20..e^20, as in
    late interior-point iterations."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m, 4 * m)), np.exp(rng.uniform(-20.0, 20.0, size=4 * m))


def graded_factor(m, seed):
    """The triangular factor that the solver's QR fallback computes for
    ``graded_system(m, seed)``: the R of diag(sqrt(dsum)) B'.  Its R'R is
    the normal matrix B diag(dsum) B', as is that of the Cholesky factor
    the solver prefers, so it exercises ``_factor_solver`` on the same
    grading; unlike the Cholesky factor its diagonal has both signs."""
    B, dsum = graded_system(m, seed)
    return np.linalg.qr((B * np.sqrt(dsum)).T, mode="r")


def factors(m, seed):
    """The solver's two factors of the normal matrix of ``graded_system(m,
    seed)``: the Gram's Cholesky factor and the QR fallback's R."""
    B, dsum = graded_system(m, seed)
    found = lp._gram_factor(B * np.sqrt(dsum))
    assert found is not None
    return {"cholesky": found[1], "qr": graded_factor(m, seed)}


class TestFactorSolver:
    """R'R v = r is solved by substitution over R's diagonal blocks of order
    at most 64; only those blocks are inverted."""

    @pytest.mark.parametrize("kind", ["cholesky", "qr"])
    @pytest.mark.parametrize("m", [1, 7, 64])
    def test_plain_inv_up_to_the_block_order(self, m, kind):
        # one block: w = D'(r - 0) and v = D(w - 0) are the bits of the two products
        R = factors(m, m)[kind]
        r = np.random.default_rng(m).normal(size=m)
        Rinv = np.linalg.inv(R)
        assert lp._factor_solver(R)(r).tobytes() == (Rinv @ (Rinv.T @ r)).tobytes()

    @pytest.mark.parametrize("kind", ["cholesky", "qr"])
    @pytest.mark.parametrize("m", [65, 100, 160, 257])
    def test_backward_error_on_graded_factors(self, m, kind):
        # within the bound of TestNormalFactor: ||G v - r|| <= 3 m u ||G|| ||v||
        # for the normal matrix G = B diag(dsum) B' that both factors factor
        B, dsum = graded_system(m, m)
        G = (B * dsum) @ B.T
        r = G @ np.random.default_rng(m).normal(size=m)
        v = lp._factor_solver(factors(m, m)[kind])(r)
        bound = 3 * m * 2.0**-53
        assert np.linalg.norm(G @ v - r) <= bound * np.linalg.norm(G, 2) * np.linalg.norm(v)

    @pytest.mark.parametrize("m, zero", [(64, 10), (65, 0), (65, 64), (160, 63), (160, 64),
                                         (160, 127), (160, 128), (160, 159), (257, 256)])
    def test_zero_diagonal_entry_raises(self, m, zero):
        R = graded_factor(m, m)
        R[zero, zero] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            lp._factor_solver(R)


class TestStartSolve:
    """The starting point's one system (2 B B') v = b is an LU solve; block
    substitution with the QR fallback's factor is the fallback."""

    def test_one_lu_solve(self, monkeypatch):
        B, b = gaussian_matrix(5, 12, 7), np.arange(1.0, 6.0)
        calls = spy_factor_solvers(monkeypatch)
        v = lp._start_solve(B, b)
        X = B * np.sqrt(2.0)
        assert v.tobytes() == np.linalg.solve(X @ X.T, b).tobytes() and not calls

    def test_overflowing_gram_takes_the_factored_route(self, monkeypatch):
        B = 2.0**515 * gaussian_matrix(4, 9, 73)  # 2 B B' near 2^1031
        v0 = 2.0**-900 * np.random.default_rng(2).normal(size=4)
        b = 2.0 * (B @ (B.T @ v0))
        ref = qr_route(B, b)
        calls = spy_factor_solvers(monkeypatch)
        v = lp._start_solve(B, b)
        assert len(calls) == 1 and v.tobytes() == ref.tobytes()
        assert np.linalg.norm(v - v0) <= 1e-12 * np.linalg.norm(v0)

    def test_failed_lu_takes_the_factored_route(self, monkeypatch):
        # the reference makes no LU solve, so the patch cannot reach it
        B, b = gaussian_matrix(5, 12, 7), np.arange(1.0, 6.0)
        ref = qr_route(B, b)

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        assert lp._start_solve(B, b).tobytes() == ref.tobytes()


def qr_route(B, b):
    """(2 B B')^-1 b by block substitution with the R of sqrt(2) B'."""
    return lp._factor_solver(np.linalg.qr((B * np.sqrt(2.0)).T, mode="r"))(b)


class TestNormalSolver:
    """A Gram that Cholesky accepts is solved by LU up to order 64 and by
    block substitution with its Cholesky factor above; a declined Gram
    takes the QR fallback's factor and block substitution at every order."""

    @pytest.mark.parametrize("m", [1, 7, 64])
    def test_accepted_gram_is_solved_by_lu(self, m):
        B, dsum = graded_system(m, m)
        G = lp._gram_factor(B * np.sqrt(dsum))[0]
        r = np.random.default_rng(m).normal(size=m)
        assert lp._normal_solver(B, dsum)(r).tobytes() == np.linalg.solve(G, r).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 7, 33, 64])
    def test_lu_backward_error_on_graded_systems(self, m):
        # LU with partial pivoting: ||G v - r|| <= 3 m u ||G|| ||v|| for the
        # Gram G the solver forms, the Cholesky solve's bound of TestNormalFactor
        # (measured at most 0.6 m u over 20 seeds per order); the distance
        # from fl(X X') to B diag(dsum) B' is the Gram's own rounding, not the solve's
        B, dsum = graded_system(m, m)
        G = lp._gram_factor(B * np.sqrt(dsum))[0]
        r = G @ np.random.default_rng(m).normal(size=m)
        v = lp._normal_solver(B, dsum)(r)
        bound = 3 * m * 2.0**-53
        assert np.linalg.norm(G @ v - r) <= bound * np.linalg.norm(G, 2) * np.linalg.norm(v)

    @pytest.mark.parametrize("m", [65, 100])
    def test_accepted_gram_above_the_block_order_is_substituted(self, m):
        B, dsum = graded_system(m, m)
        R = lp._gram_factor(B * np.sqrt(dsum))[1]
        r = np.random.default_rng(m).normal(size=m)
        assert lp._normal_solver(B, dsum)(r).tobytes() == lp._factor_solver(R)(r).tobytes()

    @pytest.mark.parametrize("m", [1, 7, 64])
    def test_declined_gram_takes_qr_and_block_substitution(self, m):
        # the Gram overflows, so Cholesky declines it; one block substitution
        # is the same bits as the product with R's inverse and its transpose
        B = 2.0**420 * gaussian_matrix(m, 2 * m, m)
        dsum = np.full(2 * m, 1e300)
        X = B * np.sqrt(dsum)
        assert lp._gram_factor(X) is None
        Rinv = np.linalg.inv(np.linalg.qr(X.T, mode="r"))
        r = np.random.default_rng(m).normal(size=m)
        assert lp._normal_solver(B, dsum)(r).tobytes() == (Rinv @ (Rinv.T @ r)).tobytes()

    def test_singular_lu_pivot_ends_the_solve_at_the_best_iterate(self, monkeypatch):
        # a LinAlgError at apply time ends the solve as a singular factor
        # does: the third step fails, so the solve returns what max_iter = 3 returns
        B = gaussian_matrix(6, 14, 5)
        y = B @ np.where(np.arange(14) < 2, 1.0, 0.0)
        ref = solve_standard_form(B, y, max_iter=3)
        normal_solver, calls = lp._normal_solver, []

        def failing_third(*args):
            calls.append(1)
            if len(calls) < 3:
                return normal_solver(*args)

            def singular(r):
                raise np.linalg.LinAlgError("Singular matrix")
            return singular

        monkeypatch.setattr(lp, "_normal_solver", failing_third)
        res = solve_standard_form(B, y)
        assert res.status == ref.status == "max_iter" and len(calls) == 3
        assert (res.iterations, res.steps) == (ref.iterations, ref.steps)
        assert res.x.tobytes() == ref.x.tobytes() and res.y.tobytes() == ref.y.tobytes()


class TestNormalFactor:
    """The normal matrix G = X X', X = B diag(sqrt(dsum)), is factored by the
    Cholesky factorization of its Gram, with Householder QR of X' as the
    fallback."""

    @pytest.mark.parametrize("m", [7, 64, 160])
    def test_cholesky_solve_matches_qr_solve_on_graded_weights(self, m, monkeypatch):
        # both solves have a normwise backward error ||G v - r|| / (||G|| ||v||)
        # within the Cholesky solve's bound gamma_(3m+1) ~ 3 m u, so they agree
        # to within cond(G) times that
        B, dsum = graded_system(m, m)
        G = (B * dsum) @ B.T
        r = G @ np.random.default_rng(m).normal(size=m)
        bound = 3 * m * 2.0**-53
        assert lp._gram_factor(B * np.sqrt(dsum)) is not None
        vs = [lp._normal_solver(B, dsum)(r)]
        monkeypatch.setattr(lp, "_gram_factor", lambda X: None)
        vs.append(lp._normal_solver(B, dsum)(r))
        for v in vs:
            assert np.linalg.norm(G @ v - r) <= bound * np.linalg.norm(G, 2) * np.linalg.norm(v)
        gap = np.linalg.norm(vs[0] - vs[1]) / np.linalg.norm(vs[1])
        assert gap <= 2 * bound * np.linalg.cond(G)

    def test_declines_an_overflowing_gram(self):
        B = 2.0**420 * gaussian_matrix(4, 9, 73)
        dsum = np.full(9, 1e300)
        X = B * np.sqrt(dsum)  # entries near 1e276, Gram entries near 1e552
        assert lp._gram_factor(X) is None
        v0 = 1e-300 * np.random.default_rng(1).normal(size=4)
        r = X @ (X.T @ v0)  # G v0 without forming G
        v = lp._normal_solver(B, dsum)(r)
        assert np.linalg.norm(v - v0) <= 1e-12 * np.linalg.norm(v0)

    def test_overflowing_gram_solve_converges_on_the_fallback(self, monkeypatch):
        # at 2^510 the Gram overflows once the support's weights grow
        B = gaussian_matrix(4, 9, 73)
        y = B @ np.where(np.arange(9) % 4 == 0, 1.0, 0.0)
        declined = spy_declines(monkeypatch)
        ref = solve_standard_form(B, y)
        res = solve_standard_form(2.0**510 * B, 2.0**510 * y)
        assert res.status == "converged" and "overflow" in declined
        assert np.allclose(res.x, ref.x, rtol=0.0, atol=1e-7)

    def test_singular_gram_solve_converges_on_the_fallback(self, monkeypatch):
        # without the certified exit the solve runs until the weights off the
        # support vanish; the last Gram is singular to working precision and
        # its Cholesky factorization fails
        rng = np.random.default_rng(1001)
        B = rng.normal(size=(64, 128)) / 8.0
        x0 = np.zeros(128)
        x0[rng.choice(128, 10, replace=False)] = rng.normal(size=10)
        y = B @ x0
        declined = spy_declines(monkeypatch)
        res = solve_standard_form(B, y)
        assert res.status == "converged" and l1_dual_certificate_ok(B, y, res)
        assert declined[-1] == "singular"
        X = np.eye(3)
        X[2] = X[1]
        assert lp._gram_factor(X) is None

    def test_spread_diagonal_is_taken_by_cholesky(self, monkeypatch):
        # at the weights dsum = 2 the Gram is 4 diag(1, t^2), so L's diagonal
        # ratio is t; the first iteration's weights are uniform too, as
        # x+ + x- is constant at the starting point
        t = 1e-6
        B = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, t, 0.0, -t]])
        found = lp._gram_factor(B * np.sqrt(2.0))
        assert found is not None and found[1][1, 1] / found[1][0, 0] == pytest.approx(t)
        declined = spy_declines(monkeypatch)
        res = solve_standard_form(B, B @ np.array([1.0, 2.0, 0.0, 0.0]))
        assert res.status == "converged"
        assert declined == [None] * res.steps
        assert np.abs(res.x).sum() == pytest.approx(3.0, abs=1e-7)


def spy_factorizations(monkeypatch):
    """Patch ``lp._normal_solver`` to log each factorization it makes."""
    calls = []
    normal_solver = lp._normal_solver
    monkeypatch.setattr(lp, "_normal_solver", lambda *a: calls.append(1) or normal_solver(*a))
    return calls


def spy_factor_solvers(monkeypatch):
    """Patch ``lp._factor_solver`` to log each triangular factor it is given."""
    calls = []
    factor_solver = lp._factor_solver
    monkeypatch.setattr(lp, "_factor_solver", lambda R: calls.append(R) or factor_solver(R))
    return calls


def spy_applies(monkeypatch):
    """Patch ``lp._normal_solver`` so that the solvers it returns log each
    right-hand side they are applied to."""
    applies = []
    normal_solver = lp._normal_solver

    def spy(*args):
        solve = normal_solver(*args)
        return lambda r: applies.append(1) or solve(r)

    monkeypatch.setattr(lp, "_normal_solver", spy)
    return applies


def spy_declines(monkeypatch):
    """Patch ``lp._gram_factor`` to log, per factorization, None when it was
    accepted, else why it was declined: "overflow" (the Gram has an entry
    that is not finite) or "singular" (the finite Gram cannot be factored)."""
    log = []
    gram_factor = lp._gram_factor

    def spy(X):
        found = gram_factor(X)
        reason = None
        if found is None:
            with np.errstate(over="ignore", invalid="ignore"):
                G = X @ X.T
            reason = "overflow" if not np.isfinite(G).all() else "singular"
        log.append(reason)
        return found

    monkeypatch.setattr(lp, "_gram_factor", spy)
    return log
