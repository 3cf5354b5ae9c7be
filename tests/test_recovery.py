import math

import numpy as np
import pytest

from nlcs import nonlinear_maps
from nlcs.errors import GuardError, RequirementError, RipOrderError
from nlcs.matrix_core import gaussian_matrix, random_sparse_signal
from nlcs.nonlinear_maps import (
    abs_map,
    identity_map,
    nonzero_random_map,
    quantize_floor,
    sign_map,
    sine_map,
    square_map,
)
from nlcs.recovery import (
    basis_pursuit,
    l0_oracle,
    recover_via_linearization,
    support_set,
)
from nlcs.sensing_properties import rip_constants, spark

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

    @pytest.mark.parametrize("seed", range(8))
    def test_l1_never_beats_l0_l1_norm_by_more_than_tol(self, seed):
        # the l0 solution is l1-feasible, so ||bp||_1 <= ||l0||_1 + tol
        B = gaussian_matrix(4, 9, seed)
        x = random_sparse_signal(9, 2, seed + 40)
        y = B @ x
        bp = basis_pursuit(B, y)
        oracle = l0_oracle(B, y, 2)
        assert bp.l1_norm <= oracle.l1_norm + 1e-8 * (1.0 + oracle.l1_norm)


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
        }


def test_support_set_threshold():
    v = np.array([1.0, 1e-9, -2.0, 0.0])
    assert support_set(v) == {0, 2}
