import math
from itertools import combinations

import numpy as np
import pytest

from nlcs.errors import GuardError, RipOrderError
from nlcs.matrix_core import gaussian_matrix, random_sparse_signal
from nlcs.sensing_properties import (
    check_invariance_rip_order,
    check_invariance_spark,
    composite_rip_estimate,
    nsp_estimate,
    null_space_basis,
    rip_constants,
    sample_null_vectors,
    sample_sparse_pairs,
    spark,
)


def random_permuted_diagonal(n, rng):
    P = np.zeros((n, n))
    vals = rng.uniform(0.5, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    P[np.arange(n), rng.permutation(n)] = vals
    return P


def random_invertible(n, rng, det_floor=1e-6):
    while True:
        M = rng.normal(size=(n, n))
        if abs(np.linalg.det(M)) >= det_floor:
            return M


class TestSpark:
    def test_identity(self):
        rep = spark(np.eye(3))
        assert rep.spark == 4
        assert rep.witness == []

    def test_single_dependency(self):
        rep = spark(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        assert rep.spark == 3
        assert rep.witness == [0, 1, 2]

    def test_duplicate_columns(self):
        A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
        rep = spark(A)
        assert rep.spark == 2
        assert rep.witness == [0, 1]

    def test_zero_column_gives_spark_one(self):
        A = np.array([[0.0, 1.0], [0.0, 2.0]])
        rep = spark(A)
        assert rep.spark == 1
        assert rep.witness == [0]

    def test_guard(self):
        with pytest.raises(GuardError):
            spark(np.ones((2, 30)))

    def test_witness_is_dependent_and_smaller_sets_are_not(self):
        A = gaussian_matrix(3, 6, 5)
        rep = spark(A)
        assert rep.spark == 4  # generic 3x6: any 4 columns dependent, any 3 independent
        W = A[:, rep.witness]
        assert np.linalg.matrix_rank(W) < len(rep.witness)
        for sub in combinations(range(6), rep.spark - 1):
            assert np.linalg.matrix_rank(A[:, sub]) == rep.spark - 1

    def test_serialization_keys(self):
        import json

        rep = spark(np.eye(2))
        assert set(json.loads(rep.to_json())) == {"spark", "witness"}


class TestRipConstants:
    def test_orthonormal(self):
        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        for k in (1, 2, 3):
            rep = rip_constants(Q, k)
            assert rep.alpha == pytest.approx(1.0, abs=1e-12)
            assert rep.beta == pytest.approx(1.0, abs=1e-12)
            assert rep.delta == pytest.approx(0.0, abs=1e-12)
            assert rep.lam == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_order_one(self):
        rep = rip_constants(np.diag([1.0, 2.0]), 1)
        assert rep.alpha == pytest.approx(1.0)
        assert rep.beta == pytest.approx(4.0)
        assert rep.delta == pytest.approx(3.0 / 5.0)
        assert rep.lam == pytest.approx(np.sqrt(2.0 / 5.0))

    def test_order_one_equals_column_norms(self):
        # independent oracle: alpha/beta at order 1 are the extreme squared column norms
        A = gaussian_matrix(4, 8, 17)
        rep = rip_constants(A, 1)
        norms2 = np.sum(A * A, axis=0)
        assert rep.alpha == pytest.approx(norms2.min(), rel=1e-12)
        assert rep.beta == pytest.approx(norms2.max(), rel=1e-12)

    def test_failure_on_dependent_columns(self):
        A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
        with pytest.raises(RipOrderError):
            rip_constants(A, 2)

    def test_guard(self):
        with pytest.raises(GuardError):
            rip_constants(np.ones((2, 40)), 20)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            rip_constants(np.eye(3), 0)
        with pytest.raises(ValueError):
            rip_constants(np.eye(3), 4)

    @pytest.mark.parametrize("seed", range(4))
    def test_delta_monotone_in_order(self, seed):
        A = gaussian_matrix(6, 12, seed)
        deltas = [rip_constants(A, k).delta for k in range(1, 5)]
        assert all(d1 <= d2 + 1e-12 for d1, d2 in zip(deltas, deltas[1:]))

    @pytest.mark.parametrize("seed", range(4))
    def test_spark_iff_rip_success(self, seed):
        # spark(A) > 2k holds exactly when rip_constants(A, 2k) succeeds
        rng = np.random.default_rng(seed)
        A = gaussian_matrix(4, 8, seed)
        B = A.copy()
        B[:, 3] = B[:, 0] + B[:, 1]  # plant a 3-column dependency: spark(B) = 3
        for M, expected_spark in ((A, 5), (B, 3)):
            assert spark(M).spark == expected_spark
            for k in (1, 2):
                succeeded = True
                try:
                    rip_constants(M, 2 * k)
                except RipOrderError:
                    succeeded = False
                assert succeeded == (spark(M).spark > 2 * k)
        del rng

    @pytest.mark.parametrize("seed", range(4))
    def test_lambda_rescale_symmetrizes(self, seed):
        A = gaussian_matrix(5, 10, seed)
        rep = rip_constants(A, 2)
        scaled = rip_constants(rep.lam * A, 2)
        assert scaled.alpha == pytest.approx(1.0 - rep.delta, abs=1e-9)
        assert scaled.beta == pytest.approx(1.0 + rep.delta, abs=1e-9)

    def test_serialization_keys(self):
        import json

        rep = rip_constants(np.eye(3), 1)
        assert set(json.loads(rep.to_json())) == {"order", "alpha", "beta", "delta", "lambda"}


class TestNspEstimate:
    def test_trivial_null_space_is_vacuous(self):
        rep = nsp_estimate(np.eye(4), 2, samples=50, seed=0)
        assert rep.c_lower == 0.0
        assert rep.samples == 0

    def test_single_null_direction(self):
        # null space of [1, -1] is spanned by (1, 1): ratio is exactly 1
        rep = nsp_estimate(np.array([[1.0, -1.0]]), 1, samples=10, seed=0)
        assert rep.c_lower == pytest.approx(1.0, abs=1e-12)
        assert rep.samples == 10

    def test_matches_per_sample_brute_force(self):
        # oracle: exhaustive maximum over all supports of size k, same samples
        A = gaussian_matrix(4, 8, 23)
        k, samples, seed = 2, 200, 9
        rep = nsp_estimate(A, k, samples, seed)
        H = sample_null_vectors(A, samples, seed)
        best = 0.0
        for h in H:
            for sub in combinations(range(8), k):
                num = np.sqrt(k) * np.linalg.norm(h[list(sub)])
                den = np.abs(np.delete(h, list(sub))).sum()
                best = max(best, num / den)
        assert rep.c_lower == pytest.approx(best, abs=1e-12)

    def test_full_order_always_fails_on_nontrivial_null_space(self):
        # with k = n the complement of the worst support is empty
        from nlcs.errors import NspOrderError

        with pytest.raises(NspOrderError):
            nsp_estimate(np.array([[1.0, -1.0]]), 2, samples=10, seed=0)

    def test_null_space_basis_orthonormal(self):
        A = gaussian_matrix(4, 9, 2)
        N = null_space_basis(A)
        assert N.shape == (9, 5)
        assert np.abs(A @ N).max() < 1e-10
        assert np.allclose(N.T @ N, np.eye(5), atol=1e-12)

    def test_serialization_keys(self):
        import json

        rep = nsp_estimate(np.eye(2), 1, samples=5, seed=0)
        assert set(json.loads(rep.to_json())) == {"order", "c_lower", "samples"}


class TestInvarianceChecks:
    def test_spark_invariance_identity_case(self):
        rng = np.random.default_rng(0)
        assert check_invariance_spark(np.eye(3), random_invertible(3, rng), np.diag([2.0, 3.0, 4.0]))

    def test_spark_invariance_with_witnessed_dependency(self):
        rng = np.random.default_rng(1)
        A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        M_I = np.array([[2.0, 1.0], [0.0, 1.0]])
        M_D = random_permuted_diagonal(3, rng)
        assert check_invariance_spark(A, M_I, M_D)
        # oracle: recompute both sparks directly
        assert spark(M_I @ A).spark == spark(A).spark == 3
        assert spark(A @ M_D).spark == 3

    def test_noninvertible_left_factor_rejected(self):
        with pytest.raises(ValueError, match="M_I"):
            check_invariance_spark(np.eye(2), np.ones((2, 2)), np.diag([1.0, 1.0]))

    def test_zero_diagonal_right_factor_rejected(self):
        with pytest.raises(ValueError, match="M_D"):
            check_invariance_spark(np.eye(2), np.eye(2), np.diag([1.0, 0.0]))

    def test_double_entry_right_factor_rejected(self):
        M_D = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="M_D"):
            check_invariance_spark(np.eye(2), np.eye(2), M_D)

    def test_rip_invariance_uniform_scaling(self):
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        assert check_invariance_rip_order(Q, 2, 2.0 * np.eye(4), np.eye(4))
        rep = rip_constants(2.0 * np.eye(4) @ Q, 2)
        assert rep.alpha == pytest.approx(4.0, abs=1e-9)
        assert rep.beta == pytest.approx(4.0, abs=1e-9)

    def test_rip_invariance_random_factors(self):
        rng = np.random.default_rng(5)
        A = gaussian_matrix(4, 8, 55)
        assert check_invariance_rip_order(A, 2, random_invertible(4, rng), random_permuted_diagonal(8, rng))

    def test_rip_precondition_failure(self):
        A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
        rng = np.random.default_rng(6)
        with pytest.raises(RipOrderError):
            check_invariance_rip_order(A, 2, random_invertible(2, rng), random_permuted_diagonal(3, rng))

    @pytest.mark.parametrize("seed", range(20))
    def test_invariance_on_random_triples(self, seed):
        rng = np.random.default_rng(1000 + seed)
        A = gaussian_matrix(6, 12, 2000 + seed)
        M_I = random_invertible(6, rng)
        M_D = random_permuted_diagonal(12, rng)
        assert check_invariance_spark(A, M_I, M_D)
        assert check_invariance_rip_order(A, 2, M_I, M_D)


class TestCompositeRipEstimate:
    def test_identity_map_orthonormal_matrix(self):
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        lo, hi = composite_rip_estimate(lambda x: Q @ x, n=8, k=2, pairs=50, seed=3)
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_sign_map_collision_found(self):
        A = gaussian_matrix(4, 8, 31)
        phi = lambda x: np.sign(A @ x)  # noqa: E731
        lo, hi = composite_rip_estimate(phi, n=8, k=1, pairs=200, seed=5)
        assert lo == 0.0
        # oracle: an explicit colliding pair exists (same direction, different scale)
        e = np.zeros(8)
        e[0] = 1.0
        assert np.array_equal(phi(e), phi(2.0 * e))

    def test_linear_scaling_multiplies_bounds_by_four(self):
        A = gaussian_matrix(5, 10, 41)
        n, k, pairs, seed = 10, 2, 60, 11
        lo2, hi2 = composite_rip_estimate(lambda x: 2.0 * (A @ x), n, k, pairs, seed)
        # oracle: recompute on the same sampled pairs without the factor
        X1, X2 = sample_sparse_pairs(n, k, pairs, seed)
        ratios = [
            np.sum((A @ (x1 - x2)) ** 2) / np.sum((x1 - x2) ** 2) for x1, x2 in zip(X1, X2)
        ]
        assert lo2 == pytest.approx(4.0 * min(ratios), rel=1e-12)
        assert hi2 == pytest.approx(4.0 * max(ratios), rel=1e-12)

    def test_pair_sampler_never_returns_equal_pairs(self):
        X1, X2 = sample_sparse_pairs(6, 3, 100, 0)
        assert np.linalg.norm(X1 - X2, axis=1).min() >= 1e-12


def test_guard_message_names_the_bound():
    try:
        spark(np.ones((2, 30)))
    except GuardError as exc:
        assert "max_cols=24" in str(exc)
    else:  # pragma: no cover
        pytest.fail("guard not raised")


def test_comb_guard_consistency():
    # the rip guard is about the support count, not the matrix size
    A = gaussian_matrix(3, 20, 0)
    assert math.comb(20, 3) <= 200_000
    rip_constants(A, 3)  # within guard: must not raise GuardError


def test_random_sparse_signal_support_is_uniformish():
    # light sanity check that index 0 is not privileged by the support draw
    hits = sum(random_sparse_signal(10, 3, seed)[0] != 0 for seed in range(300))
    assert 50 <= hits <= 130  # expect ~90
