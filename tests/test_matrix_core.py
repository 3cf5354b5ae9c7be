import numpy as np
import pytest

from nlcs.matrix_core import (
    RANK_TOL,
    as_matrix,
    as_system,
    as_vector,
    gaussian_matrix,
    in_safe_range,
    is_monomial,
    random_sparse_signal,
    rank,
    rank_of_singular_values,
    read_matrix,
    read_vector,
)


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            as_vector([])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])
        with pytest.raises(ValueError):
            as_vector([np.inf])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])
        with pytest.raises(ValueError):
            as_vector([[1.0]])


class TestRank:
    def test_identity(self):
        assert rank(np.eye(3)) == 3

    def test_all_ones(self):
        assert rank(np.ones((2, 2))) == 1

    def test_dependent_row(self):
        M = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
        assert rank(M) == 2

    def test_cutoff_is_strict_and_relative(self):
        assert RANK_TOL == 1e-10
        assert rank(np.diag([3.0, 3.0 * RANK_TOL])) == 1
        assert rank(np.diag([3.0, 3.0 * RANK_TOL * (1 + 1e-9)])) == 2

    def test_stacked_counts_match_rank(self):
        rng = np.random.default_rng(0)
        stacks = rng.normal(size=(5, 4, 3))
        stacks[1, :, 2] = stacks[1, :, 0] + stacks[1, :, 1]
        stacks[3] = 0.0
        counts = rank_of_singular_values(np.linalg.svd(stacks, compute_uv=False))
        assert counts.tolist() == [rank(S) for S in stacks] == [3, 2, 3, 0, 3]

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_equals_rank_of_transpose(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 5))
        M = rng.normal(size=(6, r)) @ rng.normal(size=(r, 9))
        assert rank(M) == rank(M.T) == r


class TestAsSystem:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            as_system(np.eye(3), np.array([1.0, 2.0]))


class TestIsMonomial:
    @pytest.mark.parametrize("M, want", [
        (np.eye(3), True),
        (np.array([[0.0, 1e-300], [-5e300, 0.0]]), True),  # exact: any nonzero counts
        (np.array([[0.0, 2.0], [3.0, 0.0], [0.0, 0.0]]), False),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), False),
        (np.array([[0.0, 1.0], [0.0, 1.0]]), False),
        (np.zeros((2, 2)), False),
    ])
    def test_one_nonzero_per_row_and_column(self, M, want):
        assert is_monomial(M) is want


def safe_range_by_gather(M):
    """Reference form of ``in_safe_range``: gather the nonzero magnitudes."""
    nz = np.abs(M[M != 0.0])
    return bool(nz.size and nz.min() >= 2.0**-400 and nz.max() <= 2.0**400)


class TestInSafeRange:
    @pytest.mark.parametrize("M, expected", [
        (np.array([[2.0**-400, 1.0]]), True),
        (np.array([[2.0**400, -1.0]]), True),
        (np.array([[2.0**-400, 2.0**400]]), True),
        (np.array([[np.nextafter(2.0**-400, 0.0), 1.0]]), False),
        (np.array([[-np.nextafter(2.0**400, np.inf)]]), False),
        (np.zeros((3, 4)), False),
        (np.array([[-0.0, 0.0], [0.0, -0.0]]), False),
        (np.array([[-0.0, 0.5], [0.0, -3.0]]), True),
        (np.array([[5e-324, 1.0]]), False),
        (np.array([[-1e-310, 0.0, 1.0]]), False),
        (np.array([[np.finfo(np.float64).tiny, 1.0]]), False),
        (np.array([[np.nextafter(2.0**400, 0.0), -2.0**-399]]), True),
    ])
    def test_boundaries(self, M, expected):
        assert in_safe_range(M) is expected
        assert safe_range_by_gather(M) is expected

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_gather_form(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(7, 9)) * 2.0 ** rng.integers(-420, 420, size=(7, 9))
        M[rng.random(M.shape) < 0.3] = rng.choice([0.0, -0.0])
        for A in (M, M * 2.0**-400, np.clip(M, -2.0**399, 2.0**399), M[:1, :1]):
            assert in_safe_range(A) == safe_range_by_gather(A)


class TestGaussianMatrix:
    def test_deterministic(self):
        a = gaussian_matrix(2, 3, 7)
        b = gaussian_matrix(2, 3, 7)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("rows, cols, seed", [(1, 1, 0), (2, 3, 7), (6, 12, 5), (64, 128, 11),
                                                  (80, 160, 2**64 - 1), (160, 512, 202)])
    def test_bitwise_equal_to_rng_normal(self, rows, cols, seed):
        ref = np.random.default_rng(seed).normal(0.0, np.sqrt(1.0 / rows), size=(rows, cols))
        assert np.array_equal(gaussian_matrix(rows, cols, seed).view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("seed", [0, 11, 202])
    def test_sample_mean(self, seed):
        A = gaussian_matrix(64, 128, seed)
        sigma = np.sqrt(1.0 / 64)
        assert abs(A.mean()) <= 3 * sigma / np.sqrt(64 * 128)

    @pytest.mark.parametrize("seed", [0, 11, 202])
    def test_sample_variance(self, seed):
        A = gaussian_matrix(64, 128, seed)
        assert A.var() == pytest.approx(1.0 / 64, rel=0.1)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            gaussian_matrix(0, 3, 1)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            gaussian_matrix(2, 2, -1)
        with pytest.raises(ValueError):
            gaussian_matrix(2, 2, 2**64)


class TestRandomSparseSignal:
    def test_nonzero_count(self):
        x = random_sparse_signal(10, 3, 1)
        assert np.count_nonzero(x) == 3

    def test_full_density(self):
        x = random_sparse_signal(5, 5, 2)
        assert np.count_nonzero(x) == 5

    def test_deterministic(self):
        assert random_sparse_signal(10, 3, 1).tobytes() == random_sparse_signal(10, 3, 1).tobytes()

    def test_magnitude_floor(self):
        for seed in range(20):
            x = random_sparse_signal(30, 10, seed)
            nz = x[x != 0]
            assert np.abs(nz).min() >= 1e-6

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            random_sparse_signal(5, 0, 1)
        with pytest.raises(ValueError):
            random_sparse_signal(5, 6, 1)


class TestCsvIO:
    def test_matrix_roundtrip(self, tmp_path):
        A = np.array([[1.25, -3.5, 0.1], [4.0, 5.0, -6.75]])
        path = tmp_path / "m.csv"
        np.savetxt(path, A, delimiter=",")
        assert np.array_equal(read_matrix(path), A)

    def test_vector_roundtrip(self, tmp_path):
        v = np.array([1.5, -2.0, 3.25])
        path = tmp_path / "v.csv"
        np.savetxt(path, [v], delimiter=",")  # one CSV line
        assert np.array_equal(read_vector(path), v)

    def test_vector_one_per_line(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.5\n-2.0\n3.25\n")
        assert np.array_equal(read_vector(path), [1.5, -2.0, 3.25])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError):
            read_matrix(path)
