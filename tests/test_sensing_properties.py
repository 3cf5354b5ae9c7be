import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from nlcs import matrix_core, recovery, sensing_properties
from nlcs.errors import GuardError, NspOrderError, RipOrderError, RipRangeError
from nlcs.nonlinear_maps import sign_map
from nlcs.matrix_core import (RANK_TOL, column_subsets, gaussian_matrix, random_sparse_signal,
                              rank_of_singular_values)
from nlcs.sensing_properties import (
    RipReport,
    check_invariance_rip_order,
    check_invariance_spark,
    nsp_estimate,
    null_space_basis,
    rip_constants,
    sample_null_vectors,
    spark,
)
from tests.exact import det


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


def reference_spark(A):
    """The upward SVD scan that ``spark`` must reproduce: subsets of r columns
    in lexicographic order by increasing r, batched as before the probe."""
    M = np.asarray(A, dtype=np.float64)
    m, n = M.shape
    for r in range(1, min(m + 1, n) + 1):
        if r > m:
            return r, list(range(r))
        subs = np.array(list(combinations(range(n), r)), dtype=np.intp)
        for start in range(0, len(subs), 4096):
            block = subs[start:start + 4096]
            stacks = np.moveaxis(M[:, block], 1, 0)
            dep = rank_of_singular_values(np.linalg.svd(stacks, compute_uv=False)) < r
            if dep.any():
                return r, [int(j) for j in block[int(np.argmax(dep))]]
    return n + 1, []


def reference_rip(A, k):
    """``rip_constants`` without its screen: ``eigvalsh`` on the Gram of every
    support, gathered in the same chunks; the report's JSON or the
    ``RipOrderError`` message."""
    M = np.asarray(A, dtype=np.float64)
    alpha, beta = np.inf, -np.inf
    for subs in column_subsets(M.shape[1], k, M.shape[0] * k):
        stacks = np.moveaxis(M[:, subs], 1, 0)
        ev = np.linalg.eigvalsh(stacks.transpose(0, 2, 1) @ stacks)
        alpha, beta = min(alpha, float(ev[:, 0].min())), max(beta, float(ev[:, -1].max()))
    if alpha <= 1e-10 * beta:
        return f"RIP of order {k} fails: alpha={alpha:.3e} is zero to numerical precision"
    return RipReport(order=k, alpha=alpha, beta=beta, delta=(beta - alpha) / (beta + alpha),
                     lam=math.sqrt(2.0 / (beta + alpha))).to_json()


def reference_nsp(A, k, samples, seed):
    """``nsp_estimate``'s c_lower by a stable descending argsort of every
    sample's magnitudes, or the ``NspOrderError`` message."""
    H = sensing_properties.sample_null_vectors(A, samples, seed)
    h_top = np.take_along_axis(H, np.argsort(-np.abs(H), axis=1, kind="stable")[:, :k], axis=1)
    den = np.abs(H).sum(axis=1) - np.abs(h_top).sum(axis=1)
    if (den == 0.0).any():
        return f"NSP of order {k} fails: sampled null vector {int(np.argmax(den == 0.0))} is {k}-sparse"
    return float((np.sqrt(k) * np.linalg.norm(h_top, axis=1) / den).max())


def nsp_answer(A, k, samples, seed):
    try:
        return nsp_estimate(A, k, samples, seed).c_lower
    except NspOrderError as exc:
        return str(exc)


def rip_answer(A, k):
    """``rip_constants``' report JSON or ``RipOrderError`` message."""
    try:
        return rip_constants(A, k).to_json()
    except RipOrderError as exc:
        return str(exc)


def plant_dependency(A, level, rng):
    """Make one random set of ``level`` columns of A dependent: a zero column
    at level 1, else one column a combination of the others."""
    A = A.copy()
    cols = rng.choice(A.shape[1], size=level, replace=False)
    A[:, cols[-1]] = A[:, cols[:-1]] @ rng.normal(size=level - 1) if level > 1 else 0.0
    return A


def with_singular_values(s, rng):
    """U diag(s) V^T with random orthogonal U and V."""
    U, _ = np.linalg.qr(rng.normal(size=(len(s), len(s))))
    V, _ = np.linalg.qr(rng.normal(size=(len(s), len(s))))
    return U @ np.diag(s) @ V.T


def assert_matches_reference(A):
    rep = spark(A)
    assert (rep.spark, rep.witness) == reference_spark(A)


class TestSparkMatchesUpwardScan:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (2, 3), (3, 6), (4, 8), (5, 10), (6, 12),
                                       (6, 13), (7, 12), (3, 3), (6, 6), (5, 2), (8, 5)])
    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_gaussians(self, shape, seed):
        assert_matches_reference(gaussian_matrix(*shape, 300 + seed))

    @pytest.mark.parametrize("m, n", [(4, 8), (6, 12), (5, 5)])
    def test_planted_dependency_at_every_level(self, m, n):
        rng = np.random.default_rng(m * n)
        for level in range(1, m + 1):
            for seed in range(3):
                A = plant_dependency(gaussian_matrix(m, n, 400 + seed), level, rng)
                assert_matches_reference(A)
                assert spark(A).spark <= level

    def test_dependency_found_only_at_level_m(self):
        # columns 0-4 and 11 are the one dependent 6-subset: the probe finds it,
        # the upward scan then returns it
        A = gaussian_matrix(6, 12, 5)
        A[:, 11] = A[:, :5] @ np.array([0.5, -1.0, 2.0, 0.25, 1.5])
        rep = spark(A)
        assert (rep.spark, rep.witness) == (6, [0, 1, 2, 3, 4, 11]) == reference_spark(A)

    def test_two_dependencies_at_one_level_give_the_first(self):
        A = gaussian_matrix(5, 10, 9)
        A[:, 9] = A[:, 1] - A[:, 6]
        A[:, 8] = A[:, 2] + A[:, 3]
        rep = spark(A)
        assert (rep.spark, rep.witness) == (3, [1, 6, 9]) == reference_spark(A)

    @pytest.mark.parametrize("rank_", [1, 2, 3, 4])
    def test_low_rank_products(self, rank_):
        rng = np.random.default_rng(rank_)
        for n in (3, 5, 9):
            assert_matches_reference(rng.normal(size=(5, rank_)) @ rng.normal(size=(rank_, n)))

    @pytest.mark.parametrize("shape", [(6, 12), (4, 4), (7, 3)])
    def test_zero_column(self, shape):
        for j in (0, shape[1] - 1):
            A = gaussian_matrix(*shape, 17)
            A[:, j] = 0.0
            rep = spark(A)
            assert (rep.spark, rep.witness) == (1, [j]) == reference_spark(A)

    def test_all_zero_and_tall_dependent(self):
        assert_matches_reference(np.zeros((3, 5)))
        A = gaussian_matrix(8, 5, 3)
        A[:, 4] = A[:, 0] + A[:, 2]
        assert_matches_reference(A)

    @pytest.mark.parametrize("seed", range(6))
    def test_invariance_products(self, seed):
        rng = np.random.default_rng(500 + seed)
        for A in (gaussian_matrix(6, 12, 600 + seed),
                  plant_dependency(gaussian_matrix(6, 12, 600 + seed), 1 + seed, rng)):
            M_I = random_invertible(6, rng)
            M_D = random_permuted_diagonal(12, rng)
            for M in (A, M_I @ A, A @ M_D):
                assert_matches_reference(M)

    def test_generic_matrix_scans_only_level_m(self, monkeypatch):
        levels = []
        chunks = sensing_properties.column_subsets

        def recording(n, r, *rest):
            levels.append(r)
            return chunks(n, r, *rest)

        monkeypatch.setattr(sensing_properties, "column_subsets", recording)
        tested = []
        dependent = sensing_properties._dependent

        def recording_svd(M, subs):
            tested.append(subs.shape[1])
            return dependent(M, subs)

        monkeypatch.setattr(sensing_properties, "_dependent", recording_svd)
        assert spark(gaussian_matrix(6, 12, 5)).spark == 7
        assert levels == []  # the screen's recursion draws no subsets; no scan runs
        assert set(tested) <= {6}


class TestColumnSubsets:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_chunks_concatenate_to_combinations(self, n):
        for r in range(n + 1):
            chunks = list(column_subsets(n, r))
            assert all(c.dtype == np.intp and c.ndim == 2 and c.shape[1] == r for c in chunks)
            assert all(1 <= len(c) <= matrix_core._CHUNK for c in chunks)
            rows = [tuple(int(j) for j in row) for c in chunks for row in c]
            assert rows == list(combinations(range(n), r))

    def test_large_levels_stream(self):
        # C(16, 8) = 12,870 > _CHUNK: four chunks, built afresh on each call
        first = [len(c) for c in column_subsets(16, 8)]
        assert first == [4096, 4096, 4096, 582]
        assert next(column_subsets(16, 8)) is not next(column_subsets(16, 8))

    def test_cached_table_is_shared_and_read_only(self):
        (table,) = column_subsets(12, 6)
        (again,) = column_subsets(12, 6)
        assert table is again
        with pytest.raises(ValueError):
            table[0, 0] = 5
        assert table[0].tolist() == [0, 1, 2, 3, 4, 5]

    def test_empty_level_yields_nothing(self):
        assert list(column_subsets(3, 4)) == []

    @pytest.mark.parametrize("n, r, floats", [(12, 6, 10**4), (16, 8, 10**3), (13, 6, 10**8),
                                              (10, 5, 3 * matrix_core._GATHER_FLOATS)])
    def test_gathers_are_bounded(self, n, r, floats):
        chunks = list(column_subsets(n, r, floats))
        rows = [tuple(int(j) for j in row) for c in chunks for row in c]
        assert rows == list(combinations(range(n), r))
        assert all(1 <= len(c) <= matrix_core._CHUNK for c in chunks)
        assert all(len(c) == 1 or len(c) * floats <= matrix_core._GATHER_FLOATS for c in chunks)


def colex_subsets(n, r):
    return sorted(combinations(range(n), r), key=lambda c: c[::-1])


class TestMinorTables:
    @pytest.mark.parametrize("stream", [False, True])
    def test_tables_index_the_laplace_expansion(self, stream, monkeypatch):
        if stream:  # nothing cached, chunks of 7 subsets
            monkeypatch.setattr(matrix_core, "_CACHE_ENTRIES", 0)
            monkeypatch.setattr(matrix_core, "_CHUNK", 7)
        for n in range(2, 11):
            for r in range(2, n + 1):
                chunks = list(matrix_core.minor_tables(n, r))
                assert all(c.dtype == np.intp and 1 <= c.shape[2] <= matrix_core._CHUNK
                           for c in chunks)
                cols, child = np.concatenate(chunks[::-1], axis=2)
                prev = {S: i for i, S in enumerate(colex_subsets(n, r - 1))}
                for i, S in enumerate(colex_subsets(n, r)):
                    decoded = [c if p % 2 == 0 else -1 - c for p, c in enumerate(cols[:, i])]
                    assert decoded == list(S)
                    assert child[:, i].tolist() == [prev[S[:p] + S[p + 1:]] for p in range(r)]

    def test_streamed_level_allocates_nothing_large(self):
        # C(22, 8) = 319,770 subsets: chunks are cut from level 7 over range(21),
        # and the level's whole table (41 MB as intp) is never held
        tracemalloc.start()
        try:
            sizes = [c.shape[2] for c in matrix_core.minor_tables(22, 8)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(sizes) == math.comb(22, 8) and max(sizes) == matrix_core._CHUNK
        assert peak < 2 * 8 * math.comb(22, 8) * 8 / 4

    def test_cache_holds_a_whole_brute_pass(self, monkeypatch, tmp_path):
        from perfbench.workloads import BruteCertify

        monkeypatch.setattr(matrix_core, "_TABLES", matrix_core._TableCache())
        brute = BruteCertify(0, tmp_path)
        assert [brute.run_group(g).failed for g in brute.groups] == [0] * len(brute.groups)
        builds = []
        for name in ("_minor_rows", "_subset_rows"):
            def counted(*args, _build=getattr(matrix_core, name), _name=name):
                builds.append((_name, args[-2:]))
                return _build(*args)

            monkeypatch.setattr(matrix_core, name, counted)
        assert [brute.run_group(g).failed for g in brute.groups] == [0] * len(brute.groups)
        assert builds == []
        assert 0 < matrix_core._TABLES.nbytes <= matrix_core._CACHE_BYTES


class TestBoundedGathers:
    """Cutting chunks for tall matrices leaves every answer bit-identical."""

    def test_rip_of_a_tall_matrix(self, monkeypatch):
        # C(13, 6) = 1,716 supports of 1,000 x 6 floats: one chunk, gathered
        # in pieces of _GATHER_FLOATS // 6,000 = 349 supports
        A = gaussian_matrix(1000, 13, 1)
        batches = []
        screens = sensing_properties._rip_screens
        monkeypatch.setattr(sensing_properties, "_rip_screens",
                            lambda N, k: batches.append(N) or screens(N, k))
        cut = rip_constants(A, 6).to_json()
        assert batches == [349] * 4 + [320]
        assert cut == reference_rip(A, 6)
        monkeypatch.setattr(matrix_core, "_GATHER_FLOATS", 10**12)
        batches.clear()
        assert rip_constants(A, 6).to_json() == cut
        assert batches == [1716]
        monkeypatch.setattr(matrix_core, "_GATHER_FLOATS", 6000)  # one support per chunk
        batches.clear()
        assert rip_constants(A, 6).to_json() == cut
        assert batches == [1] * 1716

    def test_spark_of_a_tall_matrix(self):
        rng = np.random.default_rng(95)
        A = plant_dependency(gaussian_matrix(600, 13, 96), 6, rng)
        assert len(list(column_subsets(13, 6, 600 * 6))) > 1
        assert_matches_reference(A)


def scaled(A):
    """A times the power of two that the screen applies."""
    return np.ldexp(A, -np.frexp(np.abs(A).max())[1])


@pytest.fixture(params=["recursion", "square"])
def route(request, monkeypatch):
    """Force the screen onto one route: the recursion from level 1, then the
    floor test, or the floor test alone on every t-subset."""
    base = (lambda n, t: 1) if request.param == "recursion" else (lambda n, t: t)
    monkeypatch.setattr(sensing_properties, "_base_level", base)
    return request.param


def cleared_mask(A):
    """Which probe subsets of A (t x n, t <= n) the screen clears."""
    t, n = A.shape
    subs = np.array(list(combinations(range(n), t)), dtype=np.intp)
    sent = {tuple(sorted(int(j) for j in row))
            for c in sensing_properties._uncleared(A) for row in c}
    return subs, np.array([tuple(int(j) for j in row) not in sent for row in subs])


class TestDeterminantScreen:
    """The screen may clear a square subset only when the SVD test would pass it."""

    @pytest.mark.parametrize("m", [2, 4, 6, 7])
    @pytest.mark.parametrize("side", [1.0 - 1e-3, 1.0 + 1e-3])
    def test_ratio_at_the_cutoff(self, m, side, route):
        rng = np.random.default_rng(m)
        s = np.linspace(1.0, 0.2, m)
        s[-1] = RANK_TOL * side
        B = with_singular_values(s, rng)
        assert not cleared_mask(B)[1][0]
        svd = np.linalg.svd(B, compute_uv=False)
        assert (svd[-1] <= RANK_TOL * svd[0]) == (side < 1.0)
        for A in (B, np.hstack([B, gaussian_matrix(m, m, m)])):
            assert_matches_reference(A)
        assert spark(B).spark == (m if side < 1.0 else m + 1)

    def test_cleared_subsets_are_far_from_the_cutoff(self, route):
        # ratios from far below RANK_TOL to well above the clearing floor
        rng = np.random.default_rng(7)
        cleared_any = False
        for ratio in np.logspace(-12, -1, 45):
            for m in (3, 6, 8):
                s = np.sort(rng.uniform(0.3, 1.0, size=m))[::-1]
                s[-1] = ratio * s[0]
                A = np.hstack([with_singular_values(s, rng), rng.normal(size=(m, 3))])
                subs, cleared = cleared_mask(A)
                sv = np.linalg.svd(np.moveaxis(A[:, subs], 1, 0), compute_uv=False)
                assert (sv[cleared, -1] > 900 * RANK_TOL * sv[cleared, 0]).all()
                cleared_any |= bool(cleared[0])
                assert_matches_reference(A)
        assert cleared_any

    @pytest.mark.parametrize("t, n", [(1, 4), (2, 5), (3, 6), (4, 7), (5, 7), (6, 8)])
    def test_error_bound_holds_exactly(self, t, n):
        # the recursion against rational determinants: |D - det| <= err, one
        # sign for all subsets
        rng = np.random.default_rng(10 * t + n)
        shapes = [rng.normal(size=(t, n)),
                  rng.integers(-3, 4, size=(t, n)) / 4.0,  # exact cancellations
                  np.round(rng.normal(size=(t, n)) * 2**40) / 2**40 + 1.0,  # nearly equal columns
                  with_singular_values(np.r_[np.ones(t - 1), 1e-9], rng) @ rng.normal(size=(t, n)),
                  rng.normal(size=(t, n)) * 2.0 ** rng.integers(-300, 1, size=(t, 1)),
                  rng.normal(size=(t, n)) * 2.0 ** np.r_[0, [-250] * (t - 1)][:, None],  # underflow
                  rng.normal(size=(t, n)) * 2.0 ** np.r_[0, [-205] * (t - 1)][:, None]]  # subnormal
        for A in shapes:
            M = scaled(A)
            chunks = list(sensing_properties._minors(M))
            subs = np.concatenate([c[0] for c in chunks])
            D, err = (np.concatenate([c[i] for c in chunks]) for i in (1, 2))
            covered = sorted(tuple(sorted(S)) for S in subs.tolist())
            assert covered == list(combinations(range(n), t))
            dets = [det(M[:, S]) for S in subs.tolist()]
            assert any(all(abs(Fraction(float(x)) - sign * e) <= Fraction(float(b))
                           for x, e, b in zip(D, dets, err)) for sign in (1, -1))

    @pytest.mark.parametrize("ratio", [1e-3, 1.01e-4, 0.99e-4, 1e-6])
    def test_floor_cutoff(self, ratio, route):
        # one 12x12 subset with singular values 1 and 11 times ratio: its
        # determinant, ratio^11, is far below the recursion's 1e-7, so the floor
        # test decides on both routes, clearing it iff lambda_min = ratio^2
        # exceeds d = 1e-8 tr = 1e-8 (1 + 11 ratio^2); the rest reach the SVD
        B = with_singular_values(np.r_[1.0, np.full(11, ratio)], np.random.default_rng(12))
        assert cleared_mask(B)[1][0] == (ratio > 1e-4)
        assert spark(B).spark == 13

    def test_one_row(self):
        # t = 1: the entries themselves; nonzero ones are cleared, zeros reach the SVD
        A = np.array([[0.5, 0.0, -3.0, 0.25, 0.0]])
        assert sorted(j for c in sensing_properties._uncleared(A) for j in c.ravel()) == [1, 4]
        rep = spark(A)
        assert (rep.spark, rep.witness) == (1, [1]) == reference_spark(A)

    def test_scaled_by_powers_of_two_inside_the_safe_range(self, route):
        rng = np.random.default_rng(3)
        A = rng.uniform(0.5, 1.0, size=(5, 9)) * rng.choice([-1.0, 1.0], size=(5, 9))
        A[2, 4] = 0.0
        A[:, 8] = -2.0 * A[:, 0]  # some dependent probe subsets
        base = [c.tolist() for c in sensing_properties._uncleared(A)]
        assert base
        for scale in (2.0**-399, 2.0**399):
            assert matrix_core.in_safe_range(scale * A)
            assert [c.tolist() for c in sensing_properties._uncleared(scale * A)] == base
            assert_matches_reference(scale * A)

    def test_screen_skipped_outside_safe_range(self, monkeypatch):
        def no_screen(M):
            raise AssertionError("screened outside the safe range")

        monkeypatch.setattr(sensing_properties, "_uncleared", no_screen)
        for scale in (2.0**-420, 2.0**420):
            assert not matrix_core.in_safe_range(scale * np.eye(3))
            assert_matches_reference(scale * gaussian_matrix(3, 6, 1))
        assert_matches_reference(np.zeros((2, 2)))

    def test_base_level_is_an_end_on_every_admitted_shape(self):
        # the cheapest start over all levels 1..t, counting entries read, is
        # level 1 or level t wherever the guard admits a square probe
        worst, limit = sensing_properties._spark_worst_case, sensing_properties.MAX_SPARK_SUBSETS
        for t in range(2, 20):
            n = t
            while worst(n, t) <= limit:
                def cost(b):
                    return b * b * math.comb(n, b) + sum(r * math.comb(n, r)
                                                         for r in range(b + 1, t + 1))
                best = min(range(1, t + 1), key=cost)
                assert best in (1, t)
                assert cost(sensing_properties._base_level(n, t)) == cost(best)
                n += 1
        for m, n in ((10, 20), (11, 20), (9, 21), (8, 22), (2, 1000), (5, 10), (6, 12), (7, 12),
                     (6, 13), (7, 13), (6, 14), (7, 14), (8, 14)):
            assert sensing_properties._base_level(n, m) == 1
        for m, n in ((19, 19), (17, 19), (14, 18), (12, 16), (15, 16)):
            assert sensing_properties._base_level(n, m) == m


#: near-square shapes of tools/brute_matrix.py whose upward scan fits the suite, and 13x17
FLOOR_SHAPES = [(10, 14), (12, 16), (13, 17), (15, 16)]


def ill_conditioned(m, cond, rng):
    """An m x m left factor with condition number ``cond``."""
    return with_singular_values(np.logspace(0.0, -np.log10(cond), m), rng)


class TestFloorStageAnswers:
    """The floor test changes no answer on the inputs it sees: near-square
    probes, planted dependencies and ill-conditioned left factors."""

    @pytest.mark.parametrize("m, n", FLOOR_SHAPES)
    def test_near_square_gaussians(self, m, n):
        assert_matches_reference(gaussian_matrix(m, n, 100 + m))

    @pytest.mark.parametrize("m, n, level", [(m, n, 3) for m, n in FLOOR_SHAPES]
                             + [(10, 14, 10), (6, 12, 3), (6, 12, 6)])
    def test_planted_at_level_3_and_t(self, m, n, level):
        A = plant_dependency(gaussian_matrix(m, n, 200 + m), level, np.random.default_rng(level))
        assert_matches_reference(A)
        assert spark(A).spark <= level

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("m, n", [(6, 12), (7, 12), (10, 14)])
    def test_left_factors(self, m, n, cond):
        rng = np.random.default_rng(int(np.log10(cond)) + m)
        A = gaussian_matrix(m, n, 300 + m)
        assert_matches_reference(ill_conditioned(m, cond, rng) @ A)

    @pytest.mark.parametrize("m, n", [(14, 18), (17, 19), (19, 19)])
    def test_large_near_square_probes(self, m, n):
        # too slow for the upward scan: every probe subset the screen clears
        # passes the SVD test far above the cutoff
        rng = np.random.default_rng(n)
        A = gaussian_matrix(m, n, 100 + m)
        for cond in (1.0, 1e2, 1e4, 1e6):
            B = ill_conditioned(m, cond, rng) @ A
            subs, cleared = cleared_mask(B)
            sv = np.linalg.svd(np.moveaxis(B[:, subs], 1, 0), compute_uv=False)
            assert (sv[cleared, -1] > 9.9e-5 * sv[cleared, 0]).all()
        assert spark(A).spark == m + 1

    def test_brute_left_factor_count(self, tmp_path):
        # the seed-0 7x12 group's M_I A6 (cond(M_I) = 88): the floor test leaves
        # 11 of its 924 probe subsets for the SVD, where the recursion alone left 272
        from perfbench.workloads import BruteCertify

        inst = BruteCertify(0, tmp_path).groups[2]
        assert inst.A.shape == (7, 12)
        B = inst.M_I @ inst.A6
        assert sum(len(c) for c in sensing_properties._uncleared(B)) == 11
        assert_matches_reference(B)


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
        # the limit is on subsets visited, not on columns: 2x30 is 900 subsets
        rep = spark(np.ones((2, 30)))
        assert (rep.spark, rep.witness) == (2, [0, 1])
        for shape in ((10, 21), (12, 24), (20, 20)):
            with pytest.raises(GuardError):
                spark(np.zeros(shape))

    def test_guard_admits_benchmark_shapes_and_10x20(self):
        worst = sensing_properties._spark_worst_case
        assert worst(20, 10) == 801_421
        assert worst(21, 10) == 1_401_291
        for m, n in ((10, 20), (5, 10), (6, 12), (7, 12), (6, 13), (7, 13), (6, 14), (7, 14),
                     (8, 14)):
            assert worst(n, min(m, n)) <= sensing_properties.MAX_SPARK_SUBSETS

    def test_guard_keeps_the_screen_below_t_20(self):
        # the screen's rounding bounds (the recursion's underflow term
        # t! 2^-1072, the floor test's rho > 9.9e-5) are derived for t <= 19
        admitted = [min(m, n) for m in range(1, 41) for n in range(1, 41)
                    if sensing_properties._spark_worst_case(n, min(m, n))
                    <= sensing_properties.MAX_SPARK_SUBSETS]
        assert max(admitted) == 19

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


BRUTE_SHAPES = ((5, 10), (6, 12), (7, 12), (6, 13), (7, 13), (6, 14), (7, 14), (8, 14))


@pytest.fixture
def eigvalsh_rows(monkeypatch):
    """The number of matrices each ``eigvalsh`` call receives, in order."""
    rows = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        rows.append(a.shape[0])
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return rows


class TestRipScreen:
    """The screen sends to ``eigvalsh`` only what can set alpha or beta, so
    every report and error equals the reference's, bit for bit."""

    @pytest.mark.parametrize("seed", range(2))
    def test_brute_shapes_at_every_order(self, seed):
        rng = np.random.default_rng(300 + seed)
        for m, n in BRUTE_SHAPES:
            A = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
            for k in range(1, 7):
                assert rip_answer(A, k) == reference_rip(A, k), (m, n, k)

    def test_screen_clears_most_supports(self, eigvalsh_rows):
        rng = np.random.default_rng(7)
        supports = 0
        for m, n in BRUTE_SHAPES:
            rip_constants(rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n)), 4)
            supports += math.comb(n, 4)
        assert sum(eigvalsh_rows) < supports / 4

    def test_level_of_more_than_one_chunk(self):
        A = gaussian_matrix(6, 20, 4)
        assert len(list(column_subsets(20, 4, 24))) == 2  # 4,096 + 749 supports
        assert rip_answer(A, 4) == reference_rip(A, 4)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_tied_supports(self, k):
        Q, _ = np.linalg.qr(np.random.default_rng(k).normal(size=(30, 30)))
        for A in (np.eye(30), Q):  # every eigenvalue is 1, exactly or to rounding
            assert rip_answer(A, k) == reference_rip(A, k)

    @pytest.mark.parametrize("plant", ["duplicate", "zero"])
    def test_dependent_column(self, plant):
        A = gaussian_matrix(8, 14, 2)
        A[:, 9] = A[:, 4] if plant == "duplicate" else 0.0  # zero: alpha is exactly 0.0
        for k in (2, 3, 4):
            answer = rip_answer(A, k)
            assert answer.startswith(f"RIP of order {k} fails") and answer == reference_rip(A, k)

    def test_routing_boundary(self):
        screens = sensing_properties._rip_screens
        assert not screens(276, 2) and screens(300, 2)
        assert not screens(99, 3) and screens(100, 3) and not screens(99, 12)
        assert screens(1820, 12) and not screens(560, 13) and not screens(4096, 1)
        for A, k in ((gaussian_matrix(5, 24, 1), 2), (gaussian_matrix(5, 25, 1), 2),
                     (gaussian_matrix(6, 9, 2), 3), (gaussian_matrix(6, 10, 2), 3),
                     (gaussian_matrix(14, 16, 3), 12), (gaussian_matrix(14, 16, 3), 13)):
            assert rip_answer(A, k) == reference_rip(A, k)

    @staticmethod
    def diagonal_grams(lows):
        """(M, M'M, supports) for M'M = diag(1, 3, 2, lows) up to the lows'
        roundings: support {0, 1} is diag(1, 3), which sets beta, and {i, 2}
        is diag(low, 2) for each low."""
        p = len(lows)
        M = np.zeros((6 + p, 3 + p))
        M[0, 0], M[1:4, 1], M[4:6, 2] = 1.0, 1.0, 1.0  # squared norms 1, 3 and 2, exactly
        M[6 + np.arange(p), 3 + np.arange(p)] = np.sqrt(lows)
        subs = np.array([[0, 1]] + [[3 + i, 2] for i in range(p)])
        return M, M.T @ M, subs

    def test_supports_within_the_slack_reach_eigvalsh(self, eigvalsh_rows):
        # lambda_min 1 + i 1e-12 lies within the slack d = 1e-8 (tr G + 2 beta)
        # of alpha = 1, so no support may be cleared on the alpha side
        M, G, subs = self.diagonal_grams(1.0 + 1e-12 * np.arange(1, 300))
        assert sensing_properties._screened_extremes(M, G, subs, np.inf, -np.inf) == (1.0, 3.0)
        assert len(eigvalsh_rows) == 2 and sum(eigvalsh_rows) >= 300  # seeds may repeat

    def test_supports_beyond_the_slack_are_cleared(self, eigvalsh_rows):
        M, G, subs = self.diagonal_grams(1.0 + 1e-6 * np.arange(1, 300))
        assert sensing_properties._screened_extremes(M, G, subs, np.inf, -np.inf) == (1.0, 3.0)
        assert sum(eigvalsh_rows) == 16  # 8 seeds a side


class TestRipScaling:
    """alpha and beta scale with the square of a power-of-two factor, and
    constants outside float64's normal range raise a clean error."""

    @pytest.mark.parametrize("p", [300, -300, 505, -505])
    def test_powers_of_two(self, p):
        A = gaussian_matrix(6, 12, 11)
        rep, big = rip_constants(A, 4), rip_constants(np.ldexp(A, p), 4)
        assert big.alpha == pytest.approx(math.ldexp(rep.alpha, 2 * p), rel=1e-12)
        assert big.beta == pytest.approx(math.ldexp(rep.beta, 2 * p), rel=1e-12)
        assert big.lam == pytest.approx(math.ldexp(rep.lam, -p), rel=1e-12)
        assert big.delta == pytest.approx(rep.delta, rel=1e-12)

    @pytest.mark.parametrize("p", [600, -600])
    def test_outside_the_normal_range(self, p):
        A = gaussian_matrix(6, 12, 11)
        with pytest.raises(RipRangeError, match=r"outside float64's range.*scaled by 2\^"):
            rip_constants(np.ldexp(A, p), 4)
        A[:, 7] = A[:, 2]  # the verdict does not depend on the scale
        with pytest.raises(RipOrderError, match=r"scaled by 2\^"):
            rip_constants(np.ldexp(A, p), 2)

    def test_order_one_near_overflow(self):
        with pytest.raises(RipRangeError, match="outside float64's range"):
            rip_constants(1e300 * gaussian_matrix(3, 5, 2), 1)

    def test_unscaled_range(self):
        # largest entries in [2^-500, 2^500) keep the unscaled path; a zero matrix too
        for top, scale in ((2.0**-500, 0), (math.ldexp(1.0 - 2.0**-53, 500), 0), (0.0, 0),
                           (2.0**500, -501), (2.0**-501, 500), (1.0, -1)):
            M = np.array([[top, -0.5 * top]])
            keep = 0 if top == 1.0 else matrix_core._RIP_EXPONENT  # keep 0: always to [1/2, 1)
            assert matrix_core._unit_exponent(M, keep) == scale, top


def outcome(call, *args):
    """None, or the class and message of the error ``call(*args)`` raises."""
    try:
        call(*args)
    except (GuardError, RipOrderError, RipRangeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def reference_invariance(A, k, M_I, M_D):
    """``check_invariance_rip_order`` by three ``rip_constants`` calls."""
    rip_constants(A, k)
    try:
        rip_constants(M_I @ A, k)
        rip_constants(A @ M_D, k)
    except RipOrderError:
        return False
    return True


@pytest.fixture
def fallbacks(monkeypatch):
    """The orders of the ``rip_constants`` calls made by the gate."""
    calls = []
    rip = sensing_properties.rip_constants

    def counting(A, k):
        calls.append(k)
        return rip(A, k)

    monkeypatch.setattr(sensing_properties, "rip_constants", counting)
    return calls


def gate_matrix(low, tiny):
    """8 x 12: ten unit Gaussian columns in rows 0-5, and columns 10 and 11 of
    squared norm ``tiny`` in rows 6 and 7, whose 2 x 2 Gram has smallest
    eigenvalue ``low``; every other support of order 2 is far from singular."""
    A = np.zeros((8, 12))
    B = gaussian_matrix(6, 10, 5)
    A[:6, :10] = B / np.linalg.norm(B, axis=0)
    c = 1.0 - low / tiny
    A[6, 10], A[6:, 11] = 1.0, (c, math.sqrt(1.0 - c * c))
    A[:, 10:] *= math.sqrt(tiny)
    return A


class TestRipGate:
    """``_require_rip_order`` raises exactly what ``rip_constants`` raises, and
    proves only what lies outside its slack."""

    @staticmethod
    def variants(A):
        yield A
        for plant in ("duplicate", "zero", "near"):
            B = A.copy()
            B[:, -1] = {"duplicate": A[:, 1], "zero": 0.0, "near": A[:, 1] * (1.0 + 1e-9)}[plant]
            yield B
        for p in (505, -505, 600, -600):
            yield np.ldexp(A, p)

    @pytest.mark.parametrize("seed", range(2))
    def test_brute_shapes(self, seed):
        rng = np.random.default_rng(500 + seed)
        for m, n in BRUTE_SHAPES:
            A = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
            for k in range(1, 7):
                for B in self.variants(A):
                    expected = outcome(rip_constants, B, k)
                    assert outcome(sensing_properties._require_rip_order, B, k) == expected, (m, n, k)

    def test_fallback_orders_and_guards(self, fallbacks):
        A = gaussian_matrix(14, 16, 3)
        for k in (1, 13, 17):  # k = 13 has 560 supports; 17 > cols
            assert outcome(sensing_properties._require_rip_order, A, k) == outcome(rip_constants, A, k)
        assert outcome(sensing_properties._require_rip_order, gaussian_matrix(3, 40, 1), 6) \
            == outcome(rip_constants, gaussian_matrix(3, 40, 1), 6)
        assert fallbacks == [1, 13, 17, 6]
        assert sensing_properties._require_rip_order(A, 12) is None and fallbacks[4:] == []

    def test_invariance_and_pipeline(self, monkeypatch):
        rng = np.random.default_rng(77)
        M_I, M_D = random_invertible(6, rng), random_permuted_diagonal(12, rng)
        x = random_sparse_signal(12, 2, 78)
        for A in self.variants(gaussian_matrix(6, 12, 79)):
            for k in (1, 2, 3, 4, 13):
                verdicts = []
                for check in (check_invariance_rip_order, reference_invariance):
                    try:
                        verdicts.append(check(A, k, M_I, M_D))
                    except (RipOrderError, RipRangeError, ValueError) as exc:
                        verdicts.append(f"{type(exc).__name__}: {exc}")
                assert verdicts[0] == verdicts[1], k
            pipeline = []
            for gate in (sensing_properties._require_rip_order, rip_constants):
                monkeypatch.setattr(recovery, "_require_rip_order", gate)
                try:
                    with np.errstate(all="ignore"):
                        out = recovery.recover_via_linearization(A, sign_map(6), "pre", x, "l0")
                    pipeline.append(out.report.to_json())
                except (RipOrderError, RipRangeError) as exc:
                    pipeline.append(str(exc))
            assert pipeline[0] == pipeline[1]

    @pytest.mark.parametrize("low, tiny, route", [
        (1e-6, 1.0, "proved"),
        (1e-8, 1.0, "fallback"),  # between tau = 2e-10 and tau + d = 2e-8: within the slack d
        (1e-10, 1e-6, "fallback"),  # below tau, while d = 2e-14: RipOrderError
    ])
    def test_slack(self, low, tiny, route, fallbacks):
        A = gate_matrix(low, tiny)
        assert outcome(sensing_properties._require_rip_order, A, 2) == outcome(rip_constants, A, 2)
        assert ("fallback" if fallbacks else "proved") == route

    @pytest.mark.parametrize("above, route", [(1.0005, "fallback"), (1.002, "proved")])
    def test_beta_hi_margin(self, above, route, fallbacks):
        # alpha just above 1e-10 times the two largest diagonal entries: inside
        # beta_hi's 0.1 % margin it is left to rip_constants, which returns; the
        # slack d of the tiny pair, 2e-15, is far inside that margin
        tiny = 1e-7
        A = gate_matrix(1e-10, tiny)
        top = float(np.sort(np.diag(A.T @ A))[-2:].sum())
        A = gate_matrix(above * 1e-10 * top, tiny)
        assert sensing_properties._require_rip_order(A, 2) is None
        assert ("fallback" if fallbacks else "proved") == route
        rep = rip_constants(A, 2)
        assert 1e-10 * rep.beta < rep.alpha < 1.01e-10 * top


class TestRipFullOrder:
    """At order k = cols the constants are the extreme eigenvalues of A^T A."""

    def test_identity(self):
        rep = rip_constants(np.eye(4), 4)
        assert (rep.alpha, rep.beta, rep.delta) == (1.0, 1.0, 0.0)

    def test_diagonal(self):
        rep = rip_constants(np.diag([1.0, 2.0]), 2)
        assert rep.alpha == pytest.approx(1.0) and rep.beta == pytest.approx(4.0)

    def test_two_by_two(self):
        # A^T A = [[2, 1], [1, 2]], eigenvalues 1 and 3
        A = np.linalg.cholesky(np.array([[2.0, 1.0], [1.0, 2.0]])).T
        rep = rip_constants(A, 2)
        assert rep.alpha == pytest.approx(1.0, abs=1e-12)
        assert rep.beta == pytest.approx(3.0, abs=1e-12)

    def test_tridiagonal_closed_form_64(self):
        # D^T D is the second-difference matrix: eigenvalues 2 - 2 cos(j*pi/(n+1))
        n = 64
        D = np.eye(n + 1, n) - np.eye(n + 1, n, k=-1)
        rep = rip_constants(D, n)
        assert rep.alpha == pytest.approx(2.0 - 2.0 * np.cos(np.pi / (n + 1)), rel=1e-9)
        assert rep.beta == pytest.approx(2.0 - 2.0 * np.cos(n * np.pi / (n + 1)), rel=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_eigenvalues_of_every_support(self, seed):
        G = np.random.default_rng(seed).normal(size=(7, 6))
        for k in (2, 3, 6):
            ev = [np.linalg.eigvalsh(G[:, s].T @ G[:, s])
                  for s in map(list, combinations(range(6), k))]
            rep = rip_constants(G, k)
            assert rep.alpha > 0.0
            assert rep.alpha == pytest.approx(min(e[0] for e in ev), rel=1e-9)
            assert rep.beta == pytest.approx(max(e[-1] for e in ev), rel=1e-9)

    def test_order_above_rows_fails(self):
        # any 4 columns of a 3-row matrix are dependent
        with pytest.raises(RipOrderError):
            rip_constants(gaussian_matrix(3, 5, 0), 4)


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

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_the_stable_sort(self, seed):
        rng = np.random.default_rng(400 + seed)
        for m, n in BRUTE_SHAPES:
            A = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
            for k in (1, 2, 3, n - m, n):
                assert nsp_answer(A, k, 300, seed) == reference_nsp(A, k, 300, seed), (m, n, k)

    def test_tied_magnitudes(self, monkeypatch):
        # samples with few distinct magnitudes, so the top k cuts through ties,
        # and one 3-sparse sample, which fails order 3 and above
        H = np.random.default_rng(41).integers(-3, 4, size=(500, 12)).astype(float)
        H[0] = 0.0
        H[0, [1, 5, 9]] = 2.0
        H /= np.linalg.norm(H, axis=1)[:, None]
        monkeypatch.setattr(sensing_properties, "sample_null_vectors", lambda A, samples, seed: H)
        A = np.zeros((1, 12))
        for k in range(1, 13):
            answer = nsp_answer(A, k, 500, 0)
            assert answer == reference_nsp(A, k, 500, 0), k
            assert isinstance(answer, float) == (k < 3), k

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


def test_guard_message_names_the_bound():
    try:
        spark(np.ones((10, 21)))
    except GuardError as exc:
        assert str(exc) == ("spark enumeration guard exceeded: C(21,10) + C(21,1) + ... + C(21,10)"
                            "=1401291 > max_subsets=1000000")
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
