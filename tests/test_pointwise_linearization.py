import numpy as np
import pytest

from nlcs.errors import RequirementError
from nlcs.matrix_core import gaussian_matrix, random_sparse_signal, rank
from nlcs.nonlinear_maps import (
    abs_map,
    custom_map,
    evaluate,
    nonzero_random_map,
    quantize_away_from_zero,
    quantize_floor,
    sign_map,
    sine_map,
    square_map,
)
from nlcs.pointwise_linearization import (
    LinearizationCertificate,
    certificate_errors,
    classify,
    linearize,
    linearize_strongest,
    qualified_type,
)
from nlcs.sensing_properties import spark
from tests.exact import det


def constant_map(fz):
    """Custom map with the value fz at every point."""
    return custom_map([lambda z, v=float(v): v for v in fz])


def assert_valid(cert):
    problems = certificate_errors(cert)
    assert problems == [], problems


class TestLinearizeGeneral:
    def test_square_map_example(self):
        cert = linearize(square_map(2), [2.0, 3.0], 1)
        assert np.allclose(cert.Y, [[2.0, 0.0], [4.5, 0.0]])
        assert_valid(cert)

    def test_zero_point_zero_matrix(self):
        cert = linearize(abs_map(3), np.zeros(3), 1)
        assert np.array_equal(cert.Y, np.zeros((3, 3)))
        assert_valid(cert)

    def test_abs_with_trailing_zero(self):
        cert = linearize(abs_map(2), [-1.0, 0.0], 1)
        assert np.allclose(cert.Y, [[-1.0, 0.0], [0.0, 0.0]])
        assert_valid(cert)

    def test_zero_point_nonzero_image_rejected(self):
        F = custom_map([lambda z: z[0] + 1.0, lambda z: z[1]])
        with pytest.raises(RequirementError):
            linearize(F, np.zeros(2), 1)


class TestLinearizeInvertible:
    def test_pivot_template_pattern(self):
        # F(z) is nonzero only where z is zero, so the pivots are distinct:
        # r = 1 (first nonzero f_i) and q = 3 (first nonzero z_i)
        z = np.array([0.0, 0.0, 0.0, 4.0, 5.0])
        fz = np.array([0.0, 7.0, 8.0, 0.0, 0.0])
        cert = linearize(constant_map(fz), z, 2)
        assert cert.perm.tolist() == [0, 3, 2, 1, 4] and cert.q == 3
        # the transposition (1 3) with column 3 replaced; row 1 keeps only f_1/z_3
        expected_slots = {(0, 0), (1, 3), (2, 2), (2, 3), (3, 1), (4, 3), (4, 4)}
        assert {(i, j) for i, j in zip(*np.nonzero(cert.Y))} == expected_slots
        assert np.array_equal(cert.Y, self.loop_pivots(fz, z, 1, 3))
        assert rank(cert.Y) == 5
        assert_valid(cert)

    @staticmethod
    def loop_pivots(fz, z, p, q):
        """Entry-by-entry form of the pivot construction, the reference."""
        n = z.shape[0]
        Y = np.zeros((n, n))
        if p == q:
            Y[p, p] = fz[p] / z[p]
            for i in range(n):
                if i != p:
                    Y[i, i] = 1.0
                    Y[i, p] = (fz[i] - z[i]) / z[p]
        else:
            Y[p, q] = fz[p] / z[q]
            Y[q, p] = 1.0
            Y[q, q] = (fz[q] - z[p]) / z[q]
            for i in range(n):
                if i not in (p, q):
                    Y[i, i] = 1.0
                    Y[i, q] = (fz[i] - z[i]) / z[q]
        return Y

    @pytest.mark.parametrize("seed", range(20))
    def test_pivots_match_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        z, fz = rng.normal(size=n), rng.normal(size=n)
        z[rng.random(n) < 0.3] = 0.0
        fz[rng.random(n) < 0.3] = 0.0
        k = int(rng.integers(n))
        z[k] = z[k] or 1.5  # requirement 2: z != 0 and F(z) != 0
        if seed % 3 == 0 and n > 1:  # distinct pivots: F(z) nonzero only where z is zero
            j = (k + 1) % n
            z[j] = 0.0
            fz[z != 0.0] = 0.0
            fz[j] = fz[j] or 2.5
        else:
            fz[k] = fz[k] or 2.5
        both = np.flatnonzero((z != 0.0) & (fz != 0.0))
        p, q = (both[0], both[0]) if both.size else (np.flatnonzero(fz)[0], np.flatnonzero(z)[0])
        cert = linearize(constant_map(fz), z, 2)
        want = self.loop_pivots(fz, z, int(p), int(q))
        assert np.array_equal(cert.Y, want)
        assert np.array_equal(np.signbit(cert.Y), np.signbit(want))
        assert_valid(cert)

    def test_distinct_pivots_construction(self):
        # force p != q: image nonzero only where the point is zero
        F = custom_map([lambda z: z[1], lambda z: z[0]])
        cert = linearize(F, [0.0, 5.0], 2)
        assert_valid(cert)
        assert np.allclose(cert.Y @ cert.z, cert.Fz)

    def test_common_pivot_construction(self):
        cert = linearize(square_map(3), [2.0, -1.0, 0.0], 2)
        assert_valid(cert)
        assert cert.Y[0, 0] == pytest.approx(2.0)  # f_0/z_0 = 4/2

    def test_zero_point_identity(self):
        cert = linearize(sign_map(3), np.zeros(3), 2)
        assert np.array_equal(cert.Y, np.eye(3))
        assert_valid(cert)

    @pytest.mark.parametrize("seed", range(25))
    def test_nonzero_random_certificates_full_rank(self, seed):
        F = nonzero_random_map(6, 1234)
        rng = np.random.default_rng(seed)
        z = rng.normal(size=6)
        if seed % 3 == 0:
            z[rng.random(6) < 0.5] = 0.0
        if not z.any():
            z[0] = 1.0
        cert = linearize(F, z, 2)
        assert cert.type == 2
        assert rank(cert.Y) == 6
        assert_valid(cert)

    def test_requirement2_violation(self):
        with pytest.raises(RequirementError):
            linearize(quantize_floor(2, 1.0), [0.5, 0.25], 2)


class TestLinearizeDiagonal:
    def test_abs_example(self):
        cert = linearize(abs_map(3), [1.0, -2.0, 0.0], 3)
        assert np.allclose(cert.Y, np.diag([1.0, -1.0, 1.0]))
        assert_valid(cert)

    def test_sign_example(self):
        cert = linearize(sign_map(2), [2.0, -3.0], 3)
        assert np.allclose(cert.Y, np.diag([0.5, 1.0 / 3.0]))
        assert_valid(cert)

    def test_square_example(self):
        cert = linearize(square_map(2), [2.0, -3.0], 3)
        assert np.allclose(cert.Y, np.diag([2.0, -3.0]))
        assert_valid(cert)

    def test_free_value(self):
        # the free value is a function of the evaluated point
        cert = linearize(abs_map(2), [0.0, 2.0], 3, free_value=lambda p: 3.5 * p.fz[1])
        assert cert.Y[0, 0] == 7.0
        assert_valid(cert)

    def test_zero_free_value_rejected(self):
        with pytest.raises(ValueError):
            linearize(abs_map(2), [0.0, 2.0], 3, free_value=lambda p: 0.0)

    def test_violation_reports_index(self):
        with pytest.raises(RequirementError, match="index 1"):
            linearize(quantize_floor(3, 1.0), [1.5, 0.5, 0.0], 3)


class TestLinearizePermutedDiagonal:
    def test_diagonal_point_reduces_to_identity_pairing(self):
        cert3 = linearize(abs_map(3), [1.0, -2.0, 0.0], 3)
        cert4 = linearize(abs_map(3), [1.0, -2.0, 0.0], 4)
        assert np.array_equal(cert3.Y, cert4.Y)
        assert_valid(cert4)

    def test_reversal_map(self):
        F = custom_map([lambda z: z[1], lambda z: z[0]])
        cert = linearize(F, [1.0, 2.0], 4)
        # the order-preserving pairing gives a valid certificate; verify the
        # defining property directly rather than one particular matrix
        assert_valid(cert)
        assert np.allclose(cert.Y @ np.array([1.0, 2.0]), [2.0, 1.0])

    def test_swap_with_zero(self):
        F = custom_map([lambda z: z[1], lambda z: z[0]])
        cert = linearize(F, [3.0, 0.0], 4)
        # F(3, 0) = (0, 3): zero pair (row 0 -> col 1), nonzero pair (row 1 -> col 0)
        assert np.allclose(cert.Y, [[0.0, 1.0], [1.0, 0.0]])
        assert_valid(cert)

    def test_spec_style_cross_pairing(self):
        # image (0, 5) at point (3, 0): sigma pairs row 1 with column 0
        F = custom_map([lambda z: 0.0, lambda z: 5.0 * np.sign(z[0])])
        cert = linearize(F, [3.0, 0.0], 4)
        assert np.allclose(cert.Y, [[0.0, 1.0], [5.0 / 3.0, 0.0]])
        assert_valid(cert)

    @pytest.mark.parametrize("seed", range(20))
    def test_pairing_matches_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        # scaled permutation: zero counts always match, zero positions move
        F = custom_map([lambda z, i=i: (i - 1.5) * z[(i + 2) % 5] for i in range(5)])
        z = rng.normal(size=5)
        z[rng.choice(5, size=2, replace=False)] = 0.0
        cert = linearize(F, z, 4, free_value=lambda p: 0.75)
        # the entry-by-entry pairing, the reference
        fz, want = cert.Fz, np.zeros((5, 5))
        for i, j in zip(np.flatnonzero(fz != 0.0), np.flatnonzero(z != 0.0)):
            want[i, j] = fz[i] / z[j]
        for i, j in zip(np.flatnonzero(fz == 0.0), np.flatnonzero(z == 0.0)):
            want[i, j] = 0.75
        assert np.array_equal(cert.Y, want)

    def test_count_mismatch_rejected(self):
        with pytest.raises(RequirementError):
            linearize(quantize_floor(2, 1.0), [0.5, 1.5], 4)


class TestDowngradeConsistency:
    @pytest.mark.parametrize("seed", range(10))
    def test_weaker_constructions_succeed_and_are_sound(self, seed):
        rng = np.random.default_rng(seed)
        F = abs_map(5)
        z = rng.normal(size=5)
        z[rng.random(5) < 0.3] = 0.0
        c3 = linearize(F, z, 3)
        c4 = linearize(F, z, 4)
        c2 = linearize(F, z, 2)
        c1 = linearize(F, z, 1)
        for cert in (c3, c4, c2, c1):
            assert_valid(cert)

    def test_strongest_picks_diagonal_for_abs(self):
        cert = linearize_strongest(abs_map(3), [1.0, 0.0, -2.0])
        assert cert.type == 3

    def test_strongest_picks_invertible_for_nonzero_random(self):
        cert = linearize_strongest(nonzero_random_map(3, 5), [1.0, 0.0, -2.0])
        assert cert.type == 2

    def test_strongest_respects_floor(self):
        cert = linearize_strongest(quantize_floor(2, 1.0), [0.5, 0.25])
        assert cert.type == 1

    def test_strongest_rejects_point_without_linearization(self):
        F = custom_map([lambda z: 1.0, lambda z: z[1]])  # F(0) != 0
        with pytest.raises(RequirementError, match="no linearization"):
            linearize_strongest(F, np.zeros(2))


class TestPropertyPreservation:
    def test_left_invertible_certificate_preserves_spark(self):
        A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        cert = linearize(nonzero_random_map(2, 8), [1.5, -0.5], 2)
        assert spark(cert.Y @ A).spark == spark(A).spark == 3

    def test_right_monomial_certificate_preserves_spark(self):
        A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        F = custom_map([lambda z: z[1], lambda z: 2.0 * z[2], lambda z: z[0]])
        cert = linearize(F, [1.0, 2.0, 3.0], 4)
        assert cert.type == 4
        assert spark(A @ cert.Y).spark == spark(A).spark == 3

    @pytest.mark.parametrize("seed", range(5))
    def test_pipeline_style_products(self, seed):
        A = gaussian_matrix(4, 8, seed)
        x = random_sparse_signal(8, 2, seed + 50)
        z = A @ x
        for F in (abs_map(4), sign_map(4)):
            cert = linearize(F, z, 3)
            assert spark(cert.Y @ A).spark == spark(A).spark


class TestLinearize:
    @pytest.mark.parametrize("t", [0, 5])
    def test_rejects_type_outside_range(self, t):
        with pytest.raises(ValueError, match="1..4"):
            linearize(abs_map(2), [1.0, 2.0], t)


class TestCertificateSerialization:
    def test_json_keys_and_roundtrip(self):
        import json

        cert = linearize(abs_map(2), [1.0, -2.0], 3)
        payload = json.loads(cert.to_json())
        assert set(payload) == {"type", "dim", "Y", "z", "Fz"}
        assert payload["dim"] == 2
        Y = np.array(payload["Y"]).reshape(2, 2)
        assert np.array_equal(Y, cert.Y)

    def test_certificate_errors_flags_bad_residual(self):
        cert = LinearizationCertificate(
            type=3, z=np.array([1.0, 1.0]), Fz=np.array([1.0, 1.0]),
            perm=np.arange(2), vals=np.array([2.0, 2.0]),
        )
        assert any("residual" in p for p in certificate_errors(cert))

    def test_certificate_errors_flags_bad_shape(self):
        # Y = [[0, 1], [2, 0]] is monomial, not diagonal
        cert = LinearizationCertificate(
            type=3, z=np.array([2.0, 0.0]), Fz=np.array([0.0, 4.0]),
            perm=np.array([1, 0]), vals=np.array([1.0, 2.0]),
        )
        assert certificate_errors(cert) == ["Y has off-diagonal entries but type is 3"]

    @pytest.mark.parametrize("t", [3, 4])
    def test_monomial_types_reject_a_replaced_column(self, t):
        # Y = [[1, 0.5], [0, 1]]: invertible and exact, but not monomial
        cert = LinearizationCertificate(
            type=t, z=np.array([2.0, 0.0]), Fz=np.array([2.0, 0.0]),
            perm=np.arange(2), vals=np.ones(2), q=1, col=np.array([0.5, 1.0]),
        )
        assert certificate_errors(cert) == [f"Y has a replaced column but type is {t}"]

    @pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1, 3], [-1, 0, 1], [0.0, 1.0, 2.0]])
    def test_perm_must_be_a_permutation(self, perm):
        cert = LinearizationCertificate(
            type=1, z=np.ones(3), Fz=np.ones(3), perm=np.array(perm), vals=np.ones(3),
        )
        assert certificate_errors(cert) == ["perm is not a permutation of 0..2"]

    @pytest.mark.parametrize("q, col", [(3, np.ones(3)), (0, np.ones(2)), (0, None)])
    def test_form_lengths_must_match_the_point(self, q, col):
        cert = LinearizationCertificate(
            type=2, z=np.ones(3), Fz=np.ones(3), perm=np.arange(3), vals=np.ones(3), q=q, col=col,
        )
        assert certificate_errors(cert) == ["perm, vals and col need length 3, and q must index a column"]

    def test_certificate_errors_flags_rank_deficiency(self):
        cert = LinearizationCertificate(
            type=2, z=np.zeros(2), Fz=np.zeros(2), perm=np.arange(2), vals=np.zeros(2),
        )
        assert any("invertible" in p for p in certificate_errors(cert))

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_certificate_errors_rejects_nonfinite_for_every_type(self, t):
        cert = LinearizationCertificate(
            type=t, z=np.array([1.0, 1.0]), Fz=np.array([np.inf, 1.0]),
            perm=np.arange(2), vals=np.array([np.inf, 1.0]),
        )
        with pytest.raises(ValueError, match="finite"):
            certificate_errors(cert)

    @pytest.mark.parametrize("t", [1, 2])
    def test_certificate_errors_rejects_nonfinite_column(self, t):
        cert = LinearizationCertificate(
            type=t, z=np.array([1.0, 1.0]), Fz=np.array([np.nan, 1.0]),
            perm=np.arange(2), vals=np.ones(2), q=0, col=np.array([np.nan, 0.0]),
        )
        with pytest.raises(ValueError, match="finite"):
            certificate_errors(cert)


class TestDeterminantRule:
    """det(Y) = +-col[r] * prod_{i != r} vals[i] with perm[r] = q: types 2-4
    need each factor nonzero, however small."""

    def test_zero_replaced_pivot_rejected(self):
        # Y = [[3, 1], [0, 0]]: the transposition (0 1) with column 0 replaced;
        # every vals entry is 1, and col[r] = 0 at r = 1 is the only zero factor
        form = dict(perm=np.array([1, 0]), vals=np.ones(2), q=0)
        z = np.array([1.0, 2.0])
        bad = LinearizationCertificate(type=2, z=z, Fz=np.array([5.0, 0.0]),
                                       col=np.array([3.0, 0.0]), **form)
        assert certificate_errors(bad) == ["Y is not invertible (det(Y) has a zero factor) but type is 2"]
        good = LinearizationCertificate(type=2, z=z, Fz=np.array([5.0, 2.0]),
                                        col=np.array([3.0, 2.0]), **form)
        assert_valid(good)

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_tiny_factors_pass(self, t):
        n = 4
        perm = np.arange(n) if t == 3 else np.array([2, 0, 3, 1])
        vals = np.full(n, 1e-300)
        q = col = None
        if t == 2:
            q, col = 1, np.full(n, 1e-300)  # r = 3, so col[3] is a factor
        cert = LinearizationCertificate(type=t, z=np.ones(n), Fz=np.zeros(n),
                                        perm=perm, vals=vals, q=q, col=col)
        cert.Fz = cert.Y @ cert.z
        assert np.linalg.det(cert.Y) == 0.0  # the float product underflows
        assert_valid(cert)

    def test_rule_matches_exact_laplace_determinant(self):
        rng = np.random.default_rng(7)
        verdicts = set()
        for _ in range(300):
            n = int(rng.integers(1, 6))
            vals = rng.normal(size=n) * (rng.random(n) < 0.85)
            q = col = None
            if rng.random() < 0.7:
                q, col = int(rng.integers(n)), rng.normal(size=n) * (rng.random(n) < 0.7)
            cert = LinearizationCertificate(type=2, z=rng.normal(size=n), Fz=np.zeros(n),
                                            perm=rng.permutation(n), vals=vals, q=q, col=col)
            Y = cert.Y
            cert.Fz = Y @ cert.z
            exact = det(Y)
            singular = any("invertible" in p for p in certificate_errors(cert))
            assert singular == (exact == 0), (cert, exact)
            verdicts.add(singular)
        assert verdicts == {True, False}


class TestClassify:
    def test_abs_is_diagonal_and_qualifies_both(self):
        for comp in ("pre", "post"):
            rep = classify(abs_map(5), comp, samples=100, seed=0)
            assert rep.best_type == 3
            assert rep.qualifies

    def test_abs_pre_at_six_is_diagonal(self):
        assert classify(abs_map(6), "pre", samples=100, seed=0).best_type == 3

    def test_nonzero_random_is_invertible_pre_only(self):
        pre = classify(nonzero_random_map(5, 3), "pre", samples=100, seed=0)
        post = classify(nonzero_random_map(5, 3), "post", samples=100, seed=0)
        assert pre.best_type == 2 and pre.qualifies
        assert post.best_type == 2 and not post.qualifies

    def test_nonzero_random_pre_at_six_is_invertible_not_diagonal(self):
        # a point with a zero entry maps to a fully nonzero vector: 2 holds, 3 fails
        assert classify(nonzero_random_map(6, 4), "pre", samples=100, seed=0).best_type == 2

    def test_floor_qualifies_for_neither(self):
        for comp in ("pre", "post"):
            rep = classify(quantize_floor(5, 1.0), comp, samples=100, seed=0)
            assert rep.best_type == 1
            assert not rep.qualifies

    def test_floor_pre_at_six_is_neither(self):
        assert classify(quantize_floor(6, 1.0), "pre", samples=100, seed=0).best_type == 1

    def test_sine_open_is_diagonal(self):
        rep = classify(sine_map(5), "post", samples=100, seed=0)
        assert rep.best_type == 3 and rep.qualifies

    def test_quantize_afz_is_diagonal(self):
        rep = classify(quantize_away_from_zero(5, 0.5), "post", samples=100, seed=0)
        assert rep.best_type == 3

    def test_quantize_afz_unit_step_pre_is_diagonal(self):
        assert classify(quantize_away_from_zero(6, 1.0), "pre", samples=100, seed=0).best_type == 3

    @pytest.mark.parametrize(
        "F",
        [abs_map(6), sign_map(6), quantize_away_from_zero(6, 0.5), sine_map(6), square_map(6)],
    )
    def test_type3_family_is_diagonal(self, F):
        assert classify(F, "pre", samples=100, seed=1).best_type == 3

    def test_bad_composition(self):
        with pytest.raises(ValueError):
            classify(abs_map(2), "sideways", samples=10, seed=0)

    def test_json_keys(self):
        import json

        payload = json.loads(classify(abs_map(3), "pre", samples=10, seed=0).to_json())
        assert set(payload) == {"kind", "composition", "best_type", "qualifies", "samples"}


class TestQualifiedType:
    def test_nominal_type_is_the_built_type(self):
        assert qualified_type(abs_map(4), "post") == 3
        assert qualified_type(nonzero_random_map(4, 3), "pre") == 2

    def test_nominal_type_decides_over_samples(self):
        # no sampled point of this map at dim 64 maps to all zeros, so the
        # sampled type is 2; the nominal type 1 is what the pipeline builds
        F = quantize_floor(64, 0.5)
        assert classify(F, "pre", samples=64, seed=0).qualifies
        with pytest.raises(RequirementError, match="does not qualify for pre-composition"):
            qualified_type(F, "pre")

    def test_sampled_type_without_nominal_type(self):
        F = custom_map([lambda z: z[1], lambda z: 2.0 * z[0]])
        assert qualified_type(F, "post") == classify(F, "post", 64, 0).best_type == 4

    def test_bad_composition(self):
        with pytest.raises(ValueError, match="composition"):
            qualified_type(abs_map(2), "sideways")


@pytest.mark.parametrize("seed", range(30))
def test_soundness_across_kinds(seed):
    # every constructed certificate satisfies the residual and shape contracts
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    maps = [
        abs_map(dim),
        sign_map(dim),
        quantize_away_from_zero(dim, 0.5),
        sine_map(dim),
        square_map(dim),
        nonzero_random_map(dim, 77),
    ]
    F = maps[seed % len(maps)]
    z = rng.normal(size=dim)
    if F.kind == "sine":
        z = np.clip(z, -3.0, 3.0)
    if seed % 4 == 1:
        z[rng.random(dim) < 0.4] = 0.0
    cert = linearize_strongest(F, z)
    assert_valid(cert)
    fz = evaluate(F, z)
    assert np.abs(cert.Y @ z - fz).max() <= 1e-9 * (1.0 + np.abs(fz).max())


def counting_map(dim):
    """Swap of the first two coordinates as a custom map, with the number of
    times it has been evaluated (component 0 runs once per evaluation)."""
    count = [0]

    def first(v):
        count[0] += 1
        return v[1]

    components = [first, lambda v: v[0]] + [lambda v, i=i: v[i] for i in range(2, dim)]
    return custom_map(components), count


class TestEvaluationCount:
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_linearize_evaluates_once(self, t):
        F, count = counting_map(4)
        linearize(F, [1.0, 1.0, 0.0, 2.0], t)
        assert count[0] == 1

    @pytest.mark.parametrize("point, strongest", [([1.0, 1.0, 0.0, 2.0], 3),
                                                  ([1.0, 0.0, 0.0, 2.0], 4)])
    def test_linearize_strongest_evaluates_once(self, point, strongest):
        F, count = counting_map(4)
        assert linearize_strongest(F, point).type == strongest
        assert count[0] == 1

    def test_classify_evaluates_each_sample_once(self):
        F, count = counting_map(4)
        rep = classify(F, "post", samples=40, seed=0)
        assert rep.best_type == 4
        assert count[0] == 40
