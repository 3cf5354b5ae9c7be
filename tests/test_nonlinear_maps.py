import numpy as np
import pytest

from nlcs.errors import MapDomainError
from nlcs.nonlinear_maps import (
    abs_map,
    check_requirement,
    check_requirement_sampled,
    custom_map,
    evaluate,
    identity_map,
    map_from_spec,
    nonzero_random_map,
    quantize_away_from_zero,
    quantize_floor,
    sign_map,
    sine_map,
    square_map,
)

ZERO_PRESERVING = [
    identity_map(4),
    abs_map(4),
    sign_map(4),
    quantize_away_from_zero(4, 0.5),
    sine_map(4),
    square_map(4),
    nonzero_random_map(4, 99),
]


class TestEvaluate:
    def test_abs(self):
        assert np.array_equal(evaluate(abs_map(3), [1.0, -2.0, 0.0]), [1.0, 2.0, 0.0])

    def test_sign(self):
        assert np.array_equal(evaluate(sign_map(2), [2.0, -3.0]), [1.0, -1.0])

    def test_sign_of_zero(self):
        assert np.array_equal(evaluate(sign_map(3), [2.0, 0.0, -1.0]), [1.0, 0.0, -1.0])

    def test_quantize_away_from_zero(self):
        F = quantize_away_from_zero(4, 1.0)
        assert np.array_equal(evaluate(F, [0.3, -0.3, 1.0, 0.0]), [1.0, -1.0, 1.0, 0.0])

    def test_quantize_floor(self):
        F = quantize_floor(4, 1.0)
        assert np.array_equal(evaluate(F, [0.5, -0.5, 1.5, 0.0]), [0.0, -1.0, 1.0, 0.0])

    def test_sine(self):
        z = np.array([0.0, np.pi / 2, -np.pi / 2])
        assert np.allclose(evaluate(sine_map(3), z), [0.0, 1.0, -1.0])

    def test_sine_open_domain_rejects_boundary(self):
        with pytest.raises(MapDomainError):
            evaluate(sine_map(2), [np.pi, 0.0])

    def test_sine_closed_domain_accepts_boundary(self):
        out = evaluate(sine_map(2, open_domain=False), [np.pi, 0.0])
        assert abs(out[0]) < 1e-12

    def test_square(self):
        assert np.array_equal(evaluate(square_map(2), [2.0, -3.0]), [4.0, 9.0])

    def test_nonzero_random_zero_to_zero(self):
        F = nonzero_random_map(5, 3)
        assert np.array_equal(evaluate(F, np.zeros(5)), np.zeros(5))

    def test_nonzero_random_all_entries_nonzero(self):
        F = nonzero_random_map(5, 3)
        for seed in range(10):
            z = np.random.default_rng(seed).normal(size=5)
            out = evaluate(F, z)
            assert np.abs(out).min() >= 1e-6

    def test_nonzero_random_deterministic(self):
        F = nonzero_random_map(6, 42)
        z = np.array([1.0, 0.0, -2.0, 3.0, 0.5, -0.25])
        assert evaluate(F, z).tobytes() == evaluate(F, z).tobytes()

    def test_nonzero_random_depends_on_seed_and_input(self):
        z = np.array([1.0, 2.0])
        a = evaluate(nonzero_random_map(2, 1), z)
        b = evaluate(nonzero_random_map(2, 2), z)
        c = evaluate(nonzero_random_map(2, 1), z + 1.0)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_nonzero_random_negative_zero_canonicalized(self):
        F = nonzero_random_map(2, 7)
        a = evaluate(F, np.array([1.0, 0.0]))
        b = evaluate(F, np.array([1.0, -0.0]))
        assert np.array_equal(a, b)

    def test_custom(self):
        F = custom_map([lambda z: z[1], lambda z: z[0]])
        assert np.array_equal(evaluate(F, [1.0, 2.0]), [2.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(abs_map(3), [1.0, 2.0])

    def test_zero_preservation(self):
        for F in ZERO_PRESERVING:
            assert np.array_equal(evaluate(F, np.zeros(F.dim)), np.zeros(F.dim))

    def test_floor_breaks_zero_preservation_only_off_grid(self):
        # floor is still zero at zero; its defect is near-zero inputs
        F = quantize_floor(2, 1.0)
        assert np.array_equal(evaluate(F, np.zeros(2)), np.zeros(2))
        assert np.array_equal(evaluate(F, [0.5, 0.0]), [0.0, 0.0])

    @pytest.mark.parametrize(
        "F",
        [abs_map(5), sign_map(5), quantize_away_from_zero(5, 0.7), square_map(5)],
    )
    def test_elementwise_permutation_equivariance(self, F):
        rng = np.random.default_rng(8)
        z = rng.normal(size=5)
        perm = rng.permutation(5)
        assert np.array_equal(evaluate(F, z)[perm], evaluate(F, z[perm]))


BUILT_IN = [
    ({"kind": "identity"}, identity_map),
    ({"kind": "abs"}, abs_map),
    ({"kind": "sign"}, sign_map),
    ({"kind": "quantize_afz", "step": 0.5}, lambda d: quantize_away_from_zero(d, 0.5)),
    ({"kind": "quantize_floor", "step": 0.25}, lambda d: quantize_floor(d, 0.25)),
    ({"kind": "sine"}, sine_map),
    ({"kind": "square"}, square_map),
    ({"kind": "nonzero_random", "seed": 9}, lambda d: nonzero_random_map(d, 9)),
]


class TestMapFromSpec:
    @pytest.mark.parametrize("spec, factory", BUILT_IN, ids=[s["kind"] for s, _ in BUILT_IN])
    def test_spec_matches_factory(self, spec, factory):
        a, b = map_from_spec(spec, 4), factory(4)
        fields = ("kind", "dim", "step", "seed", "nominal_type", "zero_tol_in", "zero_tol_out")
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            map_from_spec({"kind": "nonzero_random", "seed": seed}, 3)

    @pytest.mark.parametrize("spec", [{"kind": "quantize_afz", "step": [1]},
                                      {"kind": "quantize_floor", "step": None},
                                      {"kind": "nonzero_random", "seed": "5"},
                                      {"kind": ["abs"]}])
    def test_wrongly_typed_values(self, spec):
        with pytest.raises(ValueError):
            map_from_spec(spec, 3)

    def test_kinds(self):
        assert map_from_spec({"kind": "abs"}, 3).kind == "abs"
        assert map_from_spec({"kind": "quantize_afz", "step": 0.5}, 3).step == 0.5
        assert map_from_spec({"kind": "nonzero_random", "seed": 5}, 3).seed == 5

    def test_missing_step(self):
        with pytest.raises(ValueError):
            map_from_spec({"kind": "quantize_floor"}, 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            map_from_spec({"kind": "tanh"}, 3)

    def test_not_a_dict(self):
        with pytest.raises(ValueError):
            map_from_spec("abs", 3)


class TestNonzeroRandomSeed:
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_out_of_range_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            nonzero_random_map(3, seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_range_ends_accepted(self, seed):
        out = evaluate(nonzero_random_map(3, seed), [1.0, 0.0, -1.0])
        assert np.abs(out).min() >= 1e-6


class TestCheckRequirement:
    def test_abs_type3_holds(self):
        assert check_requirement(abs_map(3), 3, [1.0, -2.0, 0.0]).holds

    def test_floor_type3_fails_with_witness(self):
        res = check_requirement(quantize_floor(1, 1.0), 3, [0.5])
        assert not res.holds
        assert np.array_equal(res.witness, [0.5])
        # the witness reproduces the failure
        assert not check_requirement(quantize_floor(1, 1.0), 3, res.witness).holds

    def test_sine_closed_interval_boundary_fails_type3(self):
        F = sine_map(1, open_domain=False)
        res = check_requirement(F, 3, [np.pi])
        assert not res.holds

    def test_sine_open_interval_rejects_boundary(self):
        with pytest.raises(MapDomainError):
            check_requirement(sine_map(1), 3, [np.pi])

    @pytest.mark.parametrize("seed", range(5))
    def test_square_type3_always_holds(self, seed):
        z = np.random.default_rng(seed).normal(size=6)
        z[seed % 6] = 0.0
        assert check_requirement(square_map(6), 3, z).holds

    def test_type1_fails_only_at_zero_with_nonzero_image(self):
        F = custom_map([lambda z: z[0] + 1.0])  # F(0) = 1 != 0
        assert not check_requirement(F, 1, [0.0]).holds
        assert check_requirement(F, 1, [3.0]).holds

    def test_type2_fails_when_nonzero_maps_to_zero(self):
        F = quantize_floor(2, 1.0)
        res = check_requirement(F, 2, [0.5, 0.25])
        assert not res.holds

    def test_type4_counts_zeros(self):
        F = custom_map([lambda z: z[1], lambda z: z[0]])
        assert check_requirement(F, 4, [1.0, 0.0]).holds
        assert check_requirement(F, 4, [1.0, 2.0]).holds

    @pytest.mark.parametrize(
        "F",
        [
            identity_map(5),
            abs_map(5),
            sign_map(5),
            quantize_away_from_zero(5, 0.5),
            quantize_floor(5, 0.5),
            sine_map(5),
            square_map(5),
            nonzero_random_map(5, 11),
        ],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_implication_chain(self, F, seed):
        # diagonal < monomial < invertible < general: 3 => 4 => 2 => 1
        rng = np.random.default_rng(seed)
        z = rng.normal(size=5)
        if F.kind == "sine":
            z = np.clip(z, -3.0, 3.0)
        if seed % 2:
            z[rng.random(5) < 0.4] = 0.0
        holds = {t: check_requirement(F, t, z).holds for t in (1, 2, 3, 4)}
        assert not holds[3] or holds[4]
        assert not holds[4] or holds[2]
        assert not holds[2] or holds[1]

    def test_invalid_type(self):
        with pytest.raises(ValueError):
            check_requirement(abs_map(2), 5, [1.0, 2.0])


class TestCheckRequirementSampled:
    def test_abs_type3_holds_on_samples(self):
        assert check_requirement_sampled(abs_map(6), 3, 100, seed=0).holds

    def test_floor_fails_with_substep_witness(self):
        res = check_requirement_sampled(quantize_floor(6, 1.0), 3, 100, seed=0)
        assert not res.holds
        w = res.witness
        # some entry of the witness must sit in the flattened interval (0, 1)
        assert np.any((w > 0.0) & (w < 1.0))

    def test_quantize_afz_passes_100_samples(self):
        assert check_requirement_sampled(quantize_away_from_zero(6, 1.0), 3, 100, seed=0).holds

    def test_nonzero_random_type2_holds(self):
        assert check_requirement_sampled(nonzero_random_map(6, 4), 2, 100, seed=0).holds

    def test_nonzero_random_type3_fails(self):
        # a point with a zero entry maps to a fully nonzero vector
        res = check_requirement_sampled(nonzero_random_map(6, 4), 3, 100, seed=0)
        assert not res.holds

    @pytest.mark.parametrize(
        "F",
        [abs_map(6), sign_map(6), quantize_away_from_zero(6, 0.5), sine_map(6), square_map(6)],
    )
    def test_type3_family_holds_sampled(self, F):
        assert check_requirement_sampled(F, 3, 100, seed=1).holds

    def test_deterministic(self):
        a = check_requirement_sampled(quantize_floor(6, 1.0), 3, 50, seed=2)
        b = check_requirement_sampled(quantize_floor(6, 1.0), 3, 50, seed=2)
        assert np.array_equal(a.witness, b.witness)
