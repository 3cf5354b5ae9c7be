import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlcs.nonlinear_maps as maps
from nlcs.errors import MapDomainError
from nlcs.matrix_core import as_vector, nonzero_normals
from nlcs.nonlinear_maps import (
    _TINY,
    _TOL,
    abs_map,
    check_requirement,
    custom_map,
    evaluate,
    identity_map,
    map_from_spec,
    nonzero_random_map,
    quantize_away_from_zero,
    quantize_floor,
    requirement_at,
    sample_domain_points,
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

    @pytest.mark.parametrize("seed", [3.7, 0.5, 1000.25])
    def test_non_integral_rejected(self, seed):
        with pytest.raises(ValueError, match="integer"):
            nonzero_random_map(4, seed)
        with pytest.raises(ValueError, match="integer"):
            map_from_spec({"kind": "nonzero_random", "seed": seed}, 4)

    def test_integral_float_accepted(self):
        a, b = map_from_spec({"kind": "nonzero_random", "seed": 3.0}, 4), nonzero_random_map(4, 3)
        assert a.seed == 3 and isinstance(a.seed, int)
        assert np.array_equal(evaluate(a, [1.0, 2.0, 0.0, -1.0]), evaluate(b, [1.0, 2.0, 0.0, -1.0]))


class TestStep:
    @pytest.mark.parametrize("step", [float("inf"), float("-inf"), float("nan"), 0.0, -0.5])
    def test_non_finite_or_non_positive_rejected(self, step):
        for factory in (quantize_floor, quantize_away_from_zero):
            with pytest.raises(ValueError, match="step"):
                factory(3, step)
        with pytest.raises(ValueError, match="step"):
            map_from_spec({"kind": "quantize_floor", "step": step}, 3)


class TestCustomMap:
    def test_row_supplies_type_and_tolerances(self):
        F = custom_map([lambda z: z[0], lambda z: z[1]])
        assert F.nominal_type is None
        assert (F.zero_tol_in, F.zero_tol_out) == (1e-12, 1e-12)

    @pytest.mark.parametrize("option", ["nominal_type", "zero_tol_in", "zero_tol_out"])
    def test_removed_options_rejected(self, option):
        with pytest.raises(TypeError):
            custom_map([lambda z: z[0]], **{option: 3})


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


class TestSampledWitness:
    """The first sampled point that breaks a requirement; the sampled
    verdicts themselves are ``classify``'s (test_pointwise_linearization)."""

    @staticmethod
    def witness(F, t=3):
        points = sample_domain_points(F, 100, 0)
        return next((z for z in points if not check_requirement(F, t, z).holds), None)

    def test_floor_fails_with_substep_witness(self):
        # some entry of the witness must sit in the flattened interval (0, 1)
        w = self.witness(quantize_floor(6, 1.0))
        assert np.any((w > 0.0) & (w < 1.0))

    def test_nonzero_random_witness_has_a_zero_entry(self):
        # only a zero input entry can break requirement 3 for this map
        w = self.witness(nonzero_random_map(6, 4))
        assert w is not None and np.any(w == 0.0)

    def test_abs_has_no_witness(self):
        assert self.witness(abs_map(6)) is None

    def test_deterministic(self):
        F = quantize_floor(6, 1.0)
        assert np.array_equal(self.witness(F), self.witness(F))


def reference_type(F, z):
    """The requirement ladder written out: equal zero masks give 3, equal
    zero counts 4, z and F(z) both zero or both nonzero 2, else 1 or 0."""
    v = np.asarray(z, dtype=np.float64)
    fz = evaluate(F, v)
    z_nz, f_nz = np.abs(v) > F.zero_tol_in, np.abs(fz) > F.zero_tol_out
    if np.array_equal(z_nz, f_nz):
        return 3
    if z_nz.sum() == f_nz.sum():
        return 4
    if z_nz.any() == f_nz.any():
        return 2
    return 1 if z_nz.any() else 0


def _shift(dim):
    # F(z)_i = z_{i+1 mod dim}, and 1 in place of z_1 when z_0 = 0: zeros
    # move between coordinates, and F(0) != 0 when dim > 1
    return custom_map([lambda v: v[1 % dim] if v[0] != 0.0 else 1.0]
                      + [lambda v, i=i: v[(i + 1) % dim] for i in range(1, dim)])


DECISION_MAPS = {
    "identity": identity_map,
    "abs": abs_map,
    "sign": sign_map,
    "quantize_afz": lambda d: quantize_away_from_zero(d, 0.5),
    "quantize_floor": lambda d: quantize_floor(d, 0.5),
    "sine": sine_map,
    "sine_closed": lambda d: sine_map(d, open_domain=False),
    "square": square_map,
    "nonzero_random": lambda d: nonzero_random_map(d, 31),
    "custom": _shift,
}

#: signed zeros, the zero tolerances and their float neighbours, subnormals
SPECIAL = [0.0, -0.0, _TOL, -_TOL, np.nextafter(_TOL, 0.0), np.nextafter(_TOL, 1.0),
           _TOL**2, np.nextafter(_TOL**2, 1.0), _TINY, -_TINY, np.nextafter(_TINY, 0.0),
           5e-324, -1e-310, 0.5, -0.25]


@st.composite
def decision_case(draw):
    kind = draw(st.sampled_from(sorted(DECISION_MAPS)))
    dim = draw(st.integers(1, 7))
    entry = st.one_of(st.sampled_from(SPECIAL), st.floats(-3.0, 3.0))
    z = np.array(draw(st.lists(entry, min_size=dim, max_size=dim)), dtype=np.float64)
    planted = np.array(draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
    z[planted] = draw(st.sampled_from([0.0, -0.0]))
    return DECISION_MAPS[kind](dim), z


class TestRequirementDecision:
    """``requirement_at`` decides the type from the two zero counts; the
    reference ladder above compares the masks first."""

    @settings(derandomize=True, database=None, max_examples=600, deadline=None)
    @given(decision_case())
    def test_type_matches_reference_ladder(self, case):
        F, z = case
        assert requirement_at(F, z).type == reference_type(F, z), (F.kind, z)

    @pytest.mark.parametrize("F, z, want", [
        (abs_map(3), [1.0, -0.0, -2.0], 3),
        (_shift(3), [1.0, 0.0, 2.0], 4),
        (quantize_floor(3, 0.5), [0.3, 1.0, -0.0], 2),
        (quantize_floor(2, 0.5), [0.3, 0.0], 1),
        (_shift(3), [-0.0, 0.0, -0.0], 0),
    ], ids=["type3", "type4", "type2", "type1", "type0"])
    def test_each_type(self, F, z, want):
        assert requirement_at(F, z).type == reference_type(F, z) == want

    def test_validates_once(self, monkeypatch):
        calls = []

        def spy(a):
            calls.append(a)
            return as_vector(a)

        monkeypatch.setattr(maps, "as_vector", spy)
        for F in (abs_map(3), sine_map(3), custom_map([lambda v: v[0]] * 3)):
            calls.clear()
            requirement_at(F, [1.0, 0.0, -2.0])
            assert len(calls) == 1, F.kind

    @pytest.mark.parametrize("call", [evaluate, requirement_at], ids=["evaluate", "requirement_at"])
    @pytest.mark.parametrize("F, z, error, message", [
        (abs_map(2), [1.0, np.nan], ValueError, r"^vector entries must be finite \(no NaN/Inf\)$"),
        (abs_map(3), [1.0, 2.0], ValueError, r"^dimension mismatch: map has dim 3, input has dim 2$"),
        (sine_map(2), [3.5, 0.0], MapDomainError,
         r"^sine input outside the open interval \(-pi, pi\): max \|z_i\| = 3\.5$"),
        (custom_map([lambda v: np.inf, lambda v: v[1]]), [1.0, 2.0], ValueError,
         r"^map 'custom' produced non-finite output$"),
    ], ids=["non_finite_input", "dimension", "sine_domain", "non_finite_output"])
    def test_errors(self, call, F, z, error, message):
        with pytest.raises(error, match=message):
            call(F, z)


def reference_nonzero_random(F, z):
    """The nonzero_random value with -0.0 folded by ``np.where``."""
    z = np.asarray(z, dtype=np.float64)
    if np.all(z == 0.0):
        return np.zeros(F.dim)
    bits = np.ascontiguousarray(np.where(z == 0.0, 0.0, z), dtype=np.float64).tobytes()
    digest = hashlib.sha256()
    digest.update(int(F.seed).to_bytes(8, "little"))
    digest.update(bits)
    return nonzero_normals(np.random.default_rng(int.from_bytes(digest.digest()[:8], "little")),
                           F.dim)


class TestNonzeroRandomBits:
    @pytest.mark.parametrize("seed", range(12))
    def test_signed_zero_inputs(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 9))
        z = rng.normal(size=dim)
        z[rng.random(dim) < 0.4] = -0.0
        z[rng.random(dim) < 0.2] = 0.0
        F = nonzero_random_map(dim, int(rng.integers(2**63)))
        assert evaluate(F, z).tobytes() == reference_nonzero_random(F, z).tobytes()

    def test_all_negative_zero_input(self):
        F = nonzero_random_map(5, 8)
        out = evaluate(F, np.full(5, -0.0))
        assert out.tobytes() == reference_nonzero_random(F, np.full(5, -0.0)).tobytes()
        assert out.tobytes() == np.zeros(5).tobytes()

    def test_non_contiguous_view(self):
        z = np.random.default_rng(3).normal(size=12)
        z[[0, 4, 5]] = -0.0
        view = z[::2]
        assert not view.flags.c_contiguous
        F = nonzero_random_map(6, 77)
        assert evaluate(F, view).tobytes() == reference_nonzero_random(F, view).tobytes()
        assert evaluate(F, view).tobytes() == evaluate(F, view.copy()).tobytes()
