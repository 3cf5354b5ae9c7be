"""Property tests of the one requirement decision against the four-branch
definition of the requirements, written out here as the reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcs.errors import RequirementError
from nlcs.nonlinear_maps import (
    abs_map,
    check_requirement,
    custom_map,
    evaluate,
    identity_map,
    nonzero_random_map,
    quantize_away_from_zero,
    quantize_floor,
    sign_map,
    sine_map,
    square_map,
)
from nlcs.pointwise_linearization import certificate_errors, linearize_strongest


def reference_holds(F, rtype, z):
    """Requirement ``rtype`` at z, decided branch by branch from the zero masks."""
    v = np.asarray(z, dtype=np.float64)
    fz = evaluate(F, v)
    z_zero, f_zero = np.abs(v) <= F.zero_tol_in, np.abs(fz) <= F.zero_tol_out
    z_is_zero, f_is_zero = bool(z_zero.all()), bool(f_zero.all())
    if rtype == 1:
        return (not z_is_zero) or f_is_zero
    if rtype == 2:
        return z_is_zero == f_is_zero
    if rtype == 3:
        return bool(np.array_equal(z_zero, f_zero))
    return int(z_zero.sum()) == int(f_zero.sum())


def reference_strongest(F, z):
    return next((t for t in (3, 4, 2, 1) if reference_holds(F, t, z)), 0)


def _permutation(dim):
    # F(z)_i = c_i z_{i+1 mod dim}: zero patterns move between coordinates
    return custom_map([lambda v, i=i: (1.5 - i % 2) * v[(i + 1) % dim] for i in range(dim)])


def _offset(dim):
    # F(0) != 0, and a zero output wherever z_0 = 0: every type from 0 to 4 occurs
    return custom_map([lambda v: 1.0 - np.sign(abs(v[0]))]
                      + [lambda v, i=i: v[i] for i in range(1, dim)])


MAKERS = {
    "identity": identity_map,
    "abs": abs_map,
    "sign": sign_map,
    "quantize_afz": lambda d: quantize_away_from_zero(d, 0.5),
    "quantize_floor": lambda d: quantize_floor(d, 0.5),
    "sine": sine_map,
    "sine_closed": lambda d: sine_map(d, open_domain=False),
    "square": square_map,
    "nonzero_random": lambda d: nonzero_random_map(d, 12345),
    "permutation": _permutation,
    "offset": _offset,
}

#: signed zeros, values at and around the zero tolerances (1e-12 in, 1e-24
#: out for the square), quantizer steps and the sine domain's ends
SPECIAL = [0.0, -0.0, 1e-12, -1e-12, 1.0000001e-12, 9.999999e-13, 1e-13, 1e-6,
           0.25, 0.5, -0.5, 0.4999999, 1.0, -1.0, np.pi, -np.pi]


@st.composite
def map_and_point(draw):
    kind = draw(st.sampled_from(sorted(MAKERS)))
    dim = draw(st.integers(1, 6))
    # subnormal entries overflow f_i(z)/z_i: see test_subnormal_entry_overflows
    entry = st.one_of(st.sampled_from(SPECIAL), st.floats(-3.0, 3.0, allow_subnormal=False))
    z = np.array(draw(st.lists(entry, min_size=dim, max_size=dim)), dtype=np.float64)
    if draw(st.booleans()):  # planted zeros
        z[np.array(draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))] = 0.0
    if kind == "sine":  # the open domain excludes +-pi
        z = np.clip(z, -3.0, 3.0)
    return MAKERS[kind](dim), z


RANK_PROBLEM = "Y is not invertible (numerically rank deficient)"

PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=400, deadline=None)


@PROPERTY_SETTINGS
@given(map_and_point())
def test_check_requirement_matches_reference(case):
    F, z = case
    for t in (1, 2, 3, 4):
        res = check_requirement(F, t, z)
        assert res.holds == reference_holds(F, t, z), (F.kind, t, z)
        assert (res.witness is None) == res.holds


@PROPERTY_SETTINGS
@given(map_and_point())
def test_linearize_strongest_matches_reference(case):
    F, z = case
    want = reference_strongest(F, z)
    if want == 0:
        with pytest.raises(RequirementError):
            linearize_strongest(F, z)
        return
    cert = linearize_strongest(F, z)
    assert cert.type == want, (F.kind, z)
    problems = certificate_errors(cert)
    if cert.type == 2 and RANK_PROBLEM in problems:
        # a type-2 Y built from tiny entries can be exactly invertible yet
        # numerically singular: only a condition number above 1e10 is reported
        assert np.linalg.cond(cert.Y) > 1e10, (F.kind, z, cert.Y)
        problems.remove(RANK_PROBLEM)
    assert problems == [], (F.kind, z)


def test_tiny_entry_gives_numerically_singular_certificate():
    # sign(1e-12) = 1 makes Y = diag(1, 1e12): a diagonal Y with a nonzero
    # diagonal is exactly invertible, so no numerical rank test rejects it.
    cert = linearize_strongest(sign_map(2), [1.0, 1e-12])
    assert cert.type == 3
    assert certificate_errors(cert) == []


def test_subnormal_entry_overflows():
    # Known fault, kept visible: 0.5 / 1e-310 overflows, so the certificate at
    # a point with a subnormal entry holds inf and cannot be verified.
    with np.errstate(over="ignore"):
        cert = linearize_strongest(quantize_away_from_zero(1, 0.5), [1e-310])
    assert cert.type == 3 and np.isinf(cert.Y).any()
    with pytest.raises(ValueError, match="finite"):
        certificate_errors(cert)
