"""Property tests of the one requirement decision against the four-branch
definition of the requirements, written out here as the reference."""

import math

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
    requirement_at,
    sign_map,
    sine_map,
    square_map,
)
from nlcs.pointwise_linearization import certificate_errors, linearize, linearize_strongest


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


def reference_overflows(F, t, z):
    """Whether some entry of the type-t certificate at z leaves the float
    range, computed entry by entry in Python floats (an overflowing quotient
    is inf there, with no warning)."""
    v = [float(x) for x in z]
    fz = [float(x) for x in evaluate(F, np.asarray(z, dtype=np.float64))]
    zs = [i for i, x in enumerate(v) if abs(x) > F.zero_tol_in]
    fs = [i for i, x in enumerate(fz) if abs(x) > F.zero_tol_out]
    if not zs:
        return False  # no quotient at all
    if t == 1:  # every row over the first nonzero coordinate
        entries = [f / v[zs[0]] for f in fz]
    elif t == 2:  # the pivot rows p, q and the column q of the others
        both = [i for i in zs if i in fs]
        p, q = (both[0], both[0]) if both else (fs[0], zs[0])
        entries = [(fz[i] - v[i]) / v[q] for i in range(len(v)) if i not in (p, q)]
        entries += [fz[p] / v[q]] + ([(fz[q] - v[p]) / v[q]] if p != q else [])
    elif t == 3:
        entries = [fz[i] / v[i] for i in zs]
    else:  # the order-preserving pairing of nonzeros
        entries = [fz[i] / v[j] for i, j in zip(fs, zs)]
    return any(math.isinf(e) for e in entries)


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
#: out for the square), quantizer steps, the sine domain's ends, and
#: subnormal and tiny normal values around where 1/z_i and 0.5/z_i overflow
SPECIAL = [0.0, -0.0, 1e-12, -1e-12, 1.0000001e-12, 9.999999e-13, 1e-13, 1e-6,
           0.25, 0.5, -0.5, 0.4999999, 1.0, -1.0, np.pi, -np.pi,
           5e-324, -1e-310, 2.7e-309, 5.6e-309, 1e-308]


@st.composite
def map_and_point(draw):
    kind = draw(st.sampled_from(sorted(MAKERS)))
    dim = draw(st.integers(1, 6))
    entry = st.one_of(st.sampled_from(SPECIAL), st.floats(-3.0, 3.0))
    z = np.array(draw(st.lists(entry, min_size=dim, max_size=dim)), dtype=np.float64)
    if draw(st.booleans()):  # planted zeros
        z[np.array(draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))] = 0.0
    if kind == "sine":  # the open domain excludes +-pi
        z = np.clip(z, -3.0, 3.0)
    return MAKERS[kind](dim), z


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
    if reference_overflows(F, want, z):
        with pytest.raises(ValueError, match="overflows"):
            linearize_strongest(F, z)
        return
    cert = linearize_strongest(F, z)
    assert cert.type == want, (F.kind, z)
    assert certificate_errors(cert) == [], (F.kind, z)


@PROPERTY_SETTINGS
@given(map_and_point())
def test_every_holding_type_builds_or_reports_overflow(case):
    # valid certificates are never rejected, however tiny an entry, and an
    # overflow is the one documented error for every type
    F, z = case
    for t in (1, 2, 3, 4):
        if not reference_holds(F, t, z):
            continue
        if reference_overflows(F, t, z):
            with pytest.raises(ValueError, match="certificate overflows"):
                linearize(F, z, t)
        else:
            assert certificate_errors(linearize(F, z, t)) == [], (F.kind, t, z)


def test_tiny_entry_gives_exactly_invertible_certificate():
    # sign(1e-12) = 1 makes Y = diag(1, 1e12), and the sine at [0, 1e-9, 1, 0]
    # gives a two-pivot Y with cond(Y) > 1e16: both are exactly invertible,
    # and the structural checks accept them
    cert = linearize_strongest(sign_map(2), [1.0, 1e-12])
    assert cert.type == 3
    assert certificate_errors(cert) == []
    cert = linearize(sine_map(4), [0.0, 1e-9, 1.0, 0.0], 2)
    assert np.linalg.cond(cert.Y) > 1e16
    assert certificate_errors(cert) == []


@pytest.mark.parametrize("F", [sign_map(2), quantize_away_from_zero(2, 0.5)],
                         ids=["sign", "quantize_afz"])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_subnormal_entry_counts_as_zero(F, t):
    # 0.5 / 1e-310 would be beyond the float range, so the subnormal z_0 is a
    # zero coordinate with f_0(z) != 0: types 1 and 2 build, 3 and 4 fail
    z = [1e-310, 1.0]
    assert requirement_at(F, z).type == 2
    if t in (1, 2):
        assert certificate_errors(linearize(F, z, t)) == []
    else:
        with pytest.raises(RequirementError):
            linearize(F, z, t)


def test_subnormal_entry_floor_quantizer_is_diagonal():
    # floor(1e-310 / 0.5) = 0, so the zero masks of z and F(z) agree
    assert linearize_strongest(quantize_floor(2, 0.5), [1e-310, 1.0]).type == 3


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_overflow_is_one_error(t):
    # 1e300 / 1e-10 is beyond the float range: every type reports the same
    # documented error, and no RuntimeWarning is raised on the way
    with pytest.raises(ValueError, match="^certificate overflows at the given point"):
        linearize(quantize_away_from_zero(2, 1e300), [1e-10, 1.0], t)
