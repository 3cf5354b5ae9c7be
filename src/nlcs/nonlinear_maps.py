"""Catalog and evaluator of vector-valued nonlinear measurement maps.

Every map F sends R^dim to R^dim through component functions f_i.  The
built-in kinds model common measurement nonlinearities:

* ``identity``        -- f(t) = t (linear baseline)
* ``abs``             -- f(t) = |t| (magnitude measurements)
* ``sign``            -- f(t) = sign(t) in {-1, 0, 1} (1-bit measurements)
* ``quantize_afz``    -- away-from-zero quantizer sign(t)*step*ceil(|t|/step);
                         maps t to 0 only at t = 0
* ``quantize_floor``  -- floor quantizer step*floor(t/step); flattens the
                         whole interval [0, step) to 0
* ``sine``            -- f(t) = sin(t), domain the open interval (-pi, pi)
                         by default so f(t) = 0 only at t = 0
* ``square``          -- f(t) = t^2
* ``nonzero_random``  -- the zero vector at 0, otherwise a seeded random
                         vector with every entry nonzero; a deterministic
                         function of (seed, input bits)
* custom              -- caller-supplied component functions

Everything that depends on the kind -- the component function, the
nominal requirement type, the zero tolerances, the parameter a config spec
must give, the domain check and the domain sampler -- is one row of the
``_KINDS`` table; the factories, ``map_from_spec``, ``evaluate`` and
``sample_domain_points`` all read that row.

A map can be queried, at a point or over sampled points, for the four
pointwise-linearization requirements, numbered by the matrix class the
linearization lives in:

1. some matrix Y with F(z) = Yz exists (needs F(0) = 0 when z = 0);
2. an invertible Y exists (additionally needs F(z) != 0 for z != 0);
3. an invertible diagonal Y exists (f_i(z) = 0 iff z_i = 0 for every i);
4. a permuted invertible diagonal Y exists (zero counts of F(z) and z match).

Requirement 3 implies 4 implies 2 implies 1 at every point.

Zero tests are exact (0.0) for discrete-valued kinds and tolerance-based
for continuous ones; continuous kinds carry separate input/output
tolerances so that e.g. squaring a barely-nonzero entry is not misread as
a requirement violation.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import MapDomainError
from .matrix_core import MAX_SEED, as_vector, nonzero_normals, seeded_rng

__all__ = [
    "NonlinearMap",
    "RequirementCheck",
    "identity_map",
    "abs_map",
    "sign_map",
    "quantize_away_from_zero",
    "quantize_floor",
    "sine_map",
    "square_map",
    "nonzero_random_map",
    "custom_map",
    "map_from_spec",
    "evaluate",
    "check_requirement",
    "check_requirement_sampled",
    "sample_domain_points",
]

#: zero tolerance of the continuous kinds
_TOL = 1e-12
#: sampled sine inputs stay strictly inside (-pi, pi)
_SINE_BOUND = np.pi * (1.0 - 1e-9)


def _nonzero_random(F: NonlinearMap, z: np.ndarray) -> np.ndarray:
    if np.all(z == 0.0):
        return np.zeros(F.dim)
    # fold -0.0 into +0.0 so the value is a function of the numeric input
    bits = np.ascontiguousarray(np.where(z == 0.0, 0.0, z), dtype=np.float64).tobytes()
    digest = hashlib.sha256()
    digest.update(int(F.seed).to_bytes(8, "little"))
    digest.update(bits)
    rng = np.random.default_rng(int.from_bytes(digest.digest()[:8], "little"))
    return nonzero_normals(rng, F.dim)


def _check_sine_domain(F: NonlinearMap, z: np.ndarray) -> None:
    inside = np.all(np.abs(z) < np.pi) if F.open_domain else np.all(np.abs(z) <= np.pi)
    if not inside:
        side = "open" if F.open_domain else "closed"
        raise MapDomainError(
            f"sine input outside the {side} interval (-pi, pi): max |z_i| = {np.abs(z).max()}"
        )


def _step_scaled_point(F: NonlinearMap, rng: np.random.Generator) -> np.ndarray:
    # tied to the step so that sub-step magnitudes occur
    return rng.standard_normal(F.dim) * F.step


class _Kind(NamedTuple):
    """Catalog row: everything about a map that depends on its kind."""

    f: Callable  # (F, z) -> F(z)
    nominal_type: int | None  # strongest requirement type over the whole domain
    zero_tol_in: float
    zero_tol_out: float
    param: str | None = None  # the parameter a spec must give: "step", "seed" or none
    sample: Callable = lambda F, rng: rng.standard_normal(F.dim)  # (F, rng) -> a domain point
    check_domain: Callable | None = None  # (F, z) -> None, or MapDomainError


#: the built-in kinds; discrete-valued kinds use an exact zero test
_KINDS = {
    "identity": _Kind(lambda F, z: z.copy(), 3, _TOL, _TOL),
    "abs": _Kind(lambda F, z: np.abs(z), 3, _TOL, _TOL),
    "sign": _Kind(lambda F, z: np.sign(z), 3, 0.0, 0.0),
    "quantize_afz": _Kind(lambda F, z: np.sign(z) * F.step * np.ceil(np.abs(z) / F.step),
                          3, 0.0, 0.0, "step", _step_scaled_point),
    "quantize_floor": _Kind(lambda F, z: F.step * np.floor(z / F.step),
                            1, 0.0, 0.0, "step", _step_scaled_point),
    "sine": _Kind(lambda F, z: np.sin(z), 3, _TOL, _TOL, check_domain=_check_sine_domain,
                  sample=lambda F, rng: rng.uniform(-_SINE_BOUND, _SINE_BOUND, size=F.dim)),
    # the output scales like the square of the input
    "square": _Kind(lambda F, z: z * z, 3, _TOL, _TOL**2),
    "nonzero_random": _Kind(_nonzero_random, 2, _TOL, _TOL, "seed"),
}

#: every kind a map can have: the built-in ones plus caller-supplied components
_ROWS = {**_KINDS, "custom": _Kind(lambda F, z: np.array([float(f(z)) for f in F.components]),
                                   None, _TOL, _TOL)}


class NonlinearMap:
    """Immutable descriptor of a vector-valued nonlinear map.

    Use the factory functions (``abs_map``, ``sign_map``, ...) rather than
    the constructor.  ``nominal_type`` is the strongest linearization
    requirement the map satisfies over its whole domain (None when unknown,
    e.g. for custom maps without a declared type).
    """

    def __init__(self, kind, dim, *, step=None, seed=None, components=None,
                 open_domain=True, zero_tol_in=None, zero_tol_out=None, nominal_type=None):
        row = _ROWS.get(kind)
        if row is None:
            raise ValueError(f"unknown map kind {kind!r}; expected one of {tuple(_ROWS)}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if step is not None:
            step = float(step)
            if not step > 0:
                raise ValueError(f"step must be positive, got {step}")
        if seed is not None:
            if not 0 <= seed < MAX_SEED:
                raise ValueError(f"seed must be in [0, 2^64), got {seed}")
            seed = int(seed)
        self.kind = kind
        self.dim = int(dim)
        self.step = step
        self.seed = seed
        self.components = components
        self.open_domain = bool(open_domain)
        self.zero_tol_in = float(row.zero_tol_in if zero_tol_in is None else zero_tol_in)
        self.zero_tol_out = float(row.zero_tol_out if zero_tol_out is None else zero_tol_out)
        if nominal_type is None and open_domain:
            # the closed sine domain reaches sin(+-pi) = 0: no nominal type there
            nominal_type = row.nominal_type
        self.nominal_type = nominal_type

    def __repr__(self):
        return f"NonlinearMap(kind={self.kind!r}, dim={self.dim})"

    def __call__(self, z):
        return evaluate(self, z)


def identity_map(dim: int) -> NonlinearMap:
    return NonlinearMap("identity", dim)


def abs_map(dim: int) -> NonlinearMap:
    return NonlinearMap("abs", dim)


def sign_map(dim: int) -> NonlinearMap:
    return NonlinearMap("sign", dim)


def quantize_away_from_zero(dim: int, step: float) -> NonlinearMap:
    return NonlinearMap("quantize_afz", dim, step=step)


def quantize_floor(dim: int, step: float) -> NonlinearMap:
    return NonlinearMap("quantize_floor", dim, step=step)


def sine_map(dim: int, open_domain: bool = True) -> NonlinearMap:
    """Elementwise sine on (-pi, pi).  ``open_domain=False`` widens the
    domain to the closed interval, where sin(+-pi) = 0 breaks requirement 3;
    the variant exists to demonstrate exactly that boundary failure."""
    return NonlinearMap("sine", dim, open_domain=open_domain)


def square_map(dim: int) -> NonlinearMap:
    return NonlinearMap("square", dim)


def nonzero_random_map(dim: int, seed: int) -> NonlinearMap:
    return NonlinearMap("nonzero_random", dim, seed=seed)


def custom_map(components, *, nominal_type=None, zero_tol_in=_TOL,
               zero_tol_out=_TOL) -> NonlinearMap:
    """Map from a table of component functions: component i takes the full
    input vector and returns f_i as one float.  ``nominal_type`` declares
    the strongest requirement type the map satisfies (None when unknown)."""
    components = tuple(components)
    if not components:
        raise ValueError("components table must be nonempty")
    return NonlinearMap("custom", len(components), components=components,
                        nominal_type=nominal_type, zero_tol_in=zero_tol_in,
                        zero_tol_out=zero_tol_out)


def map_from_spec(spec: dict, dim: int) -> NonlinearMap:
    """Build a built-in map from a config entry {"kind": ..., "step": ..., "seed": ...}.

    Only the parameter the kind needs is read; a missing, wrongly typed or
    out-of-range value raises ``ValueError``.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("map spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    row = _KINDS.get(kind) if isinstance(kind, str) else None
    if row is None:
        raise ValueError(f"unknown map kind {kind!r} in spec")
    if row.param is None:
        return NonlinearMap(kind, dim)
    if row.param not in spec:
        raise ValueError(f"map kind {kind!r} requires a {row.param!r} value")
    value = spec[row.param]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"map kind {kind!r} needs a numeric {row.param!r}, got {value!r}")
    return NonlinearMap(kind, dim, **{row.param: value})


def evaluate(F: NonlinearMap, z, *, check_domain: bool = True) -> np.ndarray:
    """Apply the map to a point of its domain."""
    v = as_vector(z)
    if v.shape[0] != F.dim:
        raise ValueError(f"dimension mismatch: map has dim {F.dim}, input has dim {v.shape[0]}")
    row = _ROWS[F.kind]
    if check_domain and row.check_domain is not None:
        row.check_domain(F, v)
    out = row.f(F, v)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"map {F.kind!r} produced non-finite output")
    return out


@dataclass
class RequirementCheck:
    """Outcome of testing one linearization requirement; on failure the
    witness point reproduces it."""

    linearization_type: int
    holds: bool
    witness: np.ndarray | None = None


def _zero_masks(F: NonlinearMap, z: np.ndarray, fz: np.ndarray):
    return np.abs(z) <= F.zero_tol_in, np.abs(fz) <= F.zero_tol_out


def check_requirement(F: NonlinearMap, rtype: int, z) -> RequirementCheck:
    """Test one of the four pointwise-linearization requirements at z."""
    if rtype not in (1, 2, 3, 4):
        raise ValueError(f"requirement type must be in 1..4, got {rtype}")
    v = as_vector(z)
    fz = evaluate(F, v)
    z_zero, f_zero = _zero_masks(F, v, fz)
    z_is_zero = bool(z_zero.all())
    f_is_zero = bool(f_zero.all())
    if rtype == 1:
        holds = (not z_is_zero) or f_is_zero
    elif rtype == 2:
        holds = z_is_zero == f_is_zero
    elif rtype == 3:
        holds = bool(np.array_equal(z_zero, f_zero))
    else:
        holds = int(z_zero.sum()) == int(f_zero.sum())
    return RequirementCheck(rtype, holds, None if holds else v.copy())


def sample_domain_points(F: NonlinearMap, samples: int, seed: int) -> np.ndarray:
    """Deterministic points of F's domain for sampled requirement checks.

    Includes the zero vector and points with planted zero entries; the
    kind's sampler draws the rest (sub-step scales for the quantizers,
    inside (-pi, pi) for the sine).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = seeded_rng(seed)
    pts = np.empty((samples, F.dim))
    sample = _ROWS[F.kind].sample
    for i in range(samples):
        if i == 0:
            pts[i] = 0.0
            continue
        z = sample(F, rng)
        if i % 3 == 1:
            z[rng.random(F.dim) < 0.5] = 0.0
        pts[i] = z
    return pts


def check_requirement_sampled(F: NonlinearMap, rtype: int, samples: int, seed: int) -> RequirementCheck:
    """Evaluate a requirement at sampled domain points; the first failing
    point becomes the witness."""
    for z in sample_domain_points(F, samples, seed):
        res = check_requirement(F, rtype, z)
        if not res.holds:
            return res
    return RequirementCheck(rtype, True, None)
