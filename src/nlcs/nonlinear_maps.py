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

A map can be queried at a point (``check_requirement``), or over sampled
points (``pointwise_linearization.classify``), for the four
pointwise-linearization requirements, numbered by the matrix class the
linearization lives in:

1. some matrix Y with F(z) = Yz exists (needs F(0) = 0 when z = 0);
2. an invertible Y exists (additionally needs F(z) != 0 for z != 0);
3. an invertible diagonal Y exists (f_i(z) = 0 iff z_i = 0 for every i);
4. a permuted invertible diagonal Y exists (zero counts of F(z) and z match).

Requirement 3 implies 4 implies 2 implies 1 at every point, so the strongest
type holding says which of them hold; ``requirement_at`` decides it for
every check and certificate, validating z once and evaluating F once
(``evaluate`` validates, then runs ``_evaluate``).  Equal zero counts of z
and F(z) give type 3 or 4 by one mask compare; unequal ones give 2, 1 or 0.

Zero tests are tolerance-based.  Discrete-valued kinds test outputs
exactly (0.0) and count an input as zero up to the smallest normal float,
so a subnormal z_i, whose quotient f_i(z)/z_i could overflow, is a zero
coordinate there.  Continuous kinds carry separate input/output tolerances
so that e.g. squaring a barely-nonzero entry is not misread as a
requirement violation.
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
    "PointRequirements",
    "TYPE_STRENGTH",
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
    "requirement_at",
    "check_requirement",
    "sample_domain_points",
]

#: zero tolerance of the continuous kinds
_TOL = 1e-12
#: input zero tolerance of the discrete-valued kinds: a subnormal z_i counts as zero
_TINY = float(np.finfo(np.float64).tiny)
#: sampled sine inputs stay strictly inside (-pi, pi)
_SINE_BOUND = np.pi * (1.0 - 1e-9)

#: strength ranking of requirement types, 0 = none holds (higher = more structured)
TYPE_STRENGTH = {0: -1, 1: 0, 2: 1, 4: 2, 3: 3}


def _nonzero_random(F: NonlinearMap, z: np.ndarray) -> np.ndarray:
    if not z.any():
        return np.zeros(F.dim)
    # z + 0.0 folds -0.0 into +0.0 so the value is a function of the numeric input
    bits = (z + 0.0).tobytes()
    digest = hashlib.sha256()
    digest.update(int(F.seed).to_bytes(8, "little"))
    digest.update(bits)
    rng = np.random.default_rng(int.from_bytes(digest.digest()[:8], "little"))
    return nonzero_normals(rng, F.dim)


def _check_sine_domain(F: NonlinearMap, z: np.ndarray) -> None:
    inside = (np.abs(z) < np.pi).all() if F.open_domain else (np.abs(z) <= np.pi).all()
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
    # strongest requirement type at every domain point whose nonzero coordinates are normal floats
    nominal_type: int | None
    zero_tol_in: float
    zero_tol_out: float
    param: str | None = None  # the parameter a spec must give: "step", "seed" or none
    sample: Callable = lambda F, rng: rng.standard_normal(F.dim)  # (F, rng) -> a domain point
    check_domain: Callable | None = None  # (F, z) -> None, or MapDomainError


#: the built-in kinds; discrete-valued kinds use an exact zero test on the output
_KINDS = {
    "identity": _Kind(lambda F, z: z.copy(), 3, _TOL, _TOL),
    "abs": _Kind(lambda F, z: np.abs(z), 3, _TOL, _TOL),
    "sign": _Kind(lambda F, z: np.sign(z), 3, _TINY, 0.0),
    "quantize_afz": _Kind(lambda F, z: np.sign(z) * F.step * np.ceil(np.abs(z) / F.step),
                          3, _TINY, 0.0, "step", _step_scaled_point),
    "quantize_floor": _Kind(lambda F, z: F.step * np.floor(z / F.step),
                            1, _TINY, 0.0, "step", _step_scaled_point),
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
    the constructor (it rejects a non-finite or non-positive step and a
    non-integral seed).  ``nominal_type`` is the strongest requirement type
    holding at every domain point whose nonzero coordinates are normal
    floats (None for custom maps and the closed sine domain); a subnormal
    coordinate can weaken it, e.g. to type 2 for sign.
    """

    def __init__(self, kind, dim, *, step=None, seed=None, components=None, open_domain=True):
        row = _ROWS.get(kind)
        if row is None:
            raise ValueError(f"unknown map kind {kind!r}; expected one of {tuple(_ROWS)}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if step is not None:
            step = float(step)
            if not (step > 0 and np.isfinite(step)):
                raise ValueError(f"step must be finite and positive, got {step}")
        if seed is not None:
            if not 0 <= seed < MAX_SEED:
                raise ValueError(f"seed must be in [0, 2^64), got {seed}")
            if seed != int(seed):
                raise ValueError(f"seed must be an integer, got {seed}")
            seed = int(seed)
        self.kind = kind
        self.dim = int(dim)
        self.step = step
        self.seed = seed
        self.components = components
        self.open_domain = bool(open_domain)
        self.zero_tol_in = row.zero_tol_in
        self.zero_tol_out = row.zero_tol_out
        # the closed sine domain reaches sin(+-pi) = 0: no nominal type there
        self.nominal_type = row.nominal_type if open_domain else None

    def __repr__(self):
        return f"NonlinearMap(kind={self.kind!r}, dim={self.dim})"


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


def custom_map(components) -> NonlinearMap:
    """Map from a table of component functions: component i takes the full
    input vector and returns f_i as one float.  The map has no nominal type
    and uses the continuous kinds' zero tolerances."""
    components = tuple(components)
    if not components:
        raise ValueError("components table must be nonempty")
    return NonlinearMap("custom", len(components), components=components)


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


def evaluate(F: NonlinearMap, z) -> np.ndarray:
    """Apply the map to a point of its domain."""
    return _evaluate(F, as_vector(z))


def _evaluate(F: NonlinearMap, v: np.ndarray) -> np.ndarray:
    """``evaluate`` at a vector that ``as_vector`` has already validated."""
    if v.shape[0] != F.dim:
        raise ValueError(f"dimension mismatch: map has dim {F.dim}, input has dim {v.shape[0]}")
    row = _ROWS[F.kind]
    if row.check_domain is not None:
        row.check_domain(F, v)
    out = row.f(F, v)
    if not np.isfinite(out).all():
        raise ValueError(f"map {F.kind!r} produced non-finite output")
    return out


@dataclass
class RequirementCheck:
    """Outcome of testing one linearization requirement; on failure the
    witness point reproduces it."""

    holds: bool
    witness: np.ndarray | None = None


class PointRequirements(NamedTuple):
    """A point z, F(z), their nonzero masks and the strongest requirement
    type holding at z (0 when none holds)."""

    z: np.ndarray
    fz: np.ndarray
    z_nz: np.ndarray
    f_nz: np.ndarray
    type: int


def requirement_at(F: NonlinearMap, z) -> PointRequirements:
    """Evaluate F once at z and decide which requirements hold there.

    The requirements are nested, so the strongest type holding names all
    of them: 3 for equal zero masks, 4 for equal zero counts, 2 when z and
    F(z) are both zero or both nonzero, 1 when z != 0 or F(z) = 0.
    """
    v = as_vector(z)
    fz = _evaluate(F, v)
    z_nz, f_nz = np.abs(v) > F.zero_tol_in, np.abs(fz) > F.zero_tol_out
    z_count, f_count = np.count_nonzero(z_nz), np.count_nonzero(f_nz)
    if z_count == f_count:
        rtype = 3 if (z_nz == f_nz).all() else 4
    elif z_count and f_count:
        rtype = 2
    else:
        rtype = 1 if z_count else 0
    return PointRequirements(v, fz, z_nz, f_nz, rtype)


def check_requirement(F: NonlinearMap, rtype: int, z) -> RequirementCheck:
    """Test one of the four pointwise-linearization requirements at z."""
    if rtype not in (1, 2, 3, 4):
        raise ValueError(f"requirement type must be in 1..4, got {rtype}")
    at = requirement_at(F, z)
    holds = TYPE_STRENGTH[at.type] >= TYPE_STRENGTH[rtype]
    return RequirementCheck(holds, None if holds else at.z.copy())


def sample_domain_points(F: NonlinearMap, samples: int, seed: int) -> np.ndarray:
    """Deterministic points of F's domain for sampled requirement checks.

    Includes the zero vector and points with planted zero entries; the
    kind's sampler draws the rest (sub-step scales for the quantizers,
    inside (-pi, pi) for the sine).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = seeded_rng(seed)
    pts = np.zeros((samples, F.dim))  # row 0 stays the zero vector
    sample = _ROWS[F.kind].sample
    for i in range(1, samples):
        z = sample(F, rng)
        if i % 3 == 1:
            z[rng.random(F.dim) < 0.5] = 0.0
        pts[i] = z
    return pts

