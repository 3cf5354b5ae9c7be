"""Pointwise linearization: at a single point z, build a matrix Y with
F(z) = Y z, packaged as a verifiable certificate.

Four constructions are provided, ordered here by the structure of Y:

* type 1, general: row i holds the single entry f_i(z)/z_q at the first
  nonzero coordinate q of z (the zero matrix when z = 0 and F(z) = 0);
* type 2, invertible: a two-pivot construction around the first nonzero
  component p of F(z) and the first nonzero coordinate q of z.  Exchanging
  rows p and q and eliminating column q reduces Y to a nonsingular diagonal
  matrix, which is why the construction is always invertible.  When one
  index has both f_p(z) != 0 and z_p != 0 the single-pivot p = q variant is
  used;
* type 3, invertible diagonal: Y = diag(c) with c_i = f_i(z)/z_i on nonzero
  coordinates; entries at z_i = 0 are free (any nonzero value works since
  f_i(z) = 0 there) and default to 1;
* type 4, monomial (permuted invertible diagonal): an order-preserving
  pairing of the nonzero entries of F(z) with the nonzero coordinates of z,
  and likewise of the zero entries, gives a bijection sigma with
  Y[i, sigma(i)] = f_i(z)/z_sigma(i) (or a free nonzero value on zero pairs).

Every construction starts from one ``requirement_at`` decision: F is
evaluated once at z, and the strongest requirement type holding there says
whether the requested type may be built (``RequirementError`` otherwise).
``_certificate`` builds every type and rejects an overflowed Y (some
f_i(z)/z_j beyond the float range) with one error.
Strength order of the types is 3 > 4 > 2 > 1: a diagonal certificate is
also monomial, a monomial one is invertible, and any of them is a valid
general linearization.  ``linearize(F, z, type)`` is the one entry point
that picks the construction for a type, which the recovery pipeline and
the CLI call; ``linearize_strongest`` builds the type that decision found.

``classify`` reports the strongest type whose requirement holds at sampled
domain points, plus whether the map may replace the nonlinearity in a
composite with a sensing matrix: composing after the matrix needs an
invertible Y (type 2 or stronger), composing before it needs a monomial Y
(type 4 or stronger), so that the effective matrix product keeps the spark,
NSP order and RIP order of the sensing matrix.  ``REQUIRED_TYPE`` holds
that rule; ``qualified_type`` applies it to the map's nominal type, else its
sampled type, for both the experiment gate and the recovery pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import RequirementError
from .matrix_core import as_matrix, is_monomial
from .nonlinear_maps import (
    TYPE_STRENGTH,
    NonlinearMap,
    PointRequirements,
    requirement_at,
    sample_domain_points,
)
from .report import JsonReport

__all__ = [
    "LinearizationCertificate",
    "ClassificationReport",
    "REQUIRED_TYPE",
    "linearize",
    "linearize_strongest",
    "certificate_errors",
    "classify",
    "qualified_type",
]

#: weakest type a map needs per composition side: an invertible Y when it acts
#: after the sensing matrix ("pre"), a monomial Y when it acts before it ("post")
REQUIRED_TYPE = {"pre": 2, "post": 4}

#: residual tolerance of a valid certificate: ||Yz - Fz||_inf <= RTOL*(1+||Fz||_inf)
CERT_RTOL = 1e-9


@dataclass
class LinearizationCertificate(JsonReport):
    """A matrix Y witnessing F(z) = Yz at the anchor point z.

    type is 1 (general), 2 (invertible), 3 (invertible diagonal) or
    4 (monomial).  Fz records the map value at construction time so the
    certificate can be re-verified without re-evaluating the map.
    """

    type: int
    Y: np.ndarray
    z: np.ndarray
    Fz: np.ndarray

    @property
    def dim(self) -> int:
        return self.z.shape[0]

    def to_dict(self) -> dict:
        return {**super().to_dict(), "dim": self.dim}


def certificate_errors(cert: LinearizationCertificate) -> list[str]:
    """Independent re-verification of a certificate; empty list means valid.

    Checks the residual bound ||Y z - Fz||_inf <= 1e-9 (1 + ||Fz||_inf) and
    an exact structural rule per type that proves invertibility however
    small an entry is: for type 2, Y - I is zero outside at most two columns
    D and det(Y[D, D]) != 0 (-f_p/z_q, or f_q/z_q when p = q, for the pivot
    construction); type 3 is diagonal with a nonzero diagonal; type 4 is
    monomial.  A Y with a NaN or infinite entry raises ``ValueError``.
    """
    n = cert.dim
    if cert.Y.shape != (n, n):
        return [f"Y has shape {cert.Y.shape}, expected ({n}, {n})"]
    Y = as_matrix(cert.Y)
    problems = []
    resid = float(np.abs(Y @ cert.z - cert.Fz).max())
    bound = CERT_RTOL * (1.0 + float(np.abs(cert.Fz).max()))
    if resid > bound:
        problems.append(f"residual {resid:.3e} exceeds bound {bound:.3e}")
    if cert.type == 2:  # Y - I lives in the columns D, so det(Y) = det(Y[D, D])
        D = np.flatnonzero((Y != np.eye(n)).any(axis=0))
        if D.size > 2:
            problems.append(f"Y differs from the identity in {D.size} columns but type is 2")
        else:
            block = np.eye(2)  # Y[D, D] padded with the identity; its det in exact arithmetic
            block[:D.size, :D.size] = Y[np.ix_(D, D)]
            a, b, c, d = map(Fraction, block.ravel().tolist())
            if a * d == b * c:
                problems.append("Y is not invertible (singular pivot block) but type is 2")
    if cert.type == 3:
        off = Y - np.diag(np.diag(Y))
        if np.any(off != 0.0):
            problems.append("Y has off-diagonal entries but type is 3")
        if np.any(np.diag(Y) == 0.0):
            problems.append("Y has a zero diagonal entry but type is 3")
    if cert.type == 4 and not is_monomial(Y):
        problems.append("Y is not monomial (one nonzero per row and column) but type is 4")
    return problems


def _general(p: PointRequirements, free_value: float) -> np.ndarray:
    """Type 1: every row carried by the first nonzero coordinate."""
    n = p.z.shape[0]
    Y = np.zeros((n, n))
    nz = np.flatnonzero(p.z_nz)
    if nz.size:
        q = int(nz[0])
        Y[:, q] = p.fz / p.z[q]
    # else z = 0 and F(0) = 0 (requirement 1): the zero matrix works
    return Y


def _invertible_from_pivots(fz: np.ndarray, z: np.ndarray, p: int, q: int) -> np.ndarray:
    """Invertible Y with fz = Y z given pivots f_p != 0 and z_q != 0."""
    Y = np.eye(z.shape[0])
    Y[:, q] = (fz - z) / z[q]  # every other row i: z_i + (f_i - z_i) = f_i
    Y[p, p] = 0.0
    Y[p, q] = fz[p] / z[q]
    if p != q:
        Y[q, p] = 1.0
        Y[q, q] = (fz[q] - z[p]) / z[q]
    return Y


def _invertible(p: PointRequirements, free_value: float) -> np.ndarray:
    """Type 2: the pivot construction at the smallest pivot indices, or the
    identity when z = 0 (and so F(0) = 0)."""
    if not p.z_nz.any():
        return np.eye(p.z.shape[0])
    both = np.flatnonzero(p.z_nz & p.f_nz)
    if both.size:
        i = j = int(both[0])
    else:
        i = int(np.flatnonzero(p.f_nz)[0])
        j = int(np.flatnonzero(p.z_nz)[0])
    return _invertible_from_pivots(p.fz, p.z, i, j)


def _diagonal(p: PointRequirements, free_value: float) -> np.ndarray:
    """Type 3: c_i = f_i(z)/z_i on nonzero coordinates, else ``free_value``."""
    c = np.full(p.z.shape[0], float(free_value))
    c[p.z_nz] = p.fz[p.z_nz] / p.z[p.z_nz]
    return np.diag(c)


def _permuted_diagonal(p: PointRequirements, free_value: float) -> np.ndarray:
    """Type 4: the order-preserving pairing, ``free_value`` on zero pairs;
    no permutation search is needed."""
    n = p.z.shape[0]
    Y = np.zeros((n, n))
    rows, cols = np.flatnonzero(p.f_nz), np.flatnonzero(p.z_nz)
    Y[rows, cols] = p.fz[rows] / p.z[cols]
    Y[np.flatnonzero(~p.f_nz), np.flatnonzero(~p.z_nz)] = float(free_value)
    return Y


#: certificate type -> builder (evaluated point, free value) -> Y
_BUILDERS = {1: _general, 2: _invertible, 3: _diagonal, 4: _permuted_diagonal}


def _certificate(p: PointRequirements, type: int, free_value) -> LinearizationCertificate:
    with np.errstate(over="ignore"):  # an overflow is rejected below, not warned about
        value = free_value(p)
        Y = _BUILDERS[type](p, value)
    if value == 0.0:
        raise ValueError("free_value must be nonzero")
    if not np.isfinite(Y).all():
        raise ValueError("certificate overflows at the given point: some f_i(z)/z_j is not finite")
    return LinearizationCertificate(type, Y, p.z.copy(), p.fz)


def linearize(F: NonlinearMap, z, type: int, *,
              free_value: Callable[[PointRequirements], float] = lambda p: 1.0,
              ) -> LinearizationCertificate:
    """Certificate of the given type (1..4) at z, from one evaluation of F;
    ``RequirementError`` when that type's requirement fails there (for type
    3, naming the first index where exactly one of z_i and f_i(z) is zero),
    ``ValueError`` when some f_i(z)/z_j overflows.  Type 2 is the two-pivot
    Y: Y - I is zero outside the pivot columns p and q, and det(Y) = -f_p/z_q
    (f_q/z_q when p = q).  ``free_value`` maps the evaluated point to the
    nonzero value of the free entries of types 3 and 4 (types 1 and 2 have
    none)."""
    if type not in _BUILDERS:
        raise ValueError(f"certificate type must be in 1..4, got {type!r}")
    p = requirement_at(F, z)
    if TYPE_STRENGTH[p.type] < TYPE_STRENGTH[type]:
        where = "at the given point"
        if type == 3:
            i = int(np.flatnonzero(p.z_nz != p.f_nz)[0])
            where = f"at index {i}: z[{i}]={p.z[i]!r}, f[{i}]={p.fz[i]!r}"
        raise RequirementError(f"map {F.kind!r} violates linearization requirement {type} {where}")
    return _certificate(p, type, free_value)


def linearize_strongest(F: NonlinearMap, z) -> LinearizationCertificate:
    """Certificate of the strongest type whose requirement holds at z;
    ``RequirementError`` where none holds."""
    p = requirement_at(F, z)
    if p.type == 0:
        raise RequirementError(
            f"map {F.kind!r} admits no linearization of type 1 or stronger at the given point"
        )
    return _certificate(p, p.type, lambda p: 1.0)


@dataclass
class ClassificationReport(JsonReport):
    """Sampled classification of a map: strongest requirement type holding
    at every sampled point (0 = none), and whether that type qualifies the
    map for the requested composition side."""

    kind: str
    composition: str
    best_type: int
    qualifies: bool
    samples: int


def _required_type(composition: str) -> int:
    if composition not in REQUIRED_TYPE:
        raise ValueError(f"composition must be 'pre' or 'post', got {composition!r}")
    return REQUIRED_TYPE[composition]


def classify(F: NonlinearMap, composition: str, samples: int, seed: int) -> ClassificationReport:
    """Strongest sampled requirement type, plus composition qualification.

    The sample points are drawn once and F is evaluated once at each; the
    best type is the weakest per-point type.  Applying the map after the
    sensing matrix ("pre") requires type 2 or stronger; applying it before
    the matrix ("post") requires type 4 or stronger (``REQUIRED_TYPE``).
    """
    needed = _required_type(composition)
    best = 3
    for z in sample_domain_points(F, samples, seed):
        best = min(best, requirement_at(F, z).type, key=TYPE_STRENGTH.__getitem__)
        if best == 0:
            break
    qualifies = TYPE_STRENGTH[best] >= TYPE_STRENGTH[needed]
    return ClassificationReport(F.kind, composition, best, qualifies, samples)


def qualified_type(F: NonlinearMap, composition: str) -> int:
    """The certificate type the recovery pipeline builds for F: its nominal
    type, or else its sampled type (``classify`` over 64 points, seed 0).

    ``RequirementError`` when that type is weaker than the composition
    needs (``REQUIRED_TYPE``); the experiment gate and the pipeline both
    decide qualification here.
    """
    needed = _required_type(composition)
    target = F.nominal_type
    if target is None:
        target = classify(F, composition, samples=64, seed=0).best_type
    if TYPE_STRENGTH[target] < TYPE_STRENGTH[needed]:
        raise RequirementError(
            f"map {F.kind!r} does not qualify for {composition}-composition "
            f"(no {({2: 'invertible', 4: 'monomial'})[needed]} pointwise linearization)"
        )
    return target
