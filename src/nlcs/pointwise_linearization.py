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

Each construction demands the matching requirement to hold at z (checked,
``RequirementError`` otherwise).  Strength order of the types is
3 > 4 > 2 > 1: a diagonal certificate is also monomial, a monomial one is
invertible, and any of them is a valid general linearization.
``linearize(F, z, type)`` is the one entry point that picks the
construction for a type; the strongest-type search, the recovery pipeline
and the CLI all go through it.

``classify`` reports the strongest type whose requirement holds at sampled
domain points, plus whether the map may replace the nonlinearity in a
composite with a sensing matrix: composing after the matrix needs an
invertible Y (type 2 or stronger), composing before it needs a monomial Y
(type 4 or stronger), so that the effective matrix product keeps the spark,
NSP order and RIP order of the sensing matrix.  ``REQUIRED_TYPE`` holds
that rule for both ``classify`` and the recovery pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RequirementError
from .matrix_core import as_vector, rank
from .nonlinear_maps import (
    NonlinearMap,
    check_requirement,
    check_requirement_sampled,
    evaluate,
)
from .report import JsonReport

__all__ = [
    "LinearizationCertificate",
    "ClassificationReport",
    "TYPE_STRENGTH",
    "REQUIRED_TYPE",
    "linearize",
    "linearize_general",
    "linearize_invertible",
    "linearize_diagonal",
    "linearize_permuted_diagonal",
    "linearize_strongest",
    "certificate_errors",
    "classify",
]

#: strength ranking of linearization types (higher = more structured)
TYPE_STRENGTH = {0: -1, 1: 0, 2: 1, 4: 2, 3: 3}

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


def certificate_errors(cert: LinearizationCertificate, *, rank_tol: float = 1e-10) -> list[str]:
    """Independent re-verification of a certificate; empty list means valid.

    Checks the residual bound ||Y z - Fz||_inf <= 1e-9 (1 + ||Fz||_inf) and
    the per-type shape contract: invertibility (numerical full rank) for
    type >= 2, strictly diagonal with nonzero diagonal for type 3, exactly
    one nonzero per row and column for type 4.
    """
    problems = []
    n = cert.dim
    if cert.Y.shape != (n, n):
        return [f"Y has shape {cert.Y.shape}, expected ({n}, {n})"]
    resid = float(np.abs(cert.Y @ cert.z - cert.Fz).max())
    bound = CERT_RTOL * (1.0 + float(np.abs(cert.Fz).max()))
    if resid > bound:
        problems.append(f"residual {resid:.3e} exceeds bound {bound:.3e}")
    if cert.type >= 2 and rank(cert.Y, rank_tol) < n:
        problems.append("Y is not invertible (numerically rank deficient)")
    if cert.type == 3:
        off = cert.Y - np.diag(np.diag(cert.Y))
        if np.any(off != 0.0):
            problems.append("Y has off-diagonal entries but type is 3")
        if np.any(np.diag(cert.Y) == 0.0):
            problems.append("Y has a zero diagonal entry but type is 3")
    if cert.type == 4:
        nz = cert.Y != 0.0
        if not (np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1)):
            problems.append("Y is not monomial (one nonzero per row and column) but type is 4")
    return problems


def _anchor(F: NonlinearMap, z, rtype: int | None):
    """z, F(z) and their nonzero masks; ``RequirementError`` unless requirement
    ``rtype`` holds at z (None: the caller checks)."""
    v = as_vector(z)
    if rtype is not None and not check_requirement(F, rtype, v).holds:
        raise RequirementError(
            f"map {F.kind!r} violates linearization requirement {rtype} at the given point"
        )
    fz = evaluate(F, v)
    return v, fz, np.abs(v) > F.zero_tol_in, np.abs(fz) > F.zero_tol_out


def linearize_general(F: NonlinearMap, z) -> LinearizationCertificate:
    """Type-1 certificate: every row carried by the first nonzero coordinate."""
    v, fz, z_nz, _ = _anchor(F, z, 1)
    n = v.shape[0]
    Y = np.zeros((n, n))
    nz = np.flatnonzero(z_nz)
    if nz.size:
        q = int(nz[0])
        Y[:, q] = fz / v[q]
    # else z = 0 and F(0) = 0 (requirement 1): the zero matrix works
    return LinearizationCertificate(1, Y, v.copy(), fz)


def _invertible_from_pivots(fz: np.ndarray, z: np.ndarray, p: int, q: int) -> np.ndarray:
    """Invertible Y with fz = Y z given pivots f_p != 0 and z_q != 0."""
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
            if i in (p, q):
                continue
            Y[i, i] = 1.0
            Y[i, q] = (fz[i] - z[i]) / z[q]
    return Y


def linearize_invertible(F: NonlinearMap, z) -> LinearizationCertificate:
    """Type-2 certificate via the two-pivot construction.

    Pivots are deterministic: the smallest index carrying both a nonzero
    map component and a nonzero coordinate when one exists (single-pivot
    variant), otherwise the smallest index with f_p(z) != 0 and the
    smallest with z_q != 0.  Y = identity when z = 0 (and so F(0) = 0).
    """
    v, fz, z_nz, f_nz = _anchor(F, z, 2)
    n = v.shape[0]
    if not z_nz.any():
        return LinearizationCertificate(2, np.eye(n), v.copy(), fz)
    both = np.flatnonzero(z_nz & f_nz)
    if both.size:
        p = q = int(both[0])
    else:
        p = int(np.flatnonzero(f_nz)[0])
        q = int(np.flatnonzero(z_nz)[0])
    Y = _invertible_from_pivots(fz, v, p, q)
    return LinearizationCertificate(2, Y, v.copy(), fz)


def linearize_diagonal(F: NonlinearMap, z, free_value: float = 1.0) -> LinearizationCertificate:
    """Type-3 certificate Y = diag(c), c_i = f_i(z)/z_i on nonzero coordinates.

    ``free_value`` fills the unconstrained diagonal entries (where z_i = 0
    and hence f_i(z) = 0); any nonzero value yields a valid certificate.
    """
    if free_value == 0.0:
        raise ValueError("free_value must be nonzero")
    v, fz, z_nz, f_nz = _anchor(F, z, None)  # checked here, to name the index
    mismatch = np.flatnonzero(z_nz != f_nz)
    if mismatch.size:
        i = int(mismatch[0])
        raise RequirementError(
            f"map {F.kind!r} violates linearization requirement 3 at index {i}: "
            f"z[{i}]={v[i]!r}, f[{i}]={fz[i]!r}"
        )
    c = np.full(v.shape[0], float(free_value))
    c[z_nz] = fz[z_nz] / v[z_nz]
    return LinearizationCertificate(3, np.diag(c), v.copy(), fz)


def linearize_permuted_diagonal(F: NonlinearMap, z, free_value: float = 1.0) -> LinearizationCertificate:
    """Type-4 certificate: monomial Y from order-preserving index pairing.

    Nonzero entries of F(z) are paired in ascending index order with the
    nonzero coordinates of z, and zero entries likewise; each row i then
    holds the single entry f_i(z)/z_sigma(i) (or ``free_value`` on a zero
    pair).  The pairing is O(n log n); no permutation search is needed to
    build one certificate.
    """
    if free_value == 0.0:
        raise ValueError("free_value must be nonzero")
    v, fz, z_nz, f_nz = _anchor(F, z, 4)
    n = v.shape[0]
    Y = np.zeros((n, n))
    for i, j in zip(np.flatnonzero(f_nz), np.flatnonzero(z_nz)):
        Y[i, j] = fz[i] / v[j]
    for i, j in zip(np.flatnonzero(~f_nz), np.flatnonzero(~z_nz)):
        Y[i, j] = float(free_value)
    return LinearizationCertificate(4, Y, v.copy(), fz)


_CONSTRUCTORS = {
    1: linearize_general,
    2: linearize_invertible,
    3: linearize_diagonal,
    4: linearize_permuted_diagonal,
}


def linearize(F: NonlinearMap, z, type: int, *,
              free_value: float = 1.0) -> LinearizationCertificate:
    """Certificate of the given type (1..4) at z; ``RequirementError`` when
    that type's requirement fails there.  ``free_value`` fills the free
    entries of types 3 and 4 and is unused by types 1 and 2."""
    if type not in _CONSTRUCTORS:
        raise ValueError(f"certificate type must be in 1..4, got {type!r}")
    if type in (3, 4):
        return _CONSTRUCTORS[type](F, z, free_value)
    return _CONSTRUCTORS[type](F, z)


def linearize_strongest(F: NonlinearMap, z, *, free_value: float = 1.0,
                        at_least: int = 1) -> LinearizationCertificate:
    """Certificate of the strongest type whose requirement holds at z.

    ``at_least`` rejects (with ``RequirementError``) any point where only
    types weaker than the given one are available.
    """
    v = as_vector(z)
    for t in (3, 4, 2, 1):
        if TYPE_STRENGTH[t] < TYPE_STRENGTH[at_least]:
            break
        if check_requirement(F, t, v).holds:
            return linearize(F, v, t, free_value=free_value)
    raise RequirementError(
        f"map {F.kind!r} admits no linearization of type {at_least} or stronger at the given point"
    )


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


def classify(F: NonlinearMap, composition: str, samples: int, seed: int) -> ClassificationReport:
    """Strongest sampled requirement type, plus composition qualification.

    Applying the map after the sensing matrix ("pre") requires type 2 or
    stronger; applying it before the matrix ("post") requires type 4 or
    stronger (``REQUIRED_TYPE``).
    """
    if composition not in REQUIRED_TYPE:
        raise ValueError(f"composition must be 'pre' or 'post', got {composition!r}")
    best = 0
    for t in (3, 4, 2, 1):
        if check_requirement_sampled(F, t, samples, seed).holds:
            best = t
            break
    qualifies = TYPE_STRENGTH[best] >= TYPE_STRENGTH[REQUIRED_TYPE[composition]]
    return ClassificationReport(F.kind, composition, best, qualifies, samples)
