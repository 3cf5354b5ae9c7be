"""Pointwise linearization: at a single point z, build a matrix Y with
F(z) = Y z, packaged as a verifiable certificate.

Every Y is stored in one O(n) form, a scaled permutation with at most one
replaced column: row i holds vals[i] in column perm[i], and then column q,
when it is set, is replaced by col.  The four constructions:

* type 1, general: the zero matrix with column q, the first nonzero
  coordinate of z, replaced by F(z)/z_q (no column when z = 0 = F(z));
* type 2, invertible: the transposition (r q) with column q replaced, where
  r is the first index with f_r(z) != 0 (r = q when one index has both);
  row r keeps only f_r/z_q, so det(Y) = -f_r/z_q (f_q/z_q when r = q).
  It is the identity when z = 0;
* types 3 and 4, monomial: the order-preserving pairing of the nonzero
  entries of F(z) with the nonzero coordinates of z, and of the zero ones,
  with vals[i] = f_i(z)/z_perm(i) (a free nonzero value on zero pairs).
  Where the zero masks agree (type 3) the pairing is the identity.

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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import RequirementError
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

_FORM = {"json": None}  # the stored form is written to JSON as the dense Y only


@dataclass
class LinearizationCertificate(JsonReport):
    """A matrix Y witnessing F(z) = Yz at the anchor point z.

    type is 1 (general), 2 (invertible), 3 (invertible diagonal) or
    4 (monomial).  Fz records the map value at construction time so the
    certificate can be re-verified without re-evaluating the map.  Y is
    stored as (perm, vals, q, col), the module's form; ``Y`` builds it.
    """

    type: int
    z: np.ndarray
    Fz: np.ndarray
    perm: np.ndarray = field(metadata=_FORM)
    vals: np.ndarray = field(metadata=_FORM)
    q: int | None = field(default=None, metadata=_FORM)
    col: np.ndarray | None = field(default=None, metadata=_FORM)

    @property
    def dim(self) -> int:
        return self.z.shape[0]

    @property
    def Y(self) -> np.ndarray:
        n = self.dim
        Y = np.zeros((n, n))
        Y[np.arange(n), self.perm] = self.vals
        if self.q is not None:
            Y[:, self.q] = self.col
        return Y

    def to_dict(self) -> dict:
        return {**super().to_dict(), "dim": self.dim, "Y": self.Y.ravel().tolist()}


def certificate_errors(cert: LinearizationCertificate) -> list[str]:
    """Independent re-verification of a certificate; empty list means valid.

    Works on the stored form in O(n): perm must be a permutation, and
    ||Y z - Fz||_inf <= 1e-9 (1 + ||Fz||_inf).  Every column of Y except q
    holds one entry, so det(Y) = +-col[r] prod_{i != r} vals[i] with
    perm[r] = q (+-prod(vals) without q).  Types 2-4 need every factor
    nonzero, an exact test that proves invertibility however small an
    entry is; types 3 and 4 may have no replaced column, and type 3 needs
    the identity perm.  A NaN or infinite entry raises ``ValueError``.
    """
    n = cert.dim
    perm, vals, q, col = cert.perm, cert.vals, cert.q, cert.col
    if perm.shape != (n,) or vals.shape != (n,) or (
            q is not None and (np.shape(col) != (n,) or not 0 <= q < n)):
        return [f"perm, vals and col need length {n}, and q must index a column"]
    in_range = perm.dtype.kind in "iu" and perm.min() >= 0 and perm.max() < n
    if not (in_range and np.bincount(perm, minlength=n).all()):
        return [f"perm is not a permutation of 0..{n - 1}"]
    if not (np.isfinite(vals).all() and (q is None or np.isfinite(col).all())):
        raise ValueError("certificate entries must be finite (no NaN/Inf)")
    problems = []
    Yz = vals * cert.z[perm]
    zero = vals == 0.0  # the factors of det(Y)
    if q is not None:
        r = int((perm == q).argmax())
        Yz[r] = 0.0
        Yz += col * cert.z[q]
        zero[r] = col[r] == 0.0
    resid = float(np.abs(Yz - cert.Fz).max())
    bound = CERT_RTOL * (1.0 + float(np.abs(cert.Fz).max()))
    if not resid <= bound:
        problems.append(f"residual {resid:.3e} exceeds bound {bound:.3e}")
    if cert.type in (3, 4) and q is not None:
        problems.append(f"Y has a replaced column but type is {cert.type}")
    if cert.type == 3 and (perm != np.arange(n)).any():
        problems.append("Y has off-diagonal entries but type is 3")
    if cert.type != 1 and zero.any():
        problems.append(f"Y is not invertible (det(Y) has a zero factor) but type is {cert.type}")
    return problems


def _general(p: PointRequirements, free_value: float):
    """Type 1: the zero matrix with column q, the first nonzero coordinate,
    replaced by F(z)/z_q; the zero matrix when z = 0 (and so F(0) = 0)."""
    n = p.z.shape[0]
    q = int(p.z_nz.argmax()) if p.z_nz.any() else None
    return np.arange(n), np.zeros(n), q, None if q is None else p.fz / p.z[q]


def _invertible(p: PointRequirements, free_value: float):
    """Type 2: the transposition (r q) of the first pivots f_r != 0 and
    z_q != 0, with column q replaced; the identity when z = 0 = F(z)."""
    n = p.z.shape[0]
    perm = np.arange(n)
    if not p.z_nz.any():
        return perm, np.ones(n), None, None
    both = p.z_nz & p.f_nz  # one pivot index r = q where f_r != 0 and z_r != 0
    rows, cols = (both, both) if both.any() else (p.f_nz, p.z_nz)
    r, q = int(rows.argmax()), int(cols.argmax())
    perm[[r, q]] = q, r
    col = (p.fz - p.z[perm]) / p.z[q]  # every other row i: z_perm(i) + col_i z_q = f_i
    col[r] = p.fz[r] / p.z[q]
    return perm, np.ones(n), q, col


def _monomial(p: PointRequirements, free_value: float):
    """Types 3 and 4: the order-preserving pairing, ``free_value`` on zero
    pairs; it is the identity where the zero masks agree."""
    perm = np.empty(p.z.shape[0], dtype=np.intp)
    vals = np.full(p.z.shape[0], float(free_value))
    rows, cols = p.f_nz.nonzero()[0], p.z_nz.nonzero()[0]
    perm[rows] = cols
    perm[~p.f_nz] = (~p.z_nz).nonzero()[0]
    vals[rows] = p.fz[rows] / p.z[cols]
    return perm, vals, None, None


#: certificate type -> builder (evaluated point, free value) -> (perm, vals, q, col)
_BUILDERS = {1: _general, 2: _invertible, 3: _monomial, 4: _monomial}


def _certificate(p: PointRequirements, type: int, free_value) -> LinearizationCertificate:
    with np.errstate(over="ignore"):  # an overflow is rejected below, not warned about
        value = free_value(p)
        perm, vals, q, col = _BUILDERS[type](p, value)
    if value == 0.0:
        raise ValueError("free_value must be nonzero")
    if not (np.isfinite(vals).all() and (col is None or np.isfinite(col).all())):
        raise ValueError("certificate overflows at the given point: some f_i(z)/z_j is not finite")
    return LinearizationCertificate(type, p.z.copy(), p.fz, perm, vals, q, col)


def linearize(F: NonlinearMap, z, type: int, *,
              free_value: Callable[[PointRequirements], float] = lambda p: 1.0,
              ) -> LinearizationCertificate:
    """Certificate of the given type (1..4) at z, from one evaluation of F;
    ``RequirementError`` when that type's requirement fails there (for type
    3, naming the first index where exactly one of z_i and f_i(z) is zero),
    ``ValueError`` when some f_i(z)/z_j overflows.  ``free_value`` maps the
    evaluated point to the nonzero value of the free entries of types 3 and
    4 (types 1 and 2 have none)."""
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
