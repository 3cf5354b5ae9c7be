"""Exact rational kernels for the tests.

Every float is read as the rational number it represents, so a comparison
made here has no rounding: what the package proves in floating point can be
checked against the truth.
"""

from fractions import Fraction
from itertools import combinations
from operator import mul

import numpy as np


def rationals(A):
    """A matrix (an array or nested lists) as lists of exact ``Fraction`` rows."""
    return [[Fraction(v) for v in row] for row in (A.tolist() if hasattr(A, "tolist") else A)]


def _integers(A):
    """The float matrix A as rows of integers over one common power-of-two
    denominator D: A = rows / D exactly."""
    A = np.asarray(A, dtype=np.float64)
    ratios = [v.as_integer_ratio() for v in A.ravel().tolist()]
    D = max(d for _, d in ratios)
    ints = [n * (D // d) for n, d in ratios]
    k = A.shape[1]
    return [ints[i * k:(i + 1) * k] for i in range(A.shape[0])], D


def gram(M, cols=None):
    """The exact Gram matrix M_S' M_S of the columns ``cols`` of the float
    matrix M (all by default), summed in integers."""
    A = np.asarray(M, dtype=np.float64)
    vecs, D = _integers((A if cols is None else A[:, list(cols)]).T)
    k = len(vecs)
    H = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            H[i][j] = H[j][i] = Fraction(sum(map(mul, vecs[i], vecs[j])), D * D)
    return H


def definite(H, shift=0, strict=True):
    """Is H - shift I positive definite (``strict``) or semidefinite, for a
    symmetric H?  LDL' without pivoting: every pivot must be positive, or,
    when not strict, zero with a zero column below it."""
    A = rationals(H)
    k = len(A)
    for i in range(k):
        A[i][i] -= Fraction(shift)
    for j in range(k):
        p = A[j][j]
        if p < 0 or (p == 0 and (strict or any(A[i][j] for i in range(j + 1, k)))):
            return False
        for i in range(j + 1, k):
            if A[i][j]:
                f = A[i][j] / p
                A[i][j + 1:] = [a - f * b for a, b in zip(A[i][j + 1:], A[j][j + 1:])]
    return True


def solve(G, r):
    """The solution z of G z = r, G nonsingular, by Gauss-Jordan elimination."""
    k = len(r)
    M = [row + [Fraction(r[i])] for i, row in enumerate(rationals(G))]
    for c in range(k):
        p = next(i for i in range(c, k) if M[i][c] != 0)
        M[c], M[p] = M[p], M[c]
        for i in range(k):
            if i != c and M[i][c] != 0:
                f = M[i][c] / M[c][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return [M[i][k] / M[i][i] for i in range(k)]


def det(A):
    """The determinant of a square float matrix by Laplace expansion along its
    last row, recursively, in integers: the minors of the first r rows are
    formed once per column subset, level by level."""
    rows, D = _integers(A)
    n = len(rows)
    minors = {(): 1}
    for r, row in enumerate(rows, 1):
        minors = {S: sum((-row[j] if (r - 1 + p) % 2 else row[j]) * minors[S[:p] + S[p + 1:]]
                         for p, j in enumerate(S) if row[j])
                  for S in combinations(range(n), r)}
    return Fraction(minors[tuple(range(n))], D**n)
