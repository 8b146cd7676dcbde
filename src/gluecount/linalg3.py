"""Exact-shape 3x3 real matrix kernels.

A one-sided Jacobi SVD (robust at this size, no external solver), a
rotation-only "signed" variant whose factors stay in SO(3), the adjugate,
and classification of a matrix by the degeneracy pattern of its singular
values.  Matrices are plain float ndarrays of shape (3, 3).

Why Jacobi and not LAPACK: the completion labels at the marked point p
follow the nonnegative-n1 axis in signed-SVD coordinates (rank_one), so
they depend on the column signs of the factors, and LAPACK fixes those
signs differently.  With LAPACK's factors and the same det fix-up,
solve_rank_one lists the other pair first on 989 of 2000 uniform random
matrices, which would swap the pairings (1,2) and (2,1) in every output.
The kernel runs on Python floats, where a 3x3 solve costs less than the
numpy calls it would take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

_JACOBI_SWEEPS = 10
DEFAULT_REL_TOL = 1e-8


class StratumTag(Enum):
    """Degeneracy pattern of the singular values s1 >= s2 >= s3 >= 0.

    Ordered from generic to fully degenerate:
      GENERIC            s1 > s2 > s3 > 0
      SIGMA3_ZERO        s3 = 0, s1 > s2 > 0
      TOP_PAIR_EQUAL     s1 = s2 > s3
      BOTTOM_PAIR_EQUAL  s2 = s3 > 0, s1 > s2
      RANK_LE_ONE        s2 = s3 = 0
      SCALAR_ROTATION    s1 = s2 = s3 > 0 (a multiple of an orthogonal matrix)
      ZERO               the zero matrix
    """

    GENERIC = "generic"
    SIGMA3_ZERO = "sigma3_zero"
    TOP_PAIR_EQUAL = "top_pair_equal"
    BOTTOM_PAIR_EQUAL = "bottom_pair_equal"
    RANK_LE_ONE = "rank_le_one"
    SCALAR_ROTATION = "scalar_rotation"
    ZERO = "zero"


@dataclass(frozen=True)
class Stratum:
    tag: StratumTag
    rel_tol: float
    abs_tol: float


@dataclass(frozen=True)
class SvdTriple:
    """Factorization m = u @ middle @ v.T.

    In the plain form, middle = diag(sigma) and u, v are orthogonal.  In
    the signed form, u and v are rotations (det +1) and
    middle = diag(sigma[0], sigma[1], det_sign * sigma[2]).
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    det_sign: int
    signed: bool = False

    def middle(self) -> np.ndarray:
        d = self.sigma.copy()
        if self.signed:
            d[2] *= self.det_sign
        return np.diag(d)

    def reconstruct(self) -> np.ndarray:
        return self.u @ self.middle() @ self.v.T


def det3(m: np.ndarray) -> float:
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = np.asarray(m, dtype=float).tolist()
    return m00 * (m11 * m22 - m12 * m21) - m01 * (m10 * m22 - m12 * m20) + m02 * (m10 * m21 - m11 * m20)


def adjugate3(m: np.ndarray) -> np.ndarray:
    """Adjugate (transposed cofactor matrix), batched over leading axes.

    m @ adjugate3(m) = det(m) * I, and the adjugate vanishes exactly on
    matrices of rank <= 1, which makes it a smooth rank-one residual.
    """
    m = np.asarray(m, dtype=float)
    m00, m01, m02 = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
    m10, m11, m12 = m[..., 1, 0], m[..., 1, 1], m[..., 1, 2]
    m20, m21, m22 = m[..., 2, 0], m[..., 2, 1], m[..., 2, 2]
    # row k is the cross product of the other two columns, in cyclic order
    adj = np.empty(m.shape)
    adj[..., 0, 0] = m11 * m22 - m21 * m12
    adj[..., 0, 1] = m21 * m02 - m01 * m22
    adj[..., 0, 2] = m01 * m12 - m11 * m02
    adj[..., 1, 0] = m12 * m20 - m22 * m10
    adj[..., 1, 1] = m22 * m00 - m02 * m20
    adj[..., 1, 2] = m02 * m10 - m12 * m00
    adj[..., 2, 0] = m10 * m21 - m20 * m11
    adj[..., 2, 1] = m20 * m01 - m00 * m21
    adj[..., 2, 2] = m00 * m11 - m10 * m01
    return adj


def _orthonormal_completion(cols: list[np.ndarray]) -> list[np.ndarray]:
    """Extend a (possibly empty) orthonormal list to a basis of R^3.

    Candidate axes are tried in a fixed order, so the completion is
    deterministic.  Gram-Schmidt runs twice: one pass against a nearly
    parallel basis vector leaves an error of order eps / |candidate|.
    """
    basis = [c.copy() for c in cols]
    for k in range(3):
        if len(basis) == 3:
            break
        cand = np.zeros(3)
        cand[k] = 1.0
        for _ in range(2):
            for b in basis:
                cand -= (b @ cand) * b
        n = np.linalg.norm(cand)
        if n > 1e-7:
            basis.append(cand / n)
    return basis


def _jacobi(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi: returns orthogonal u, descending sigma, orthogonal v.

    The working matrix and v are held as lists of columns.
    """
    rows = m.tolist()
    scale = max(abs(x) for row in rows for x in row)
    if scale == 0.0:
        return np.eye(3), np.zeros(3), np.eye(3)
    # work at unit scale so extreme inputs cannot underflow the Gram terms
    a = [[x / scale for x in col] for col in zip(*rows)]
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for i, j in ((0, 1), (0, 2), (1, 2)):
            (x0, x1, x2), (y0, y1, y2) = a[i], a[j]
            app = x0 * x0 + x1 * x1 + x2 * x2
            aqq = y0 * y0 + y1 * y1 + y2 * y2
            apq = x0 * y0 + x1 * y1 + x2 * y2
            # the 1e-300 floor skips correlations too tiny to matter on the
            # unit-scaled input (and keeps zeta finite for subnormal apq)
            if abs(apq) <= 1e-18 * math.sqrt(app * aqq) or abs(apq) < 1e-300:
                continue
            zeta = (aqq - app) / (2.0 * apq)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta)) if zeta != 0.0 else 1.0
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = c * t
            a[i] = [c * x0 - s * y0, c * x1 - s * y1, c * x2 - s * y2]
            a[j] = [s * x0 + c * y0, s * x1 + c * y1, s * x2 + c * y2]
            (x0, x1, x2), (y0, y1, y2) = v[i], v[j]
            v[i] = [c * x0 - s * y0, c * x1 - s * y1, c * x2 - s * y2]
            v[j] = [s * x0 + c * y0, s * x1 + c * y1, s * x2 + c * y2]
            rotated = True
        if not rotated:
            break
    sigma = [math.sqrt(x0 * x0 + x1 * x1 + x2 * x2) for x0, x1, x2 in a]

    # Descending order; exact sigma ties broken by descending lexicographic
    # v column, which keeps diagonal inputs (identity included) in place.
    order = sorted(range(3), key=lambda k: (-sigma[k], tuple(-x for x in v[k])))
    sigma = [sigma[k] for k in order]
    a = [a[k] for k in order]
    v = [v[k] for k in order]

    # Columns at numerically zero sigma carry no direction information;
    # replace them by a deterministic orthonormal completion.  The error
    # this leaves in the reconstruction is at most sigma_k <= 1e-14 sigma_1.
    u_cols = []
    for k in range(3):
        if sigma[k] > 1e-14 * sigma[0]:
            u_cols.append([x / sigma[k] for x in a[k]])
        else:
            break
    if len(u_cols) < 3:
        u_cols = [c.tolist() for c in _orthonormal_completion([np.array(c) for c in u_cols])]
    return np.array(list(zip(*u_cols))), np.array([x * scale for x in sigma]), np.array(list(zip(*v)))


def svd(m: np.ndarray) -> SvdTriple:
    """Jacobi SVD of a finite 3x3 matrix, deterministic for a fixed input."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        raise ValueError("svd expects a finite 3x3 matrix")
    u, sigma, v = _jacobi(m)
    det_sign = 1 if det3(m) >= 0.0 else -1
    return SvdTriple(u=u, sigma=sigma, v=v, det_sign=det_sign, signed=False)


def svd_signed(m: np.ndarray) -> SvdTriple:
    """SVD with both factors in SO(3).

    Reflections are absorbed into the middle factor, whose last entry is
    det_sign * sigma[2].  Conjugating a rotation by u, v then stays in
    SO(3), which every rank-one construction below relies on.
    """
    plain = svd(m)
    u = plain.u.copy()
    v = plain.v.copy()
    if det3(u) < 0.0:
        u[:, 2] = -u[:, 2]
    if det3(v) < 0.0:
        v[:, 2] = -v[:, 2]
    return SvdTriple(u=u, sigma=plain.sigma, v=v, det_sign=plain.det_sign, signed=True)


def singular_values(m: np.ndarray) -> np.ndarray:
    """Descending singular values via the Jacobi kernel (3x3 input only)."""
    return svd(m).sigma


def batched_singular_values(ms: np.ndarray) -> np.ndarray:
    """LAPACK singular values for a (..., 3, 3) stack.

    Bulk path for oracles and certification loops; independent of the
    Jacobi kernel, and cross-checked against it in the test suite.
    """
    return np.linalg.svd(np.asarray(ms, dtype=float), compute_uv=False)


def sigma2(m: np.ndarray) -> float:
    """Middle singular value, the distance-to-rank-one certificate."""
    return float(svd(m).sigma[1])


def classify_sigma(sigma, rel_tol: float = DEFAULT_REL_TOL, abs_tol: float = 0.0) -> Stratum:
    """Most degenerate stratum of descending singular values s1 >= s2 >= s3.

    Comparisons are relative to sigma1 except the ZERO tag, which uses
    abs_tol.  rel_tol must lie in (0, 0.5).
    """
    if not 0.0 < rel_tol < 0.5:
        raise ValueError("rel_tol must lie strictly between 0 and 0.5")
    s1, s2, s3 = (float(x) for x in sigma)
    gap = rel_tol * s1
    if s1 <= abs_tol:
        tag = StratumTag.ZERO
    elif s1 - s3 <= gap:
        tag = StratumTag.SCALAR_ROTATION
    elif s2 <= gap:
        tag = StratumTag.RANK_LE_ONE
    elif s1 - s2 <= gap:
        tag = StratumTag.TOP_PAIR_EQUAL
    elif s2 - s3 <= gap:
        tag = StratumTag.BOTTOM_PAIR_EQUAL
    elif s3 <= gap:
        tag = StratumTag.SIGMA3_ZERO
    else:
        tag = StratumTag.GENERIC
    return Stratum(tag=tag, rel_tol=rel_tol, abs_tol=abs_tol)


def classify_stratum(m: np.ndarray, rel_tol: float = DEFAULT_REL_TOL, abs_tol: float = 0.0) -> Stratum:
    """Most degenerate singular-value stratum the matrix lies in."""
    return classify_sigma(svd(m).sigma, rel_tol, abs_tol)
