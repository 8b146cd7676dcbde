"""Quaternion algebra, SO(3) matrices, and the 2-to-1 covering between them.

Quaternions are float arrays of shape (..., 4) in (w, x, y, z) order with
the right-handed Hamilton convention i*j = k.  Points of R^4 use the same
layout: the first coordinate is the real part, the remaining three are the
i, j, k components.  Rotations are (..., 3, 3) arrays with orthonormal
columns and determinant +1.

Everything broadcasts over leading axes and nothing mutates its inputs.
Sampling functions take an explicit numpy Generator, so concurrent callers
can use independent streams.
"""

from __future__ import annotations

import numpy as np

QUAT_ONE = np.array([1.0, 0.0, 0.0, 0.0])


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = aw * bw - ax * bx - ay * by - az * bz
    out[..., 1] = aw * bx + ax * bw + ay * bz - az * by
    out[..., 2] = aw * by - ax * bz + ay * bw + az * bx
    out[..., 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def quat_conj(a: np.ndarray) -> np.ndarray:
    """Quaternion conjugate: negates the i, j, k components."""
    a = np.asarray(a, dtype=float)
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def quat_norm(a: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.asarray(a, dtype=float), axis=-1)


def quat_normalize(a: np.ndarray) -> np.ndarray:
    """Rescale to unit norm; raises on (near-)zero input."""
    a = np.asarray(a, dtype=float)
    n = np.linalg.norm(a, axis=-1, keepdims=True)
    if np.any(n < 1e-300) or not np.all(np.isfinite(n)):
        raise ValueError("cannot normalize a zero or non-finite quaternion")
    return a / n


def unit_quat_to_rotation(g: np.ndarray) -> np.ndarray:
    """Covering-map kernel for already-unit quaternions (no guard, NaN passes through)."""
    g = np.asarray(g, dtype=float)
    w, x, y, z = g[..., 0], g[..., 1], g[..., 2], g[..., 3]
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    r = np.empty(g.shape[:-1] + (3, 3))
    r[..., 0, 0] = 1.0 - 2.0 * (yy + zz)
    r[..., 0, 1] = 2.0 * (xy - wz)
    r[..., 0, 2] = 2.0 * (xz + wy)
    r[..., 1, 0] = 2.0 * (xy + wz)
    r[..., 1, 1] = 1.0 - 2.0 * (xx + zz)
    r[..., 1, 2] = 2.0 * (yz - wx)
    r[..., 2, 0] = 2.0 * (xz - wy)
    r[..., 2, 1] = 2.0 * (yz + wx)
    r[..., 2, 2] = 1.0 - 2.0 * (xx + yy)
    return r


def quat_to_rotation(g: np.ndarray) -> np.ndarray:
    """Covering map: the rotation whose columns are g i g^-1, g j g^-1, g k g^-1.

    Input is renormalized internally, so unit norm only needs to hold
    approximately.  g and -g map to the same rotation.
    """
    return unit_quat_to_rotation(quat_normalize(g))


def quat_from_rotation_vector(xi: np.ndarray) -> np.ndarray:
    """Unit quaternion for the rotation by |xi| radians about xi/|xi|.

    quat_to_rotation(quat_from_rotation_vector(xi)) == expm([xi]_x).
    Smooth through xi = 0.
    """
    xi = np.asarray(xi, dtype=float)
    angle = np.linalg.norm(xi, axis=-1, keepdims=True)
    half = 0.5 * angle
    # sin(t)/t with the removable singularity filled in
    small = angle < 1e-8
    sinc_half = np.where(small, 0.5 - angle**2 / 48.0, np.sin(half) / np.where(small, 1.0, angle))
    w = np.cos(half)
    return np.concatenate([w, sinc_half * xi], axis=-1)


def rotation_exp(xi: np.ndarray) -> np.ndarray:
    """Matrix exponential of the antisymmetric matrix [xi]_x, via quaternions."""
    return quat_to_rotation(quat_from_rotation_vector(xi))


def is_rotation(r: np.ndarray, tol: float = 1e-9) -> bool:
    """True when r^T r = I entrywise and det r = +1, both within tol."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3) or not np.all(np.isfinite(r)):
        return False
    defect = np.max(np.abs(r.T @ r - np.eye(3)))
    return bool(defect <= tol and abs(np.linalg.det(r) - 1.0) <= tol)


def canonical_lift(g: np.ndarray) -> np.ndarray:
    """Of the two lifts +-g, the one with positive real part.

    Ties broken by the first nonzero of the i, j, k components, kept
    positive, so the choice is deterministic on the whole unit sphere.
    """
    g = np.asarray(g, dtype=float)
    for component in g:
        if component > 0.0:
            return g.copy()
        if component < 0.0:
            return -g
    raise ValueError("zero quaternion has no canonical lift")


def rotation_to_quat_pair(r: np.ndarray, tol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """The two unit quaternions (g, -g) with quat_to_rotation(g) = r.

    The first entry carries the canonical sign (nonnegative real part,
    ties by first nonzero imaginary component).  Raises ValueError when r
    violates the rotation invariants by more than tol.
    """
    r = np.asarray(r, dtype=float)
    if not is_rotation(r, tol=tol):
        raise ValueError("input is not an SO(3) matrix within tolerance")
    t = np.trace(r)
    # Shepperd's method: branch on the largest of the four squared components.
    choices = np.array([1.0 + t, 1.0 + 2.0 * r[0, 0] - t, 1.0 + 2.0 * r[1, 1] - t, 1.0 + 2.0 * r[2, 2] - t])
    k = int(np.argmax(choices))
    s = np.sqrt(max(choices[k], 0.0))
    if k == 0:
        g = np.array([s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s])
    elif k == 1:
        g = np.array([(r[2, 1] - r[1, 2]) / s, s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s])
    elif k == 2:
        g = np.array([(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, s, (r[1, 2] + r[2, 1]) / s])
    else:
        g = np.array([(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, s])
    g = canonical_lift(g / np.linalg.norm(g))
    return g, -g


def rotation_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geodesic angle in [0, pi] between two rotations (batched).

    Uses ||a - b||_F = 2 sqrt(2) sin(theta / 2), which keeps full relative
    precision for small angles, where arccos of the trace cannot resolve
    anything below ~1e-8.
    """
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    chord = np.sqrt(np.sum(d * d, axis=(-2, -1))) / (2.0 * np.sqrt(2.0))
    return 2.0 * np.arcsin(np.minimum(chord, 1.0))


def rotation_angle(r: np.ndarray) -> np.ndarray:
    """Geodesic distance from the identity."""
    r = np.asarray(r, dtype=float)
    c = 0.5 * (np.trace(r, axis1=-2, axis2=-1) - 1.0)
    return np.arccos(np.clip(c, -1.0, 1.0))


def sample_unit_quaternion(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-uniform unit quaternions from a normalized 4-d Gaussian."""
    shape = (4,) if size is None else (size, 4)
    g = rng.standard_normal(shape)
    n = np.linalg.norm(g, axis=-1, keepdims=True)
    # Resample the (measure-zero) degenerate draws.
    while np.any(n < 1e-12):
        bad = (n < 1e-12).reshape(-1)
        g.reshape(-1, 4)[bad] = rng.standard_normal((int(bad.sum()), 4))
        n = np.linalg.norm(g, axis=-1, keepdims=True)
    return g / n


def sample_rotation(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-uniform SO(3) samples, via the covering map."""
    return quat_to_rotation(sample_unit_quaternion(rng, size))
