import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gluecount.rotations import (
    canonical_lift,
    is_rotation,
    quat_conj,
    quat_from_rotation_vector,
    quat_mul,
    quat_normalize,
    quat_to_rotation,
    rotation_angle,
    rotation_distance,
    rotation_exp,
    rotation_to_quat_pair,
    sample_rotation,
    sample_unit_quaternion,
    unit_quat_to_rotation,
)

I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])

finite_quats = arrays(
    np.float64, (4,), elements=st.floats(min_value=-10, max_value=10, allow_nan=False)
).filter(lambda q: np.linalg.norm(q) > 1e-3)


def test_hamilton_defining_relation():
    assert np.allclose(quat_mul(I, J), K)
    assert np.allclose(quat_mul(J, K), I)
    assert np.allclose(quat_mul(K, I), J)
    assert np.allclose(quat_mul(I, I), [-1, 0, 0, 0])


def test_norm_multiplicative():
    rng = np.random.default_rng(0)
    a = sample_unit_quaternion(rng, 100)
    b = sample_unit_quaternion(rng, 100)
    norms = np.linalg.norm(quat_mul(a, b), axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_half_i_squared():
    h = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    assert np.max(np.abs(quat_mul(h, h) - I)) < 1e-15


def test_covering_map_basics():
    assert np.allclose(quat_to_rotation([1, 0, 0, 0]), np.eye(3))
    assert np.allclose(quat_to_rotation(I), np.diag([1.0, -1.0, -1.0]))
    g = sample_unit_quaternion(np.random.default_rng(1), 50)
    assert np.max(np.abs(quat_to_rotation(g) - quat_to_rotation(-g))) == 0.0


@settings(deadline=None)
@given(finite_quats, finite_quats)
def test_covering_homomorphism(a, b):
    a = quat_normalize(a)
    b = quat_normalize(b)
    lhs = quat_to_rotation(quat_mul(a, b))
    rhs = quat_to_rotation(a) @ quat_to_rotation(b)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_covering_homomorphism_bulk():
    rng = np.random.default_rng(2)
    a = sample_unit_quaternion(rng, 10_000)
    b = sample_unit_quaternion(rng, 10_000)
    lhs = quat_to_rotation(quat_mul(a, b))
    rhs = quat_to_rotation(a) @ quat_to_rotation(b)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_half_turn_formula():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        lhs = quat_to_rotation(np.concatenate([[0.0], n]))
        assert np.max(np.abs(lhs - (2.0 * np.outer(n, n) - np.eye(3)))) < 1e-12


def test_inverse_pair_examples():
    g, mg = rotation_to_quat_pair(np.eye(3))
    assert np.allclose(g, [1, 0, 0, 0]) and np.allclose(mg, [-1, 0, 0, 0])
    g, mg = rotation_to_quat_pair(np.diag([1.0, -1.0, -1.0]))
    assert np.allclose(g, I) and np.allclose(mg, -I)


def test_inverse_pair_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(100):
        r = sample_rotation(rng)
        g, mg = rotation_to_quat_pair(r)
        assert np.max(np.abs(quat_to_rotation(g) - r)) < 1e-9
        assert np.max(np.abs(g + mg)) == 0.0
        assert g[0] >= 0.0


def test_inverse_pair_rejects_non_rotation():
    with pytest.raises(ValueError):
        rotation_to_quat_pair(np.diag([1.0, 1.0, 1.0 + 1e-4]))


def test_canonical_lift_tie_breaking():
    assert np.allclose(canonical_lift(np.array([0.0, -1.0, 0.0, 0.0])), I)
    assert np.allclose(canonical_lift(np.array([0.0, 0.0, 0.0, -1.0])), K)


def test_rotation_distance_examples():
    rng = np.random.default_rng(5)
    r = sample_rotation(rng)
    assert rotation_distance(r, r) == 0.0
    assert abs(rotation_distance(np.eye(3), np.diag([1.0, -1.0, -1.0])) - np.pi) < 1e-12


def test_rotation_distance_triangle_inequality():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a, b, c = sample_rotation(rng), sample_rotation(rng), sample_rotation(rng)
        ab = float(rotation_distance(a, b))
        bc = float(rotation_distance(b, c))
        ac = float(rotation_distance(a, c))
        assert ac <= ab + bc + 1e-12


def test_rotation_vector_exponential():
    rng = np.random.default_rng(7)
    for _ in range(100):
        xi = rng.uniform(-2, 2, 3)
        r = quat_to_rotation(quat_from_rotation_vector(xi))
        assert is_rotation(r)
        assert abs(float(rotation_angle(r)) - min(np.linalg.norm(xi), 2 * np.pi - np.linalg.norm(xi))) < 1e-12
    # smooth through zero
    assert np.allclose(quat_from_rotation_vector(np.zeros(3)), [1, 0, 0, 0])


def test_sampler_deterministic_and_valid():
    a = sample_rotation(np.random.default_rng(42), 5)
    b = sample_rotation(np.random.default_rng(42), 5)
    assert np.array_equal(a, b)
    for r in a:
        assert is_rotation(r, tol=1e-12)


def test_sampler_haar_trace_moment():
    # mean of the trace over the rotation group vanishes; sd of the mean
    # over 1e5 samples is ~3.2e-3, so 0.02 is a six-sigma band
    rng = np.random.default_rng(8)
    samples = sample_rotation(rng, 100_000)
    mean_trace = float(np.mean(np.trace(samples, axis1=-2, axis2=-1)))
    assert abs(mean_trace) < 0.02


def test_conj_involution():
    rng = np.random.default_rng(9)
    q = rng.uniform(-1, 1, (10, 4))
    assert np.array_equal(quat_conj(quat_conj(q)), q)


def test_rotation_distance_resolves_small_angles():
    rng = np.random.default_rng(10)
    r = sample_rotation(rng)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    eps = 10.0 ** -np.arange(2.0, 13.0)
    d = rotation_distance(r, r @ rotation_exp(eps[:, None] * axis))
    assert np.all(np.abs(d - eps) <= 1e-3 * eps)


def test_rotation_angle_resolves_small_angles():
    # arccos of the trace reads 0 below ~1e-8
    axis = np.array([0.6, -0.8, 0.0])
    for eps in (1e-6, 1e-10, 1e-12):
        assert abs(float(rotation_angle(rotation_exp(eps * axis))) - eps) <= 1e-3 * eps


# The np.moveaxis / np.stack forms that quat_mul and unit_quat_to_rotation
# replaced, kept as their bitwise references.
def reference_quat_mul(a, b):
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def reference_unit_quat_to_rotation(g):
    w, x, y, z = np.moveaxis(g, -1, 0)
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    row0 = np.stack([1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)], axis=-1)
    row1 = np.stack([2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)], axis=-1)
    row2 = np.stack([2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)], axis=-1)
    return np.stack([row0, row1, row2], axis=-2)


def test_quaternion_kernels_match_stack_reference():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((300, 4))
    b = rng.standard_normal((300, 4))
    a[5] = np.nan
    b[9, 2] = np.nan
    for x, y in ((a, b), (a[0], b), (a[:20, None, :], b[:30]), (a[0], b[1])):
        got = quat_mul(x, y)
        want = reference_quat_mul(x, y)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
    g = sample_unit_quaternion(rng, 300)
    g[5] = np.nan
    for x in (g, g.reshape(30, 10, 4), g[0], g[5]):
        got = unit_quat_to_rotation(x)
        assert got.shape == x.shape[:-1] + (3, 3)
        assert np.array_equal(got, reference_unit_quat_to_rotation(x), equal_nan=True)
