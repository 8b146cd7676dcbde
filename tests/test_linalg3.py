import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gluecount.linalg3 import (
    StratumTag,
    adjugate3,
    batched_singular_values,
    classify_stratum,
    det3,
    sigma2,
    singular_values,
    svd,
    svd_signed,
)
from gluecount.rotations import sample_rotation

finite_mats = arrays(
    np.float64, (3, 3), elements=st.floats(min_value=-100, max_value=100, allow_nan=False)
)


def test_svd_identity():
    f = svd(np.eye(3))
    assert np.allclose(f.sigma, [1, 1, 1])
    assert np.allclose(f.u, np.eye(3)) and np.allclose(f.v, np.eye(3))


def test_svd_sorted_diagonal():
    assert np.allclose(svd(np.diag([3.0, 2.0, 1.0])).sigma, [3, 2, 1])
    f = svd(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(f.sigma, [3, 2, 1])
    assert np.max(np.abs(f.reconstruct() - np.diag([1.0, 2.0, 3.0]))) < 1e-12 * 3


@settings(deadline=None)
@given(finite_mats)
def test_svd_reconstruction_property(m):
    f = svd(m)
    top = max(f.sigma[0], 1e-300)
    assert np.max(np.abs(f.reconstruct() - m)) <= 1e-12 * top
    assert f.sigma[0] >= f.sigma[1] >= f.sigma[2] >= 0.0
    assert np.max(np.abs(f.u.T @ f.u - np.eye(3))) < 1e-12
    assert np.max(np.abs(f.v.T @ f.v - np.eye(3))) < 1e-12


def test_svd_reconstruction_bulk():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10_000):
        m = rng.uniform(-1, 1, (3, 3))
        f = svd(m)
        worst = max(worst, np.max(np.abs(f.reconstruct() - m)) / f.sigma[0])
    assert worst <= 1e-12


def test_svd_matches_lapack():
    rng = np.random.default_rng(1)
    ms = rng.uniform(-1, 1, (500, 3, 3))
    lapack = batched_singular_values(ms)
    for m, ref in zip(ms, lapack):
        assert np.max(np.abs(singular_values(m) - ref)) < 1e-12


def test_svd_orthogonal_invariance():
    rng = np.random.default_rng(2)
    m = rng.uniform(-1, 1, (3, 3))
    base = singular_values(m)
    for _ in range(100):
        r = sample_rotation(rng)
        s = sample_rotation(rng)
        assert np.max(np.abs(singular_values(r @ m @ s.T) - base)) <= 1e-12 * base[0]


def test_svd_signed_identity_and_reflection():
    f = svd_signed(np.eye(3))
    assert f.det_sign == 1 and np.allclose(f.u, np.eye(3)) and np.allclose(f.v, np.eye(3))
    f = svd_signed(np.diag([1.0, 1.0, -1.0]))
    assert np.allclose(f.sigma, [1, 1, 1])
    assert f.det_sign == -1
    assert np.max(np.abs(f.reconstruct() - np.diag([1.0, 1.0, -1.0]))) < 1e-12


def test_svd_signed_rotations_have_unit_sigma():
    rng = np.random.default_rng(3)
    for r in sample_rotation(rng, 100):
        f = svd_signed(r)
        assert np.max(np.abs(f.sigma - 1.0)) < 1e-12
        assert f.det_sign == 1
        assert abs(det3(f.u) - 1.0) < 1e-12 and abs(det3(f.v) - 1.0) < 1e-12


def test_svd_signed_factors_are_rotations():
    rng = np.random.default_rng(4)
    for _ in range(500):
        m = rng.uniform(-1, 1, (3, 3))
        f = svd_signed(m)
        assert abs(det3(f.u) - 1.0) < 1e-12
        assert abs(det3(f.v) - 1.0) < 1e-12
        assert np.max(np.abs(f.reconstruct() - m)) <= 1e-12 * f.sigma[0]


def test_sigma2_examples():
    assert sigma2(np.diag([3.0, 2.0, 1.0])) == 2.0
    assert sigma2(np.zeros((3, 3))) == 0.0


def test_sigma2_rotation_invariance():
    rng = np.random.default_rng(5)
    m = np.diag([3.0, 2.0, 1.0])
    for _ in range(100):
        r = sample_rotation(rng)
        s = sample_rotation(rng)
        assert abs(sigma2(r @ m @ s.T) - 2.0) <= 3e-12


def test_classify_examples():
    assert classify_stratum(np.diag([3.0, 2.0, 1.0]), 1e-6).tag == StratumTag.GENERIC
    rot = sample_rotation(np.random.default_rng(6))
    assert classify_stratum(5.0 * rot, 1e-6).tag == StratumTag.SCALAR_ROTATION
    rng = np.random.default_rng(7)
    w, z = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    assert classify_stratum(np.outer(w, z), 1e-6).tag == StratumTag.RANK_LE_ONE


def test_classify_remaining_strata():
    assert classify_stratum(np.zeros((3, 3))).tag == StratumTag.ZERO
    assert classify_stratum(np.diag([2.0, 2.0, 1.0])).tag == StratumTag.TOP_PAIR_EQUAL
    assert classify_stratum(np.diag([3.0, 2.0, 2.0])).tag == StratumTag.BOTTOM_PAIR_EQUAL
    assert classify_stratum(np.diag([3.0, 2.0, 0.0])).tag == StratumTag.SIGMA3_ZERO
    # most degenerate tag wins
    assert classify_stratum(np.diag([2.0, 2.0, 0.0])).tag == StratumTag.TOP_PAIR_EQUAL
    assert classify_stratum(np.diag([1.0, 1e-12, 1e-13])).tag == StratumTag.RANK_LE_ONE


def test_classify_gap_definition():
    # generic exactly when all gaps exceed rel_tol * sigma1
    tol = 1e-3
    m = np.diag([1.0, 1.0 - 2.1e-3, 1.0 - 4.2e-3])
    assert classify_stratum(m, tol).tag == StratumTag.GENERIC
    m = np.diag([1.0, 1.0 - 0.9e-3, 0.5])
    assert classify_stratum(m, tol).tag == StratumTag.TOP_PAIR_EQUAL


def test_adjugate_identity():
    rng = np.random.default_rng(8)
    ms = rng.uniform(-2, 2, (200, 3, 3))
    adj = adjugate3(ms)
    dets = np.array([det3(m) for m in ms])
    assert np.max(np.abs(ms @ adj - dets[:, None, None] * np.eye(3))) < 1e-12 * np.max(np.abs(ms)) ** 3 * 10


def test_adjugate_vanishes_on_rank_one():
    rng = np.random.default_rng(9)
    w, z = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    assert np.max(np.abs(adjugate3(np.outer(w, z)))) < 1e-15


def reference_adjugate(m):
    # the np.cross form that adjugate3 replaced, kept as its bitwise reference
    c0, c1, c2 = m[..., :, 0], m[..., :, 1], m[..., :, 2]
    return np.stack([np.cross(c1, c2), np.cross(c2, c0), np.cross(c0, c1)], axis=-2)


def test_adjugate_matches_cross_product_reference():
    rng = np.random.default_rng(10)
    ms = rng.uniform(-2, 2, (500, 3, 3))
    ms[7, 1, 2] = np.nan
    for m in (ms, ms.reshape(50, 10, 3, 3), ms[0], ms[7]):
        got = adjugate3(m)
        assert got.shape == m.shape
        assert np.array_equal(got, reference_adjugate(m), equal_nan=True)
    assert np.isnan(adjugate3(ms[7])).any()
