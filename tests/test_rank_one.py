import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gluecount.linalg3 import StratumTag, classify_stratum, sigma2, singular_values
from gluecount.rank_one import (
    ORACLE_DEDUPE_ANGLE,
    OracleInconclusiveError,
    OutcomeKind,
    _greedy_representatives,
    oracle_rank_one,
    solve_rank_one,
    solve_rank_one_reduced,
)
from gluecount.rotations import (
    is_rotation,
    quat_from_rotation_vector,
    quat_mul,
    quat_to_rotation,
    rotation_distance,
    sample_rotation,
    sample_unit_quaternion,
)


def random_generic(rng):
    while True:
        m = rng.uniform(-1.0, 1.0, (3, 3))
        if classify_stratum(m).tag == StratumTag.GENERIC:
            return m


def test_diag_321_two_pairs():
    out = solve_rank_one(np.diag([3.0, 2.0, 1.0]))
    assert out.kind == OutcomeKind.TWO_DISTINCT
    assert len(out.pairs) == 2
    for pair in out.pairs:
        assert abs(pair.s - 2.0) < 1e-12
        assert pair.residual <= 1e-9 * 3.0
        assert is_rotation(pair.m, tol=1e-12)


def test_diag_321_half_turn_axes():
    # solutions are half-turns about (+-sqrt(3/8), 0, sqrt(5/8))
    out = solve_rank_one(np.diag([3.0, 2.0, 1.0]))
    n1, n3 = np.sqrt(3.0 / 8.0), np.sqrt(5.0 / 8.0)
    expected = [2.0 * np.outer(n, n) - np.eye(3) for n in (np.array([n1, 0, n3]), np.array([-n1, 0, n3]))]
    for pair, want in zip(out.pairs, expected):
        assert np.max(np.abs(pair.m - want)) < 1e-12
        assert sigma2(np.diag([3.0, 2.0, 1.0]) + 2.0 * pair.m) < 1e-10


def test_scalar_multiple_of_rotation_degenerate():
    out = solve_rank_one(5.0 * np.eye(3))
    assert out.kind == OutcomeKind.DEGENERATE
    assert out.pairs == ()


def test_reduced_values():
    ms = solve_rank_one_reduced(np.array([3.0, 2.0, 1.0]), 1)
    assert abs((ms[0][0, 0] + 1.0) / 2.0 - 3.0 / 8.0) < 1e-14  # n1^2 from 2 n1^2 - 1
    ms = solve_rank_one_reduced(np.array([3.0, 2.0, 0.0]), 1)
    assert abs((ms[0][0, 0] + 1.0) / 2.0 - 1.0 / 6.0) < 1e-14
    # boundary of the generic stratum still certifies
    assert sigma2(np.diag([3.0, 2.0, 0.0]) + 2.0 * ms[0]) < 1e-12


def test_reduced_rejects_unsorted():
    with pytest.raises(ValueError):
        solve_rank_one_reduced(np.array([2.0, 3.0, 1.0]), 1)
    with pytest.raises(ValueError):
        solve_rank_one_reduced(np.array([3.0, 2.0, 2.0]), 1)


@settings(deadline=None, max_examples=200)
@given(
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.sampled_from([1, -1]),
)
def test_reduced_axis_unit_norm(a, b, c, det_sign):
    sv = np.sort([a, b, c])[::-1]
    if not sv[0] > sv[1] > sv[2]:
        return
    for m in solve_rank_one_reduced(sv, det_sign):
        # half-turn axes are unit by construction: n1^2 + n3^2 = 1
        n1sq = (m[0, 0] + 1.0) / 2.0
        n3sq = (m[2, 2] + 1.0) / 2.0
        assert abs(n1sq + n3sq - 1.0) < 1e-12
        assert is_rotation(m, tol=1e-12)


def test_axis_norm_bulk():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        sv = np.sort(rng.uniform(0.0, 5.0, 3))[::-1]
        if not (sv[0] > sv[1] > sv[2] and sv[1] > 1e-6):
            continue
        m = solve_rank_one_reduced(sv, 1 if rng.uniform() < 0.5 else -1)[0]
        assert abs((m[0, 0] + 1.0) / 2.0 + (m[2, 2] + 1.0) / 2.0 - 1.0) < 1e-12


def test_sigma3_zero_stratum_is_degenerate_outcome():
    # exact sigma3 = 0 with distinct sigma1 > sigma2 > 0: no count is
    # claimed, the outcome is reported degenerate (the reduced closed form
    # still covers this boundary, see test_reduced_values)
    out = solve_rank_one(np.diag([3.0, 2.0, 0.0]))
    assert out.kind == OutcomeKind.DEGENERATE
    assert out.stratum == StratumTag.SIGMA3_ZERO


def test_double_roots():
    top = solve_rank_one(np.diag([2.0, 2.0, 1.0]))
    assert top.kind == OutcomeKind.DOUBLE_ROOT and len(top.pairs) == 1
    assert top.pairs[0].residual <= 1e-9 * 2.0
    bottom = solve_rank_one(np.diag([3.0, 2.0, 2.0]))
    assert bottom.kind == OutcomeKind.DOUBLE_ROOT and len(bottom.pairs) == 1


def test_two_distinct_iff_generic():
    rng = np.random.default_rng(1)
    for _ in range(300):
        m = rng.uniform(-1.0, 1.0, (3, 3))
        out = solve_rank_one(m)
        generic = classify_stratum(m).tag == StratumTag.GENERIC
        assert (out.kind == OutcomeKind.TWO_DISTINCT) == generic


def test_equivariance():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = random_generic(rng)
        r, s = sample_rotation(rng), sample_rotation(rng)
        base = solve_rank_one(m)
        conj = solve_rank_one(r @ m @ s.T)
        assert abs(base.pairs[0].s - conj.pairs[0].s) <= 1e-9 * base.pairs[0].s
        expected = [r @ p.m @ s.T for p in base.pairs]
        for pair in conj.pairs:
            assert min(float(rotation_distance(pair.m, e)) for e in expected) < 1e-7


def test_rank_certificate_and_no_vanishing():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = random_generic(rng)
        sv = singular_values(m)
        for pair in solve_rank_one(m).pairs:
            completed = m + pair.s * pair.m
            csv = singular_values(completed)
            assert csv[1] <= 1e-9 * sv[0]  # rank <= 1
            assert csv[0] >= (sv[0] - sv[1]) / 2.0  # genuinely rank 1, not 0
            assert np.linalg.norm(completed) > 0.0


def test_coalescence_monotone():
    seps = []
    for k in range(1, 7):
        eps = 10.0**-k
        out = solve_rank_one(np.diag([2.0 + eps, 2.0, 1.0]))
        assert out.kind == OutcomeKind.TWO_DISTINCT
        seps.append(float(rotation_distance(out.pairs[0].m, out.pairs[1].m)))
    assert all(a > b for a, b in zip(seps, seps[1:]))


def test_oracle_diag_321():
    found = oracle_rank_one(np.diag([3.0, 2.0, 1.0]), 1000, np.random.default_rng(0))
    assert len(found) == 2
    closed = solve_rank_one(np.diag([3.0, 2.0, 1.0]))
    for pair in found:
        assert min(float(rotation_distance(pair.m, c.m)) for c in closed.pairs) < 1e-6
        assert abs(pair.s - 2.0) < 1e-12


def test_oracle_matches_closed_form_on_random_inputs():
    rng = np.random.default_rng(4)
    for k in range(100):
        m = random_generic(rng)
        closed = solve_rank_one(m)
        found = oracle_rank_one(m, 300, np.random.default_rng(k))
        assert len(found) == 2
        for pair in found:
            assert min(float(rotation_distance(pair.m, c.m)) for c in closed.pairs) < 1e-6


def test_oracle_near_coalescence_separation_rate():
    # two minima persist at gap 1e-3, separated ~ sqrt(gap)
    gap = 1e-3
    m = np.diag([2.0 + gap, 2.0, 1.0])
    found = oracle_rank_one(m, 2000, np.random.default_rng(5))
    assert len(found) == 2
    sep = float(rotation_distance(found[0].m, found[1].m))
    assert 0.3 * np.sqrt(gap) < sep < 30.0 * np.sqrt(gap)


def test_oracle_inconclusive_on_double_root():
    with pytest.raises(OracleInconclusiveError):
        oracle_rank_one(np.diag([2.0, 2.0, 1.0]), 1000, np.random.default_rng(6))


def test_oracle_rejects_rank_deficient():
    with pytest.raises(ValueError):
        oracle_rank_one(np.outer([1.0, 2.0, 3.0], [0.5, -1.0, 2.0]), 1000, np.random.default_rng(7))


def reference_dedupe(mats, angle):
    # the pairwise loop that the one-pass dedupe replaced
    keep = []
    for k in range(mats.shape[0]):
        if all(rotation_distance(mats[k], mats[j]) >= angle for j in keep):
            keep.append(k)
    return keep


@pytest.mark.parametrize("spread", [0.5, 2.0])
def test_one_pass_dedupe_matches_pairwise_loop(spread):
    # starts scattered within spread * ORACLE_DEDUPE_ANGLE of four centres
    rng = np.random.default_rng(13)
    centres = sample_unit_quaternion(rng, 4)
    offsets = rng.standard_normal((300, 3))
    offsets *= spread * ORACLE_DEDUPE_ANGLE * rng.uniform(0.0, 1.0, (300, 1)) / np.linalg.norm(offsets, axis=1, keepdims=True)
    mats = quat_to_rotation(quat_mul(centres[rng.integers(0, 4, 300)], quat_from_rotation_vector(offsets)))
    keep = _greedy_representatives(mats, ORACLE_DEDUPE_ANGLE)
    assert keep == reference_dedupe(mats, ORACLE_DEDUPE_ANGLE)
    assert len(keep) == 4 if spread < 1.0 else len(keep) > 4
