import warnings

import numpy as np
import pytest

from gluecount.background import BackgroundField, eval_background, make_background, targets
from gluecount.instanton import Bubble, TwoPointConfig
from gluecount.linalg3 import batched_singular_values
from gluecount.rotations import (
    quat_from_rotation_vector,
    quat_normalize,
    quat_to_rotation,
    rotation_angle,
    rotation_distance,
    rotation_to_quat_pair,
    unit_quat_to_rotation,
)
from gluecount.solver import (
    PAIRINGS,
    CountAnomalyWarning,
    NearDegenerateError,
    SolutionRecord,
    SolverConfig,
    _batched_frames,
    _branch_candidates,
    _build_record,
    _certified_records,
    _dedupe_records,
    _glued_pair,
    _magnitude_coefficients,
    _oracle_advance,
    _oracle_blocks,
    _oracle_descent,
    _oracle_glue,
    _oracle_jacobian,
    _oracle_starts,
    _sign_jacobians,
    _sorted_records,
    build_defect_chart,
    compare_solution_sets,
    enumerate_solutions,
    oracle_enumerate,
    orientation_sign,
    reference_case,
    solve_magnitude,
)
from gluecount.instanton import direction_ratio

CHECK_ALL = [np.array([s * l, 0, 0, 0.0]) for l in (0.2, 0.1, 0.05) for s in (1, -1)]
AMP = 0.25


def make_field(seed):
    return make_background(seed, degree=2, amplitude=AMP, check_points=CHECK_ALL)


# ---------------------------------------------------------------------------
# magnitude equations


def test_magnitude_small_root_value():
    # equal magnitudes, bubble on the axis midpoint: quadratic root in closed form
    cfg = TwoPointConfig(0.1)
    roots = solve_magnitude(cfg, 1.0, 1.0, np.zeros(3))
    assert len(roots) == 2
    y0, lam = roots[0]
    assert y0 == 0.0
    assert abs(lam - (1.0 - np.sqrt(1.0 - 0.04)) / 2.0) < 1e-15
    assert roots[1][1] > lam


def test_magnitude_residuals():
    cfg = TwoPointConfig(0.07)
    rng = np.random.default_rng(0)
    for _ in range(200):
        s_p = float(rng.uniform(0.05, 2.0))
        s_q = s_p * (1.0 + float(rng.uniform(-0.1, 0.1)) * cfg.L)
        y_i = rng.uniform(-0.2, 0.2, 3)
        for y0, lam in solve_magnitude(cfg, s_p, s_q, y_i):
            y = np.concatenate([[y0], y_i])
            rp = lam**2 + float(np.sum((y - cfg.p) ** 2)) - lam / np.sqrt(s_p)
            rq = lam**2 + float(np.sum((y - cfg.q) ** 2)) - lam / np.sqrt(s_q)
            scale = lam / np.sqrt(min(s_p, s_q))
            assert abs(rp) <= 1e-12 * scale and abs(rq) <= 1e-12 * scale


def test_magnitude_root_structure_threshold():
    # equal magnitudes: two roots strictly inside |y-p| = 1/(2 sqrt(s)),
    # none outside, one at the threshold
    s = 0.8
    L = 0.05
    cfg = TwoPointConfig(L)
    threshold = 0.5 / np.sqrt(s)
    inside = np.array([np.sqrt(threshold**2 * 0.81 - L**2), 0.0, 0.0])
    outside = np.array([np.sqrt(threshold**2 * 1.21 - L**2), 0.0, 0.0])
    exact = np.array([np.sqrt(threshold**2 - L**2), 0.0, 0.0])
    assert len(solve_magnitude(cfg, s, s, inside)) == 2
    assert len(solve_magnitude(cfg, s, s, outside)) == 0
    at = solve_magnitude(cfg, s, s, exact)
    assert len(at) == 1
    assert abs(at[0][1] - threshold) < 1e-9


def test_magnitude_small_root_approximation():
    # |y - p| << 1/sqrt(s): small root ~ (L^2 + |y_I|^2) sqrt(s)
    s = 1.3
    cfg = TwoPointConfig(0.01)
    y_i = np.array([0.02, -0.01, 0.005])
    (y0, lam), _ = solve_magnitude(cfg, s, s, y_i)
    approx = (cfg.L**2 + float(y_i @ y_i)) * np.sqrt(s)
    assert abs(lam / approx - 1.0) < 5e-3


def test_magnitude_asymmetric_offsets_midplane():
    # s_p != s_q tilts the solutions off the midplane by y0 = beta * lambda
    cfg = TwoPointConfig(0.1)
    roots = solve_magnitude(cfg, 1.0, 1.21, np.zeros(3))
    _, _, beta = _magnitude_coefficients(cfg, 1.0, 1.21)
    for y0, lam in roots:
        assert abs(y0 - beta * lam) < 1e-15
        assert y0 != 0.0


# ---------------------------------------------------------------------------
# orientation reference


def test_reference_sign_is_plus_one():
    field, cfg, rec = reference_case(0.1)
    assert rec.defect_norm < 1e-14
    assert orientation_sign(field, cfg, rec) == 1


def test_reference_sign_stable_under_step_halving():
    field, cfg, rec = reference_case(0.1)
    assert orientation_sign(field, cfg, rec, step=1e-5) == orientation_sign(field, cfg, rec, step=5e-6)


# ---------------------------------------------------------------------------
# enumeration


def test_constant_field_six_solutions():
    field, _, _ = reference_case(0.05)
    cfg = TwoPointConfig(0.05)
    recs = enumerate_solutions(field, cfg, SolverConfig())
    assert len(recs) == 6
    counts = {p: sum(1 for r in recs if r.pairing == p) for p in ((1, 1), (1, 2), (2, 1), (2, 2))}
    assert counts == {(1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 1}
    assert all(r.sign == 1 for r in recs)


def test_generic_field_six_solutions_and_certificates():
    field = make_field(2)
    cfg = TwoPointConfig(0.1)
    sc = SolverConfig()
    recs = enumerate_solutions(field, cfg, sc)
    td = targets(field, cfg)
    assert len(recs) == 6
    scale = 1.0  # defects are already normalized against newton_tol * field scale
    for r in recs:
        assert r.defect_norm <= sc.newton_tol
        assert r.gluing.scale <= sc.K * cfg.L**sc.alpha * (1 + 1e-12)
        assert r.gluing.scale < 0.5 / np.sqrt(td.s_p)
        assert r.magnitude_residual < 1e-12
        assert np.max(np.abs(quat_to_rotation(r.lift) - r.gluing.angle)) < 1e-9


def test_enumeration_deterministic():
    field = make_field(10)
    cfg = TwoPointConfig(0.1)
    a = enumerate_solutions(field, cfg, SolverConfig())
    b = enumerate_solutions(field, cfg, SolverConfig())
    assert len(a) == len(b) == 6
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.gluing.center, rb.gluing.center)
        assert ra.gluing.scale == rb.gluing.scale
        assert np.array_equal(ra.gluing.angle, rb.gluing.angle)
        assert ra.sign == rb.sign and ra.pairing == rb.pairing


def test_near_identity_splitting():
    # same-label pairings solve R(g(y)) within O(L) of the identity; the
    # crossed ones stay bounded away as L shrinks
    field = make_field(13)
    for L in (0.1, 0.05):
        cfg = TwoPointConfig(L)
        for r in enumerate_solutions(field, cfg, SolverConfig()):
            g = direction_ratio(cfg, r.gluing.center)
            angle = float(rotation_angle(quat_to_rotation(g)))
            if r.pairing[0] == r.pairing[1]:
                assert angle < 8.0 * L
            else:
                assert angle > 0.3


def test_count_anomaly_warning():
    # an admissibility cutoff too tight to accept anything must be reported
    field = make_field(1)
    cfg = TwoPointConfig(0.1)
    with pytest.warns(CountAnomalyWarning):
        recs = enumerate_solutions(field, cfg, SolverConfig(K=1e-4))
    assert recs == []


def test_alpha_sweep_leaves_solutions_unchanged():
    # at small L the cutoff stops binding: the certified set is alpha-independent
    field = make_field(16)
    cfg = TwoPointConfig(0.05)
    sets = [
        enumerate_solutions(field, cfg, SolverConfig(alpha=alpha), compute_signs=False)
        for alpha in (0.5, 1.0, 1.5)
    ]
    assert all(len(s) == 6 for s in sets)
    assert not compare_solution_sets(sets[0], sets[1])
    assert not compare_solution_sets(sets[1], sets[2])


def test_count_stability_dyadic_sweep():
    # once the six-solution regime is reached, halving L keeps it
    field = make_background(
        2, degree=2, amplitude=AMP,
        check_points=[np.array([s * l, 0, 0, 0.0]) for l in (0.2, 0.1, 0.05, 0.025) for s in (1, -1)],
    )
    counts = []
    for L in (0.2, 0.1, 0.05, 0.025):
        recs = enumerate_solutions(field, TwoPointConfig(L), SolverConfig(), compute_signs=False)
        counts.append(len(recs))
    assert 6 in counts
    first_six = counts.index(6)
    assert all(c == 6 for c in counts[first_six:])


def test_scale_law_ratio():
    field = make_field(17)
    devs = {}
    for L in (0.2, 0.05):
        cfg = TwoPointConfig(L)
        td = targets(field, cfg)
        recs = enumerate_solutions(field, cfg, SolverConfig(), compute_signs=False)
        devs[L] = max(
            abs(r.gluing.scale / ((L**2 + float(np.sum(r.gluing.center[1:] ** 2))) * np.sqrt(td.s_p)) - 1.0)
            for r in recs
        )
    assert devs[0.05] < devs[0.2]
    assert devs[0.05] < 0.25


def test_defect_chart_detects_rank_one():
    # the 2x2 block vanishes iff the matrix is rank <= 1 (top value fixed)
    from gluecount.solver import build_defect_chart

    rng = np.random.default_rng(20)
    w, z = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    base = np.outer(w, z)
    chart = build_defect_chart(base)
    assert np.max(np.abs(chart.value(base))) < 1e-14
    assert chart.u_frame.T @ chart.u_frame == pytest.approx(np.eye(2))
    perturbed = base + 1e-3 * rng.uniform(-1, 1, (3, 3))
    from gluecount.linalg3 import sigma2

    assert np.max(np.abs(chart.value(perturbed))) > 0.1 * sigma2(perturbed)


# ---------------------------------------------------------------------------
# oracle


def test_oracle_matches_enumeration():
    field = make_field(11)
    cfg = TwoPointConfig(0.1)
    sc = SolverConfig()
    structured = enumerate_solutions(field, cfg, sc)
    oracle = oracle_enumerate(field, cfg, sc, n_starts=4000, rng=np.random.default_rng(3))
    assert not compare_solution_sets(structured, oracle)
    assert all(r.sign == 1 for r in oracle)


def test_oracle_constant_field():
    field, _, _ = reference_case(0.05)
    cfg = TwoPointConfig(0.05)
    sc = SolverConfig()
    structured = enumerate_solutions(field, cfg, sc)
    oracle = oracle_enumerate(field, cfg, sc, n_starts=4000, rng=np.random.default_rng(4))
    assert not compare_solution_sets(structured, oracle)


def test_oracle_large_branch_rejected():
    # seeds pinned to the large-scale branch converge only to roots beyond
    # the cutoff, all flagged inadmissible
    field = make_field(1)
    cfg = TwoPointConfig(0.1)
    td = targets(field, cfg)
    rng = np.random.default_rng(5)
    n = 2000
    a, b, beta = _magnitude_coefficients(cfg, td.s_p, td.s_q)
    lam = rng.uniform(1.05 * 0.5 / np.sqrt(td.s_p), 0.95 * b / a, n)
    shell = np.sqrt(np.maximum(b * lam - a * lam**2 - cfg.L**2, 0.0))
    d3 = rng.standard_normal((n, 3))
    d3 /= np.linalg.norm(d3, axis=1, keepdims=True)
    y = np.zeros((n, 4))
    y[:, 0] = beta * lam
    y[:, 1:] = d3 * shell[:, None]
    quats = rng.standard_normal((n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    found = oracle_enumerate(
        field, cfg, SolverConfig(), rng=rng, keep_inadmissible=True, compute_signs=False,
        seed_override=(y, lam, quats),
    )
    assert found  # roots exist out there
    assert all(not r.admissible for r in found)
    assert all(r.gluing.scale > 0.5 / np.sqrt(td.s_p) for r in found)


def test_compare_solution_sets_reports_mismatch():
    field = make_field(2)
    cfg = TwoPointConfig(0.1)
    recs = enumerate_solutions(field, cfg, SolverConfig(), compute_signs=False)
    assert compare_solution_sets(recs, recs[:-1])
    assert compare_solution_sets(recs[:-1], recs)
    assert not compare_solution_sets(recs, list(recs))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=2.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.0)
    with pytest.raises(ValueError):
        SolverConfig(K=-1.0)


# ---------------------------------------------------------------------------
# oracle internals: closed-form Jacobian columns, stack certification, frames


def _oracle_cell(seed, amplitude, L):
    points = [np.array([s * L, 0, 0, 0.0]) for s in (1, -1)]
    field = make_background(seed, degree=2, amplitude=amplitude, check_points=points)
    cfg = TwoPointConfig(L)
    field_values = (eval_background(field, cfg.p), eval_background(field, cfg.q))
    scale = float(max(batched_singular_values(field_values[0])[0], batched_singular_values(field_values[1])[0]))
    return field, cfg, targets(field, cfg), field_values, scale


@pytest.mark.parametrize("seed,amplitude,L", [(2, AMP, 0.1), (5, AMP, 0.05), (19, 1.0, 0.4), (53, 1.0, 0.4)])
def test_oracle_jacobian_closed_form_columns_match_forward_differences(seed, amplitude, L):
    # scale and rotation columns (4-7) against forward differences of step
    # 1e-7 through the same retraction and fixed frames, at random states
    # with scales in [L^2, L], the window the solutions live in
    _, cfg, td, field_values, _ = _oracle_cell(seed, amplitude, L)
    rng = np.random.default_rng(seed)
    n = 200
    y, _, quats = _oracle_starts(cfg, SolverConfig(), td, rng, n)
    loglam = rng.uniform(np.log(L**2), np.log(L), n)
    glued = _oracle_glue(field_values, cfg, y, loglam, quats)
    frames = (_batched_frames(glued[0]), _batched_frames(glued[1]))
    blocks = _oracle_blocks(frames, glued)
    jac = _oracle_jacobian(field_values, cfg, y, loglam, quats, glued, frames, blocks)
    for k in range(4, 8):
        delta = np.zeros((n, 8))
        delta[:, k] = 1e-7
        moved = _oracle_glue(field_values, cfg, *_oracle_advance(y, loglam, quats, delta))
        fd = (_oracle_blocks(frames, moved) - blocks) / 1e-7
        rel = np.linalg.norm(jac[:, :, k] - fd, axis=1) / np.linalg.norm(fd, axis=1)
        assert np.max(rel) < 1e-5, (k, np.max(rel))


def _reference_dedupe(records, radius):
    # the pairwise loop that _dedupe_records replaced
    kept = []
    for rec in records:
        if all(rec.joint_distance(other) >= radius for other in kept if other.pairing == rec.pairing):
            kept.append(rec)
    return kept


def _reference_certified_records(field_values, cfg, sc, td, y, loglam, quats, scale, cutoff):
    # the per-start path that _certified_records replaced
    rotations_p = {1: td.m_p[0], 2: td.m_p[1]}
    rotations_q = {1: td.m_q[0], 2: td.m_q[1]}
    records = []
    for idx in range(y.shape[0]):
        yy = y[idx]
        lam = float(np.exp(loglam[idx]))
        m = unit_quat_to_rotation(quat_normalize(quats[idx]))
        r_p = m.T @ unit_quat_to_rotation(quat_normalize(cfg.p - yy))
        r_q = m.T @ unit_quat_to_rotation(quat_normalize(cfg.q - yy))
        i = 1 if rotation_distance(r_p, rotations_p[1]) <= rotation_distance(r_p, rotations_p[2]) else 2
        j = 1 if rotation_distance(r_q, rotations_q[1]) <= rotation_distance(r_q, rotations_q[2]) else 2
        rec = _build_record(field_values, cfg, sc, td, (i, j), yy, lam, m, scale, cutoff)
        if rec is not None:
            records.append(rec)
    return _reference_dedupe(_sorted_records(records), sc.dedupe_radius)


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.pairing == b.pairing and type(a.pairing[0]) is int
        assert np.array_equal(a.gluing.center, b.gluing.center)
        assert a.gluing.scale == b.gluing.scale
        assert np.array_equal(a.gluing.angle, b.gluing.angle)
        assert a.defect_norm == b.defect_norm
        assert a.admissible == b.admissible
        assert np.array_equal(a.lift, b.lift)
        assert a.magnitude_residual == b.magnitude_residual


def test_certified_records_match_per_start_path():
    _, cfg, td, field_values, scale = _oracle_cell(11, AMP, 0.1)
    sc = SolverConfig()
    cutoff = sc.K * cfg.L**sc.alpha
    starts = _oracle_starts(cfg, sc, td, np.random.default_rng(3), 1500)
    y, loglam, quats, rnorm = _oracle_descent(field_values, cfg, *starts, scale, 60)
    conv = rnorm <= 1e-12 * scale
    y, loglam, quats = y[conv], loglam[conv], quats[conv]
    assert y.shape[0] > 100  # many converged starts per distinct solution
    args = (field_values, cfg, sc, td, y, loglam, quats, scale, cutoff)
    got = _certified_records(*args)
    assert len(got) >= 6
    _assert_same_records(got, _reference_certified_records(*args))

    # near-duplicates of the converged states, closer and farther than the
    # dedupe radius, certified under a tolerance loose enough to admit them
    loose = SolverConfig(newton_tol=1e-3)
    rng = np.random.default_rng(4)
    pieces = [(y, loglam, quats)]
    for size in (0.3 * sc.dedupe_radius, 3.0 * sc.dedupe_radius):
        pieces.append(
            (
                y + size * rng.uniform(-1.0, 1.0, y.shape),
                loglam + size * rng.uniform(-1.0, 1.0, loglam.shape),
                quats + size * rng.uniform(-1.0, 1.0, quats.shape),
            )
        )
    y2, loglam2, quats2 = (np.concatenate(parts) for parts in zip(*pieces))
    order = rng.permutation(y2.shape[0])
    args = (field_values, cfg, loose, td, y2[order], loglam2[order], quats2[order], scale, cutoff)
    got = _certified_records(*args)
    assert len(got) > 6
    _assert_same_records(got, _reference_certified_records(*args))


def test_dedupe_records_matches_pairwise_loop_across_pairings():
    rng = np.random.default_rng(8)
    radius = 1e-6
    base_center = rng.uniform(-0.1, 0.1, 4)
    base_angle = unit_quat_to_rotation(quat_normalize(rng.standard_normal(4)))
    records = []
    for k in range(300):
        # a handful of clusters, each hit at 0.5x and 2x the radius and
        # shared between two pairings
        spread = radius * (0.5 if k % 3 else 2.0) * rng.uniform(-1.0, 1.0, 8)
        cluster = k % 5
        angle = base_angle @ unit_quat_to_rotation(quat_normalize(np.concatenate([[1.0], spread[5:8]])))
        records.append(
            SolutionRecord(
                gluing=Bubble(center=base_center + 1e-3 * cluster + spread[:4], scale=0.01 + spread[4], angle=angle),
                pairing=((1, 2), (2, 1))[k % 2],
                defect_norm=0.0,
                sign=0,
                lambda_over_L2=1.0,
                lift=np.array([1.0, 0.0, 0.0, 0.0]),
                magnitude_residual=0.0,
            )
        )
    for radius_ in (radius, 0.0, 1.0):
        got = _dedupe_records(_sorted_records(records), radius_)
        want = _reference_dedupe(_sorted_records(records), radius_)
        assert [id(r) for r in got] == [id(r) for r in want]
    assert _dedupe_records([], radius) == []


def _reference_complement_frame(top):
    # the single-vector builder that build_defect_chart used before
    order = np.argsort(np.abs(top), kind="stable")
    cols = []
    for axis_index in order[:2]:
        e = np.zeros(3)
        e[axis_index] = 1.0
        e -= (top @ e) * top
        for c in cols:
            e -= (c @ e) * c
        cols.append(e / np.linalg.norm(e))
    return np.column_stack(cols)


def test_defect_chart_matches_single_matrix_frames():
    rng = np.random.default_rng(21)
    mats = list(rng.uniform(-1.0, 1.0, (100, 3, 3)))
    mats += [np.outer(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)) for _ in range(20)]
    mats += [np.eye(3), np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 0.0, 0.0])]
    for f in mats:
        chart = build_defect_chart(f)
        u, _, vh = np.linalg.svd(f)
        assert np.max(np.abs(chart.u_frame - _reference_complement_frame(u[:, 0]))) <= 1e-15
        assert np.max(np.abs(chart.v_frame - _reference_complement_frame(vh[0, :]))) <= 1e-15


# ---------------------------------------------------------------------------
# off-regime agreement


@pytest.mark.parametrize("seed,count,in_22", [(17, 5, 1), (19, 1, 1), (53, 7, 2), (56, 6, 1)])
def test_offregime_structured_matches_oracle(seed, count, in_22):
    # amplitude 1.0 at L = 0.4 leaves the six-solution regime; the counts
    # there are properties of the field, which both searches must agree on
    field, cfg, _, _, _ = _oracle_cell(seed, 1.0, 0.4)
    sc = SolverConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CountAnomalyWarning)
        structured = enumerate_solutions(field, cfg, sc)
    oracle = oracle_enumerate(field, cfg, sc, n_starts=10_000, rng=np.random.default_rng(seed))
    assert len(structured) == count
    assert sum(1 for r in structured if r.pairing == (2, 2)) == in_22
    assert compare_solution_sets(structured, oracle) == []


# ---------------------------------------------------------------------------
# quartic rotation solve and batched signs


@pytest.mark.parametrize("seed,L,count", [(198801500, 0.05, 8), (347867800, 0.05, 7), (413185905, 0.1, 7)])
def test_far_root_cells_signed(seed, L, count):
    # far (1,1) and (2,2) roots at lambda/L^2 of 4 to 17 sit inside the
    # cutoff here; their Jacobians mix scales, yet every sign certifies
    field = make_background(seed, degree=2, amplitude=AMP, check_points=[np.array([s * L, 0, 0, 0.0]) for s in (1, -1)])
    with pytest.warns(CountAnomalyWarning):
        recs = enumerate_solutions(field, TwoPointConfig(L), SolverConfig())
    assert len(recs) == count
    assert {r.sign for r in recs} == {1}


def test_small_h0_keeps_both_lift_roots():
    # the (2,1) target lift of this cell has |Re h| ~ 1e-5, where the
    # quartic's roots pair up and the lift of each root is ambiguous
    L = 0.2
    field = make_background(112489951, degree=2, amplitude=AMP, check_points=[np.array([s * L, 0, 0, 0.0]) for s in (1, -1)])
    cfg = TwoPointConfig(L)
    td = targets(field, cfg)
    h = quat_normalize(rotation_to_quat_pair(td.m_p[1].T @ td.m_q[0])[0])
    assert abs(h[0]) < 1e-4
    recs = enumerate_solutions(field, cfg, SolverConfig())
    counts = {p: sum(1 for r in recs if r.pairing == p) for p in PAIRINGS}
    assert counts == {(1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 1}
    assert {r.sign for r in recs} == {1}


def _all_roots(field, cfg):
    # every certified root of the four pairings, admissible or not
    field_values = (eval_background(field, cfg.p), eval_background(field, cfg.q))
    scale = float(max(batched_singular_values(field_values[0])[0], batched_singular_values(field_values[1])[0]))
    td = targets(field, cfg)
    y, loglam, quats = _branch_candidates(cfg, td, np.inf)
    return _certified_records(field_values, cfg, SolverConfig(), td, y, loglam, quats, scale, np.inf), td, scale


@pytest.mark.parametrize("L,s", [(0.5, 1.0), (0.1, 25.0)])
def test_merged_double_root_gives_one_record(L, s):
    # at L = 1/(2 sqrt(s)) the identity pairings' on-axis roots of the
    # constant reference field merge at lambda = L: the quartic
    # 4 L^2 (lambda^2 - b lambda + L^2) has a double root
    field, cfg, _ = reference_case(L, s)
    recs, _, _ = _all_roots(field, cfg)
    same = [r for r in recs if r.pairing[0] == r.pairing[1]]
    assert sorted(r.pairing for r in same) == [(1, 1), (2, 2)]
    for r in same:
        assert abs(r.gluing.scale - L) < 1e-7 and np.max(np.abs(r.gluing.center)) < 1e-7


def _scaled(field, c):
    return BackgroundField(
        coeffs=tuple(c * k for k in field.coeffs), degree=field.degree, amplitude=c * field.amplitude,
        seed=field.seed, attempt=field.attempt,
    )


def test_sign_certificate_refuses_near_fold():
    # scaling the off-regime field of seed 53 (L = 0.4) by c moves two of
    # its (2,1) roots together until they merge near c = 1.89.  Next to
    # the fold the pair carries opposite signs; their merge point, a
    # near-double root of the quartic, still passes the defect
    # certificate, but its Jacobian is singular and its sign is refused.
    field, cfg, _, _, _ = _oracle_cell(53, 1.0, 0.4)

    def roots_21(c):
        recs, td, scale = _all_roots(_scaled(field, c), cfg)
        return [r for r in recs if r.pairing == (2, 1)], td, scale

    lo, hi = 1.85, 1.95
    assert len(roots_21(lo)[0]) == 4 and len(roots_21(hi)[0]) == 2
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if len(roots_21(mid)[0]) == 4:
            lo = mid
        else:
            hi = mid
    near = _scaled(field, lo)
    (_, a, b, _), td, scale = roots_21(lo)
    assert orientation_sign(near, cfg, a) == -orientation_sign(near, cfg, b)

    y = 0.5 * (a.gluing.center + b.gluing.center)
    m = unit_quat_to_rotation(quat_normalize(y - cfg.p)) @ td.m_p[1].T
    field_values = (eval_background(near, cfg.p), eval_background(near, cfg.q))
    merged = _build_record(field_values, cfg, SolverConfig(), td, (2, 1), y, 0.5 * (a.gluing.scale + b.gluing.scale), m, scale, np.inf)
    assert merged is not None
    with pytest.raises(NearDegenerateError, match="sign margin"):
        orientation_sign(near, cfg, merged)


def _reference_orientation_jacobian(field, cfg, rec, step):
    # the per-record loop orientation_sign used before the batch: all eight
    # columns by central differences, rotation through quat_from_rotation_vector
    f0 = (eval_background(field, cfg.p), eval_background(field, cfg.q))
    y0, lam0, m0 = rec.gluing.center, rec.gluing.scale, rec.gluing.angle
    f_p, f_q = _glued_pair(f0, cfg, y0, lam0, m0)
    chart_p, chart_q = build_defect_chart(f_p), build_defect_chart(f_q)

    def phi(u):
        m = m0 @ unit_quat_to_rotation(quat_from_rotation_vector(u[5:8]))
        g_p, g_q = _glued_pair(f0, cfg, y0 + u[:4], lam0 * np.exp(u[4]), m)
        return np.concatenate([chart_p.value(g_p), chart_q.value(g_q)])

    jac = np.empty((8, 8))
    for k in range(8):
        e = np.zeros(8)
        e[k] = step
        jac[:, k] = (phi(e) - phi(-e)) / (2.0 * step)
    return jac


@pytest.mark.parametrize("seed,amplitude,L", [(2, AMP, 0.1), (198801500, AMP, 0.05), (53, 1.0, 0.4)])
def test_batched_sign_jacobian_matches_per_record_loop(seed, amplitude, L):
    field, cfg, _, field_values, _ = _oracle_cell(seed, amplitude, L)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CountAnomalyWarning)
        recs = enumerate_solutions(field, cfg, SolverConfig())
    jac = _sign_jacobians(
        field_values, cfg, np.array([r.gluing.center for r in recs]), np.array([r.gluing.scale for r in recs]),
        np.array([r.gluing.angle for r in recs]), 1e-5,
    )[0]
    for rec, batched in zip(recs, jac):
        want = _reference_orientation_jacobian(field, cfg, rec, 1e-5)
        assert np.linalg.norm(batched - want) <= 1e-6 * np.linalg.norm(want)
        assert rec.sign == np.sign(np.linalg.det(want))


def test_oracle_drops_overflowing_starts():
    # scales of 1e200 and 1e300 overflow the glued matrices; they must not
    # reach the frame SVD, and the one good start still converges
    field, cfg, _, _, scale = _oracle_cell(2, AMP, 0.1)
    sc = SolverConfig()
    want = enumerate_solutions(field, cfg, sc)[0]
    quat = rotation_to_quat_pair(want.gluing.angle)[0]
    y = np.tile(want.gluing.center, (4, 1))
    lam = np.array([1e200, want.gluing.scale * (1.0 + 1e-3), 1e300, 1e200])
    found = oracle_enumerate(field, cfg, sc, seed_override=(y, lam, np.tile(quat, (4, 1))))
    assert compare_solution_sets(found, [want]) == []
    assert found[0].defect_norm <= sc.newton_tol * scale and found[0].sign == 1
