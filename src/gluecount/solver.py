"""Enumeration of gluing data that make a glued curvature rank-one at two
marked points, with orientation signs and an independent global oracle.

The glued curvature at a point z is F0(z) + B(z), where F0 is the smooth
background and B the bubble curvature.  Because B(z) is a positive
multiple of a rotation, rank-one reducibility at z forces the pair
(magnitude, rotation) of B(z) to be one of the two completion pairs of
F0(z).  The solve therefore splits:

  magnitude   both magnitude equations are quadratic in the bubble scale;
              their difference pins y0 = beta * lambda and their sum the
              offset length, r^2 = |y_I|^2 = b lambda - a lambda^2 - L^2;
  rotation    the remaining condition is R(g(y)) = M_i(p)^T M_j(q) for the
              direction-ratio quaternion g(y) ~ conj(y - p)(y - q)
              = (y0^2 - L^2 + r^2, -2 L y_I).  For a target lift h with
              h0 = Re h and s = |Im h| it puts y_I = -rho Im h / s, where
              the signed offset rho = +-r picks the lift +-h, and leaves
              the branch equation s Q(lambda) = 2 L h0 rho with
              Q = b lambda - lambda^2 - 2 L^2.  Squaring it (h0^2 + s^2 = 1)
              gives one quartic per pairing,
                P = s^2 l^4 - 2 b s^2 l^3 + (s^2 (b^2 + 4 L^2) + 4 a L^2 h0^2) l^2
                    - 4 b L^2 l + 4 L^4,
              which divides by neither s nor h0.  Each real root, started on
              both signs of rho, is finished by Newton on the unsquared pair
              (magnitude, branch) in (lambda, rho) and checked against
              g(y) = +-h;
  angle       the gluing angle is then read off as
              m = R(unit(y - p)) @ M_i(p)^T.

Every candidate is certified directly on the full defect (middle singular
value of both glued matrices), deduplicated, filtered by the admissibility
cutoff lambda <= K * L^alpha, and given an orientation sign: the sign of
the determinant of the 8x8 Jacobian of the stacked 2x2 defect blocks with
respect to (y, log lambda, rotation chart at m).  The sign counts only
when sigma_min(J_h) > SIGN_MARGIN * ||J_h - J_2h||_2 for the Jacobians
whose center columns are central differences at steps h and 2h: their
difference bounds the error of J_h, and by Weyl's inequality no matrix
that close to J_h is singular.  The sign convention is pinned so that the
exactly solvable reference configuration (constant rank-one-shifted
background, bubble at the origin, identity angle) has sign +1.

oracle_enumerate ignores the structured reduction entirely and runs
damped Gauss-Newton on the full 8-dimensional defect system from random
admissible starts; acceptance runs require the two solution sets to agree.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .background import BackgroundField, TargetData, eval_background, targets
from .instanton import Bubble, TwoPointConfig, curvature_arrays, direction_ratio_arrays
from .linalg3 import batched_singular_values
from .rotations import (
    canonical_lift,
    quat_conj,
    quat_from_rotation_vector,
    quat_mul,
    quat_normalize,
    rotation_distance,
    rotation_to_quat_pair,
    sample_unit_quaternion,
    unit_quat_to_rotation,
)

DISC_MERGE_TOL = 1e-9
# quartic roots with |Im z| <= ROOT_IMAG_TOL * max(|z|, L^2) count as real:
# near-double roots come out of the eigenvalue solve as complex pairs
ROOT_IMAG_TOL = 1e-6
BRANCH_NEWTON_ITERS = 16
# a finished root must reproduce its target lift, |g(y) -+ h| <= this
LIFT_TOL = 1e-8
# kappa of the sign certificate sigma_min(J_h) > kappa ||J_h - J_2h||_2
SIGN_MARGIN = 10.0
PAIRINGS = ((1, 1), (1, 2), (2, 1), (2, 2))
EXPECTED_COUNTS = {(1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 1}

# Domain chart (y0..y3, log lambda, rotation chart at m) and defect chart
# (2x2 block at p row-major, then at q).  With these orderings the
# reference configuration comes out at +1 and no extra flip is needed.
ORIENTATION_CONVENTION = (
    "domain (y0,y1,y2,y3,log lambda,xi1,xi2,xi3), right rotation chart; "
    "defect blocks row-major, p before q; reference configuration fixed to +1"
)


class CountAnomalyWarning(UserWarning):
    """Certified solution counts deviate from the 2/2/1/1 pattern."""


class NearDegenerateError(RuntimeError):
    """Orientation Jacobian too close to singular for a certified sign."""


@dataclass(frozen=True)
class SolverConfig:
    """Tunables for the enumeration.

    alpha must lie strictly inside (0, 2): the admissibility cutoff
    lambda <= K * L^alpha only separates the small-bubble branch there.
    newton_tol is the certification tolerance: a solution's full defect
    (middle singular value of both glued matrices) must stay within
    newton_tol times the larger top singular value of the background at
    the two points.  dedupe_radius is the joint (center, scale, angle)
    distance below which two certified solutions of one pairing are one.
    """

    K: float = 1.0
    alpha: float = 1.0
    newton_tol: float = 1e-12
    dedupe_radius: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie strictly in (0, 2)")
        if self.K <= 0.0:
            raise ValueError("K must be positive")


@dataclass(frozen=True)
class SolutionRecord:
    """One certified gluing solution."""

    gluing: Bubble
    pairing: tuple[int, int]
    defect_norm: float
    sign: int
    lambda_over_L2: float
    lift: np.ndarray
    magnitude_residual: float
    admissible: bool = True

    def joint_distance(self, other: "SolutionRecord") -> float:
        return max(
            float(np.max(np.abs(self.gluing.center - other.gluing.center))),
            abs(self.gluing.scale - other.gluing.scale),
            float(rotation_distance(self.gluing.angle, other.gluing.angle)),
        )


def _magnitude_coefficients(cfg: TwoPointConfig, s_p: float, s_q: float) -> tuple[float, float, float]:
    """(a, b, beta) of the eliminated scale quadratic a*l^2 - b*l + c = 0.

    Subtracting the two magnitude equations pins y0 = beta * lambda;
    substituting back leaves the quadratic with c = L^2 + |y_I|^2.
    """
    if not (s_p > 0.0 and s_q > 0.0):
        raise ValueError("target magnitudes must be positive")
    rp = 1.0 / np.sqrt(s_p)
    rq = 1.0 / np.sqrt(s_q)
    beta = (rq - rp) / (4.0 * cfg.L)
    return 1.0 + beta * beta, 0.5 * (rp + rq), beta


def solve_magnitude(cfg: TwoPointConfig, s_p: float, s_q: float, y_I) -> list[tuple[float, float]]:
    """All (y0, lambda) with the bubble magnitude equal to s_p at p and s_q at q.

    Returns the up-to-two roots sorted by lambda; the first entry is the
    small-bubble branch.  Roots merging within DISC_MERGE_TOL of the
    normalized discriminant are reported once.
    """
    a, b, beta = _magnitude_coefficients(cfg, s_p, s_q)
    y_I = np.asarray(y_I, dtype=float).reshape(3)
    c = cfg.L**2 + float(y_I @ y_I)
    disc = b * b - 4.0 * a * c
    eta = disc / (b * b)
    if eta < -DISC_MERGE_TOL:
        return []
    if eta <= DISC_MERGE_TOL:
        lam = b / (2.0 * a)
        return [(beta * lam, lam)]
    root = np.sqrt(disc)
    lam_small = 2.0 * c / (b + root)
    lam_large = (b + root) / (2.0 * a)
    return [(beta * lam_small, lam_small), (beta * lam_large, lam_large)]


def admissible_radius(cfg: TwoPointConfig, sc: SolverConfig, s_p: float, s_q: float) -> float:
    """Radius of the ball of midpoint offsets whose small root obeys the cutoff."""
    a, b, _ = _magnitude_coefficients(cfg, s_p, s_q)
    cutoff = min(sc.K * cfg.L**sc.alpha, b / (2.0 * a))
    c_max = b * cutoff - a * cutoff * cutoff
    return float(np.sqrt(max(c_max - cfg.L**2, 0.0)))


def _branch_candidates(cfg: TwoPointConfig, td: TargetData, cutoff: float):
    """(centers, log scales, angle quaternions) solving the magnitude and
    rotation equations of all four pairings, with scales in (0, cutoff].

    One quartic per pairing (see the module docstring).  Each real root
    starts Newton on the unsquared pair r^2 = b l - a l^2 - L^2,
    s Q(l) = 2 L h0 rho twice, with rho = +r and rho = -r, so that a root
    whose lift is ambiguous (h0 -> 0, where the quartic's roots pair up)
    keeps both branches; duplicates are left to the dedupe.  A finished
    root must reproduce its target lift through direction_ratio_arrays.
    """
    a, b, beta = _magnitude_coefficients(cfg, td.s_p, td.s_q)
    L, L2 = cfg.L, cfg.L**2
    conj_m_p = [quat_conj(rotation_to_quat_pair(m)[0]) for m in td.m_p]
    lifts, lam, rho, rows = [], [], [], []
    for k, (i, j) in enumerate(PAIRINGS):
        h = rotation_to_quat_pair(td.m_p[i - 1].T @ td.m_q[j - 1])[0]
        h0, s2 = h[0], float(h[1:] @ h[1:])
        z = np.roots([s2, -2.0 * b * s2, s2 * (b * b + 4.0 * L2) + 4.0 * a * L2 * h0 * h0, -4.0 * b * L2, 4.0 * L2 * L2])
        z = z.real[np.abs(z.imag) <= ROOT_IMAG_TOL * np.maximum(np.abs(z), L2)]
        r = np.sqrt(np.maximum(b * z - a * z * z - L2, 0.0))
        lifts.append(h)
        lam += [z, z]
        rho += [r, -r]
        rows.append(np.full(2 * z.size, k))
    lifts, conj_p = np.array(lifts), np.array([conj_m_p[i - 1] for i, _ in PAIRINGS])
    lam, rho, rows = np.concatenate(lam), np.concatenate(rho), np.concatenate(rows)
    h0 = lifts[rows, 0]
    s = np.linalg.norm(lifts[rows, 1:], axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(BRANCH_NEWTON_ITERS):
            g1 = rho * rho - (b * lam - a * lam * lam - L2)
            g2 = s * (b * lam - lam * lam - 2.0 * L2) - 2.0 * L * h0 * rho
            j11, j12 = 2.0 * a * lam - b, 2.0 * rho
            j21, j22 = s * (b - 2.0 * lam), -2.0 * L * h0
            det = j11 * j22 - j12 * j21
            # a singular step (det = 0 at an exact double root) leaves the root where it is
            d_lam = np.nan_to_num((g1 * j22 - g2 * j12) / det, nan=0.0, posinf=0.0, neginf=0.0)
            d_rho = np.nan_to_num((j11 * g2 - j21 * g1) / det, nan=0.0, posinf=0.0, neginf=0.0)
            lam, rho = lam - d_lam, rho - d_rho
            # done once no root inside the cutoff moves beyond round-off; the
            # far roots (r -> 0 near lambda = b/a) stall at a coarser floor
            moving = (np.abs(d_lam) > 1e-15 * np.abs(lam)) | (np.abs(d_rho) > 1e-15 * (np.abs(rho) + L))
            if not np.any(moving & (lam <= cutoff)):
                break
        # y_I = -rho Im h / s; at s = 0 (identity target) the root has rho = 0
        axis = np.where(s[:, None] > 0.0, lifts[rows, 1:] / s[:, None], 0.0)
    keep = np.isfinite(lam) & np.isfinite(rho) & (lam > 0.0) & (lam <= cutoff * (1.0 + 1e-9))
    lam, rho, rows, axis = lam[keep], rho[keep], rows[keep], axis[keep]
    y = np.column_stack([beta * lam, -rho[:, None] * axis])
    g = direction_ratio_arrays(cfg.p, cfg.q, y)
    h = lifts[rows]
    miss = np.minimum(np.linalg.norm(g - h, axis=1), np.linalg.norm(g + h, axis=1))
    keep = miss <= LIFT_TOL
    y, lam, rows = y[keep], lam[keep], rows[keep]
    # m = R(unit(y - p)) M_i(p)^T, as the quaternion unit(y - p) * conj(lift of M_i(p))
    quats = quat_mul(quat_normalize(y - cfg.p), conj_p[rows])
    return y, np.log(lam), quats


def _glued_pair(field_values: tuple[np.ndarray, np.ndarray], cfg: TwoPointConfig, center, scale, angle):
    f_p = field_values[0] + curvature_arrays(center, scale, angle, cfg.p)
    f_q = field_values[1] + curvature_arrays(center, scale, angle, cfg.q)
    return f_p, f_q


def _magnitude_residual(cfg: TwoPointConfig, s_p: float, s_q: float, y: np.ndarray, lam: float) -> float:
    rp = lam**2 + float(np.sum((y - cfg.p) ** 2)) - lam / np.sqrt(s_p)
    rq = lam**2 + float(np.sum((y - cfg.q) ** 2)) - lam / np.sqrt(s_q)
    return max(abs(rp), abs(rq))


def _build_record(
    field_values: tuple[np.ndarray, np.ndarray],
    cfg: TwoPointConfig,
    sc: SolverConfig,
    td: TargetData,
    pairing: tuple[int, int],
    y: np.ndarray,
    lam: float,
    m: np.ndarray,
    scale: float,
    cutoff: float,
    defect: float | None = None,
) -> SolutionRecord | None:
    """Certify a candidate on the full defect; None when certification fails.

    The defect (larger sigma2 of the two glued matrices) is computed here
    unless the caller already has it from a stacked certification.
    """
    if defect is None:
        f_p, f_q = _glued_pair(field_values, cfg, y, lam, m)
        defect = float(max(batched_singular_values(f_p)[1], batched_singular_values(f_q)[1]))
    if defect > sc.newton_tol * scale:
        return None
    small_branch = lam < 0.5 / np.sqrt(td.s_p)
    bubble = Bubble(center=y, scale=lam, angle=m)
    return SolutionRecord(
        gluing=bubble,
        pairing=pairing,
        defect_norm=defect,
        sign=0,
        lambda_over_L2=lam / cfg.L**2,
        lift=canonical_lift(rotation_to_quat_pair(m)[0]),
        magnitude_residual=_magnitude_residual(cfg, td.s_p, td.s_q, y, lam),
        admissible=bool(small_branch and lam <= cutoff * (1.0 + 1e-12)),
    )


def _greedy_dedupe(
    pairs: np.ndarray, centers: np.ndarray, scales: np.ndarray, angles: np.ndarray, radius: float
) -> list[int]:
    """Indices of the rows kept by a greedy dedupe in the given order.

    A row is kept when its joint distance (the largest of the center
    inf-norm difference, |delta scale| and the rotation distance) to every
    earlier kept row of the same pairing is at least radius.  One batched
    distance per kept row, over the undecided rows of its pairing, marks
    the rest.
    """
    far = np.ones(len(scales), dtype=bool)
    keep: list[int] = []
    while np.any(far):
        k = int(np.argmax(far))
        keep.append(k)
        far[k] = False
        rows = np.flatnonzero(far & np.all(pairs == pairs[k], axis=1))
        dist = np.maximum(np.max(np.abs(centers[rows] - centers[k]), axis=1), np.abs(scales[rows] - scales[k]))
        dist = np.maximum(dist, rotation_distance(angles[rows], angles[k]))
        far[rows[dist < radius]] = False
    return keep


def _dedupe_records(records: list[SolutionRecord], radius: float) -> list[SolutionRecord]:
    keep = _greedy_dedupe(
        np.array([r.pairing for r in records]),
        np.array([r.gluing.center for r in records]),
        np.array([r.gluing.scale for r in records]),
        np.array([r.gluing.angle for r in records]),
        radius,
    )
    return [records[k] for k in keep]


def _sorted_records(records: list[SolutionRecord]) -> list[SolutionRecord]:
    return sorted(
        records,
        key=lambda r: (r.pairing, r.gluing.scale, tuple(r.gluing.center), tuple(r.gluing.angle.ravel())),
    )


def enumerate_solutions(
    field: BackgroundField,
    cfg: TwoPointConfig,
    sc: SolverConfig | None = None,
    compute_signs: bool = True,
) -> list[SolutionRecord]:
    """All admissible gluing solutions for the field, certified and signed.

    One quartic per target pairing gives every root of the rotation
    equation in closed form (_branch_candidates); the roots are certified
    on the full defect, sorted and deduplicated as one stack, filtered by
    the admissibility cutoff and signed in one batch.  A deviation from
    the expected 2/2/1/1 per-pairing pattern emits CountAnomalyWarning
    (the records are still returned).
    """
    sc = sc or SolverConfig()
    td = targets(field, cfg)
    f0_p = eval_background(field, cfg.p)
    f0_q = eval_background(field, cfg.q)
    field_values = (f0_p, f0_q)
    scale = float(max(batched_singular_values(f0_p)[0], batched_singular_values(f0_q)[0]))
    cutoff = sc.K * cfg.L**sc.alpha

    y, loglam, quats = _branch_candidates(cfg, td, cutoff)
    records = _certified_records(field_values, cfg, sc, td, y, loglam, quats, scale, cutoff)
    admissible = [r for r in records if r.admissible]
    counts = {pairing: sum(1 for r in admissible if r.pairing == pairing) for pairing in PAIRINGS}
    if counts != EXPECTED_COUNTS:
        warnings.warn(
            f"certified admissible counts {counts} deviate from the expected {EXPECTED_COUNTS} "
            f"(L={cfg.L}, seed={field.seed})",
            CountAnomalyWarning,
            stacklevel=2,
        )
    if compute_signs:
        admissible = _signed_records(field_values, cfg, admissible)
    return admissible


# ---------------------------------------------------------------------------
# defect charts and orientation signs


@dataclass(frozen=True)
class DefectChart:
    """Fixed orthonormal frames transverse to the rank-one stratum.

    u_frame and v_frame span the orthogonal complements of the top left
    and right singular vectors of the base matrix.  The 2x2 block
    u_frame^T F v_frame vanishes exactly when F has rank <= 1 (while the
    top singular value stays away from zero), so the block is a local
    coordinate system for the reducibility condition.
    """

    u_frame: np.ndarray
    v_frame: np.ndarray

    def value(self, f: np.ndarray) -> np.ndarray:
        return (self.u_frame.T @ f @ self.v_frame).reshape(4)


def _batched_frames(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complement frames of the top singular vectors for a (n, 3, 3) stack.

    Each frame is the Gram-Schmidt basis of top^perp built from the two
    standard axes least aligned with top (stable order, deterministic).
    """
    u, _, vh = np.linalg.svd(mats)
    tops = (u[:, :, 0], vh[:, 0, :])
    frames = []
    for top in tops:
        order = np.argsort(np.abs(top), axis=1, kind="stable")
        cols = []
        for slot in range(2):
            e = np.zeros_like(top)
            np.put_along_axis(e, order[:, slot : slot + 1], 1.0, axis=1)
            e = e - np.sum(top * e, axis=1, keepdims=True) * top
            for c in cols:
                e = e - np.sum(c * e, axis=1, keepdims=True) * c
            e = e / np.linalg.norm(e, axis=1, keepdims=True)
            cols.append(e)
        frames.append(np.stack(cols, axis=-1))
    return frames[0], frames[1]


def build_defect_chart(f: np.ndarray) -> DefectChart:
    u_frames, v_frames = _batched_frames(np.asarray(f, dtype=float)[None])
    return DefectChart(u_frame=u_frames[0], v_frame=v_frames[0])


def _sign_jacobians(field_values, cfg: TwoPointConfig, y, lam, mats, step: float) -> np.ndarray:
    """(2, n, 8, 8) Jacobians J_h and J_2h of the defect blocks at a stack of solutions.

    Fixed frames anchored at each solution; columns 4-7 in closed form
    (_scale_rotation_columns), shared by both; the four center columns
    by central differences at steps h and 2h, from one stacked glue call.
    """
    n = y.shape[0]
    glued = _glued_pair(field_values, cfg, y, lam, mats)
    frames = (_batched_frames(glued[0]), _batched_frames(glued[1]))
    # centers moved by +-h and +-2h along each axis: (step, axis, side, record, 4)
    steps = np.array([step, 2.0 * step])
    offsets = steps[:, None, None, None, None] * np.eye(4)[None, :, None, None, :] * np.array([1.0, -1.0])[:, None, None]
    moved = _oracle_blocks(frames, _glued_pair(field_values, cfg, y + offsets, lam, mats)).reshape(2, 4, 2, n, 8)
    jac = np.empty((2, n, 8, 8))
    jac[..., :4] = np.moveaxis((moved[:, :, 0] - moved[:, :, 1]) / (2.0 * steps[:, None, None, None]), 1, -1)
    _scale_rotation_columns(field_values, cfg, y, np.log(lam), glued, frames, jac[0])
    jac[1, ..., 4:] = jac[0, ..., 4:]
    return jac


def _signed_records(field_values, cfg: TwoPointConfig, records: list[SolutionRecord], step: float = 1e-5):
    """The records with their orientation signs, all computed in one batch.

    The sign of det J_h is certified when sigma_min(J_h) > SIGN_MARGIN *
    ||J_h - J_2h||_2 (_sign_jacobians); otherwise NearDegenerateError
    names the smallest margin and its record.
    """
    if not records:
        return []
    jac = _sign_jacobians(
        field_values,
        cfg,
        np.array([r.gluing.center for r in records]),
        np.array([r.gluing.scale for r in records]),
        np.array([r.gluing.angle for r in records]),
        step,
    )
    sigma_min = np.linalg.svd(jac[0], compute_uv=False)[:, -1]
    error = np.linalg.norm(jac[0] - jac[1], ord=2, axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = sigma_min / error
    worst = int(np.argmin(np.where(np.isnan(margin), -np.inf, margin)))
    if not margin[worst] > SIGN_MARGIN:
        rec = records[worst]
        raise NearDegenerateError(
            f"sign margin sigma_min(J) / |J_h - J_2h| = {margin[worst]:.3g} not above {SIGN_MARGIN:g} "
            f"(sigma_min {sigma_min[worst]:.3e}, step error {error[worst]:.3e}) "
            f"at the {rec.pairing} solution with lambda/L^2 = {rec.lambda_over_L2:.6g}"
        )
    signs = np.where(np.linalg.det(jac[0]) > 0.0, 1, -1)
    return [replace(rec, sign=int(sign)) for rec, sign in zip(records, signs)]


def orientation_sign(
    field: BackgroundField,
    cfg: TwoPointConfig,
    rec: SolutionRecord,
    step: float = 1e-5,
) -> int:
    """Sign of the 8x8 Jacobian of the stacked defect blocks at a solution.

    Chart (y, log lambda, right rotation chart at the gluing angle), fixed
    defect frames anchored at the solution; the one-record case of the
    batch that enumerate_solutions and oracle_enumerate sign through.
    Raises NearDegenerateError when the sign is not certified.
    """
    field_values = (eval_background(field, cfg.p), eval_background(field, cfg.q))
    return _signed_records(field_values, cfg, [rec], step)[0].sign


def reference_case(L: float, s: float = 1.0) -> tuple[BackgroundField, TwoPointConfig, SolutionRecord]:
    """Exactly solvable configuration that pins the orientation convention.

    The constant background w z^T - s I has the identity among its
    completion rotations at both points with magnitude s; the bubble at
    the origin with identity angle and the small scale root then zeroes
    both defects exactly.  The orientation sign of this record defines +1.
    """
    w = np.array([0.9, 0.2, -0.4])
    z = np.array([0.3, 1.1, 0.5])
    a = np.outer(w, z) - s * np.eye(3)
    field = BackgroundField(coeffs=(a,), degree=0, amplitude=1.0, seed=-1, attempt=0)
    cfg = TwoPointConfig(L)
    td = targets(field, cfg)
    if not abs(td.s_p - s) < 1e-9 * s:
        raise RuntimeError("reference background lost its designed magnitude")
    identity_index = 1 if rotation_distance(td.m_p[0], np.eye(3)) < 1e-9 else 2
    roots = solve_magnitude(cfg, s, s, np.zeros(3))
    if not roots:
        raise ValueError("reference configuration needs L < 1/(2 sqrt(s))")
    lam = roots[0][1]
    sc = SolverConfig()
    f0 = eval_background(field, cfg.p)
    scale = float(batched_singular_values(f0)[0])
    rec = _build_record(
        (f0, eval_background(field, cfg.q)),
        cfg,
        sc,
        td,
        (identity_index, identity_index),
        np.zeros(4),
        lam,
        np.eye(3),
        scale,
        cutoff=np.inf,
    )
    if rec is None:
        raise RuntimeError("reference configuration failed certification")
    return field, cfg, rec


# ---------------------------------------------------------------------------
# global 8-dimensional oracle

# -[e_k]_x for k = 1, 2, 3.  Under the right chart angle -> angle @ exp([xi]_x)
# the bubble term angle^T R(u) moves by -[xi]_x angle^T R(u) to first order.
_ROTATION_GENERATORS = -np.array(
    [
        [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ]
)


def _oracle_starts(cfg, sc, td, rng, n):
    """n random (centers, log scales, angle quaternions) over the admissible region.

    Scale log-uniform over the admissible window, angle Haar; half the
    centers uniform over the admissible ball, half on the magnitude-
    feasible shell of their sampled scale, so that roots at every
    admissible scale (down to L^2 near the midpoint) get seeded.  The
    rotation structure, where the actual counting happens, stays blind.
    """
    cutoff = sc.K * cfg.L**sc.alpha
    radius = admissible_radius(cfg, sc, td.s_p, td.s_q)
    loglam = rng.uniform(np.log(cfg.L**3), np.log(cutoff), n)
    quats = sample_unit_quaternion(rng, n)
    direction = rng.standard_normal((n, 4))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    y = direction * (radius * rng.uniform(0.0, 1.0, (n, 1)) ** 0.25)
    a, b, beta = _magnitude_coefficients(cfg, td.s_p, td.s_q)
    lam = np.exp(loglam)
    shell_sq = b * lam - a * lam * lam - cfg.L**2
    on_shell = (np.arange(n) % 2 == 0) & (shell_sq > 0.0)
    dir3 = rng.standard_normal((n, 3))
    dir3 /= np.linalg.norm(dir3, axis=1, keepdims=True)
    y[on_shell, 0] = beta * lam[on_shell]
    y[on_shell, 1:] = dir3[on_shell] * np.sqrt(shell_sq[on_shell])[:, None]
    return y, loglam, quats


def _oracle_glue(field_values, cfg, y, loglam, quats) -> tuple[np.ndarray, np.ndarray]:
    """Glued curvature matrices (f_p, f_q), each (n, 3, 3), at a stack of states."""
    with np.errstate(over="ignore"):
        lam = np.exp(loglam)
    return _glued_pair(field_values, cfg, y, lam, unit_quat_to_rotation(quats))


def _oracle_blocks(frames, glued) -> np.ndarray:
    """Stacked 2x2 defect blocks (n, 8) of glued matrices in the supplied fixed frames."""
    (up, vp), (uq, vq) = frames
    block_p = np.swapaxes(up, -1, -2) @ glued[0] @ vp
    block_q = np.swapaxes(uq, -1, -2) @ glued[1] @ vq
    return np.concatenate([block_p.reshape(-1, 4), block_q.reshape(-1, 4)], axis=1)


def _oracle_advance(y, loglam, quats, delta):
    """Step a stack of states along (center, log scale, right rotation chart)."""
    # clamp log-scale so runaway starts cannot overflow exp()
    return (
        y + delta[:, :4],
        np.clip(loglam + delta[:, 4], -600.0, 600.0),
        quat_mul(quats, quat_from_rotation_vector(delta[:, 5:8])),
    )


def _scale_rotation_columns(field_values, cfg, y, loglam, glued, frames, jac) -> None:
    """Write Jacobian columns 4-7 of a (n, 8, 8) stack in closed form.

    With C = glued - F0 the bubble term at a marked point, the log-scale
    column is 2 (r^2 - lam^2) / (r^2 + lam^2) C and rotation column k is
    -[e_k]_x C, both projected through the frames.
    """
    n = y.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        lam2 = np.exp(loglam) ** 2
        for rows, point, f0, (u, v), f in zip((slice(0, 4), slice(4, 8)), (cfg.p, cfg.q), field_values, frames, glued):
            bubble = f - f0
            ut = np.swapaxes(u, -1, -2)
            r2 = np.sum((point - y) ** 2, axis=-1)
            ratio = 2.0 * (r2 - lam2) / (r2 + lam2)
            jac[:, rows, 4] = ratio[:, None] * (ut @ bubble @ v).reshape(n, 4)
            for k in range(3):
                jac[:, rows, 5 + k] = (ut @ (_ROTATION_GENERATORS[k] @ bubble) @ v).reshape(n, 4)


def _oracle_jacobian(field_values, cfg, y, loglam, quats, glued, frames, blocks) -> np.ndarray:
    """(n, 8, 8) Jacobians of the defect blocks in the domain chart.

    The four center columns are forward differences of size 1e-7 L from
    the base blocks; columns 4-7 are closed form.
    """
    center_step = 1e-7 * cfg.L
    jac = np.empty((y.shape[0], 8, 8))
    for k in range(4):
        bumped = y.copy()
        bumped[:, k] += center_step
        moved = _oracle_glue(field_values, cfg, bumped, loglam, quats)
        jac[:, :, k] = (_oracle_blocks(frames, moved) - blocks) / center_step
    _scale_rotation_columns(field_values, cfg, y, loglam, glued, frames, jac)
    return jac


def _oracle_descent(field_values, cfg, y, loglam, quats, scale, max_iters):
    """Damped Gauss-Newton on the stacked defect blocks over a stack of starts.

    The frames are rebuilt at every iterate from its glued matrices; the
    glued matrices of accepted line-search trials carry over to the next
    iteration.  Starts drop out once converged (below 1e-13 * scale) or
    stalled.  Returns the final (y, loglam, quats, residual norms).
    """
    y, loglam, quats = y.copy(), loglam.copy(), quats.copy()
    n = y.shape[0]
    glued = _oracle_glue(field_values, cfg, y, loglam, quats)
    rnorm = np.full(n, np.inf)
    # a start whose glued matrices overflow never reaches the frame SVD
    active = np.flatnonzero(np.all(np.isfinite(glued[0]), axis=(1, 2)) & np.all(np.isfinite(glued[1]), axis=(1, 2)))
    for _ in range(max_iters):
        if active.size == 0:
            break
        ya, la, qa = y[active], loglam[active], quats[active]
        ga = (glued[0][active], glued[1][active])
        frames = (_batched_frames(ga[0]), _batched_frames(ga[1]))
        ra = _oracle_blocks(frames, ga)
        ran = np.linalg.norm(ra, axis=1)
        m = active.size
        jac = _oracle_jacobian(field_values, cfg, ya, la, qa, ga, frames, ra)
        jtj = jac.transpose(0, 2, 1) @ jac
        jtr = np.einsum("nik,ni->nk", jac, ra)
        bad = ~np.all(np.isfinite(jtj), axis=(1, 2))
        jtj[bad] = np.eye(8)
        jtr[bad] = 0.0
        jtj += 1e-14 * np.trace(jtj, axis1=1, axis2=2)[:, None, None] * np.eye(8) + 1e-300 * np.eye(8)
        delta = -np.linalg.solve(jtj, jtr[..., None])[..., 0]
        damp = np.ones(m)
        improved = np.zeros(m, dtype=bool)
        rn_new = ran.copy()
        for _ in range(6):
            yt, lt, qt = _oracle_advance(ya, la, qa, damp[:, None] * delta)
            gt = _oracle_glue(field_values, cfg, yt, lt, qt)
            rt = np.linalg.norm(_oracle_blocks(frames, gt), axis=1)
            rt = np.where(np.isfinite(rt), rt, np.inf)
            take = (rt < ran) & ~improved
            if np.any(take):
                rows = active[take]
                y[rows], loglam[rows], quats[rows] = yt[take], lt[take], qt[take]
                glued[0][rows], glued[1][rows] = gt[0][take], gt[1][take]
                rn_new[take] = rt[take]
                improved |= take
            if np.all(improved):
                break
            damp = np.where(improved, damp, damp * 0.5)
        rnorm[active] = rn_new
        active = active[improved & (rn_new > 1e-13 * scale)]
    return y, loglam, quats, rnorm


def _certified_records(field_values, cfg, sc, td, y, loglam, quats, scale, cutoff) -> list[SolutionRecord]:
    """Certified, sorted and deduplicated records from a stack of converged states.

    Pairing labels, the full-defect certificate, the ordering and the
    greedy dedupe all run on the whole stack; only the kept rows become
    records through _build_record, which takes their defect from the stack.
    """
    lam = np.exp(loglam)
    mats = unit_quat_to_rotation(quat_normalize(quats))
    labels = []
    for point, choices in ((cfg.p, td.m_p), (cfg.q, td.m_q)):
        seen = np.swapaxes(mats, -1, -2) @ unit_quat_to_rotation(quat_normalize(point - y))
        labels.append(np.where(rotation_distance(seen, choices[0]) <= rotation_distance(seen, choices[1]), 1, 2))
    pairs = np.column_stack(labels)
    f_p, f_q = _glued_pair(field_values, cfg, y, lam, mats)
    defect = np.maximum(batched_singular_values(f_p)[:, 1], batched_singular_values(f_q)[:, 1])
    good = np.flatnonzero(defect <= sc.newton_tol * scale)
    # the _sorted_records key: pairing, scale, center, angle
    keys = np.column_stack([pairs[good], lam[good], y[good], mats[good].reshape(-1, 9)])
    rows = good[np.lexsort(keys.T[::-1])]
    rows = rows[_greedy_dedupe(pairs[rows], y[rows], lam[rows], mats[rows], sc.dedupe_radius)]
    records = []
    for k in rows:
        pairing = (int(pairs[k, 0]), int(pairs[k, 1]))
        rec = _build_record(field_values, cfg, sc, td, pairing, y[k], float(lam[k]), mats[k], scale, cutoff, float(defect[k]))
        if rec is not None:
            records.append(rec)
    return records


def oracle_enumerate(
    field: BackgroundField,
    cfg: TwoPointConfig,
    sc: SolverConfig | None = None,
    n_starts: int = 10_000,
    rng: np.random.Generator | None = None,
    compute_signs: bool = True,
    keep_inadmissible: bool = False,
    seed_override: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    max_iters: int = 60,
) -> list[SolutionRecord]:
    """Independent global search on the full 8-dimensional defect system.

    Starts are drawn uniformly over the admissible region (center in the
    admissible ball, scale log-uniform in [L^3, K L^alpha], angle Haar)
    and refined by damped Gauss-Newton with per-iteration defect frames
    (center Jacobian columns by forward differences, scale and rotation
    columns in closed form).  The converged starts are then labelled,
    certified on the full defect, sorted and deduplicated as one stack,
    so that only the distinct solutions become records.  Certification,
    deduplication, admissibility filtering and signs match
    enumerate_solutions, so the two solution sets are directly comparable.
    seed_override injects explicit (centers, scales, angle quaternions).
    """
    sc = sc or SolverConfig()
    rng = rng or np.random.default_rng(0)
    td = targets(field, cfg)
    f0_p = eval_background(field, cfg.p)
    f0_q = eval_background(field, cfg.q)
    field_values = (f0_p, f0_q)
    scale = float(max(batched_singular_values(f0_p)[0], batched_singular_values(f0_q)[0]))
    cutoff = sc.K * cfg.L**sc.alpha

    if seed_override is not None:
        y, lam_seed, quats = seed_override
        y = np.asarray(y, dtype=float).reshape(-1, 4)
        loglam = np.log(np.asarray(lam_seed, dtype=float).reshape(-1))
        quats = np.asarray(quats, dtype=float).reshape(-1, 4)
    else:
        y, loglam, quats = _oracle_starts(cfg, sc, td, rng, n_starts)

    y, loglam, quats, rnorm = _oracle_descent(field_values, cfg, y, loglam, quats, scale, max_iters)
    converged = rnorm <= 1e-12 * scale
    records = _certified_records(
        field_values, cfg, sc, td, y[converged], loglam[converged], quats[converged], scale, cutoff
    )
    if not keep_inadmissible:
        records = [r for r in records if r.admissible]
    if compute_signs:
        signed = iter(_signed_records(field_values, cfg, [r for r in records if r.admissible]))
        records = [next(signed) if rec.admissible else rec for rec in records]
    return records


def compare_solution_sets(a: list[SolutionRecord], b: list[SolutionRecord], tol: float = 1e-6) -> list[str]:
    """One-to-one matching report between two solution sets.

    Empty list means the sets agree: same size, bijective matching within
    tol in the joint (center, scale, angle) metric, and matching pairings.
    """
    problems: list[str] = []
    unmatched_b = list(range(len(b)))
    for ka, rec in enumerate(a):
        best = None
        best_d = np.inf
        for kb in unmatched_b:
            d = rec.joint_distance(b[kb])
            if d < best_d:
                best, best_d = kb, d
        if best is None or best_d > tol:
            problems.append(f"record {ka} (pairing {rec.pairing}) has no partner within {tol:g} (closest {best_d:.3e})")
            continue
        if b[best].pairing != rec.pairing:
            problems.append(f"record {ka} matches a partner with different pairing {b[best].pairing} != {rec.pairing}")
        unmatched_b.remove(best)
    for kb in unmatched_b:
        problems.append(f"second set record {kb} (pairing {b[kb].pairing}) is unmatched")
    return problems
