"""Completing a 3x3 matrix to rank one with a scaled rotation.

For a matrix P with distinct singular values s1 > s2 > s3 >= 0 there are
exactly two pairs (s, M) in (0, inf) x SO(3) with P + s*M of rank 1, and
both have s = sigma2(P).  In signed-SVD coordinates, where P becomes
diag(s1, s2, c) with c = det_sign * s3, the two rotations are the half-turns
M' = 2 n n^T - I about the axes n = (+-n1, 0, n3) with

    n1^2 = (s1 - s2)(s2 + c) / (2 s2 (s1 - c)),   n3^2 = 1 - n1^2.

When exactly two singular values agree (and are nonzero) the two axes
merge and a single double-root rotation survives.  Every returned pair is
certified at runtime by the sigma2 residual of P + s*M, and an independent
multi-start oracle recovers the same set by minimizing the rank-one defect
over the unit quaternions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg3 import (
    DEFAULT_REL_TOL,
    StratumTag,
    adjugate3,
    batched_singular_values,
    classify_stratum,
    sigma2,
    svd_signed,
)
from .rotations import (
    quat_from_rotation_vector,
    quat_mul,
    quat_to_rotation,
    rotation_angle,
    rotation_distance,
    sample_unit_quaternion,
)

RESIDUAL_FACTOR = 1e-9
ORACLE_DEDUPE_ANGLE = 1e-4


class OutcomeKind(Enum):
    TWO_DISTINCT = "two_distinct"
    DOUBLE_ROOT = "double_root"
    DEGENERATE = "degenerate"


class OracleInconclusiveError(RuntimeError):
    """Raised when a full-size multi-start search finds fewer than two minima."""


class CertificationError(RuntimeError):
    """A computed pair failed its runtime rank-one residual bound."""


@dataclass(frozen=True)
class RankOnePair:
    s: float
    m: np.ndarray
    residual: float


@dataclass(frozen=True)
class RankOneOutcome:
    kind: OutcomeKind
    pairs: tuple[RankOnePair, ...]
    stratum: StratumTag


def _axis_component(s1: float, s2: float, s3: float, det_sign: int) -> float:
    """n1^2 for the half-turn axis, clipped into [0, 1] against roundoff."""
    c = det_sign * s3
    denom = 2.0 * s2 * (s1 - c)
    if denom <= 0.0:
        raise ValueError("axis formula needs sigma2 > 0 and sigma1 > det_sign*sigma3")
    return float(np.clip((s1 - s2) * (s2 + c) / denom, 0.0, 1.0))


def _half_turn(n: np.ndarray) -> np.ndarray:
    return 2.0 * np.outer(n, n) - np.eye(3)


def solve_rank_one_reduced(sigma: np.ndarray, det_sign: int) -> list[np.ndarray]:
    """The two rotations M' with diag(s1, s2, det_sign*s3) + s2*M' of rank 1.

    Requires strictly sorted singular values s1 > s2 > s3 >= 0.  Listed
    with the nonnegative-n1 axis first.
    """
    s1, s2, s3 = (float(x) for x in sigma)
    if not (s1 > s2 > s3 >= 0.0):
        raise ValueError("singular values must satisfy s1 > s2 > s3 >= 0")
    n1sq = _axis_component(s1, s2, s3, det_sign)
    n1 = np.sqrt(n1sq)
    n3 = np.sqrt(1.0 - n1sq)
    return [_half_turn(np.array([n1, 0.0, n3])), _half_turn(np.array([-n1, 0.0, n3]))]


def _certified_pair(p: np.ndarray, s: float, m: np.ndarray, scale: float) -> RankOnePair:
    residual = sigma2(p + s * m)
    if residual > RESIDUAL_FACTOR * scale:
        raise CertificationError(
            f"rank-one residual {residual:.3e} exceeds {RESIDUAL_FACTOR:.0e} * sigma1 = {RESIDUAL_FACTOR * scale:.3e}"
        )
    return RankOnePair(s=s, m=m, residual=residual)


def solve_rank_one(p: np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> RankOneOutcome:
    """All pairs (s, M) with P + s*M of rank 1, stratified by degeneracy.

    Generic input yields two certified pairs (nonnegative-n1 solution
    first), a top or bottom singular-value tie yields the single
    double-root pair, and every other stratum is reported as degenerate
    with no pairs rather than raising.
    """
    p = np.asarray(p, dtype=float)
    stratum = classify_stratum(p, rel_tol)
    fac = svd_signed(p)
    s1 = float(fac.sigma[0])
    s = float(fac.sigma[1])

    if stratum.tag == StratumTag.GENERIC:
        reduced = solve_rank_one_reduced(fac.sigma, fac.det_sign)
        pairs = tuple(_certified_pair(p, s, fac.u @ mp @ fac.v.T, s1) for mp in reduced)
        return RankOneOutcome(OutcomeKind.TWO_DISTINCT, pairs, stratum.tag)

    if stratum.tag in (StratumTag.TOP_PAIR_EQUAL, StratumTag.BOTTOM_PAIR_EQUAL):
        # The tied pair is nonzero on these strata, so the axis formula
        # degenerates cleanly to a single half-turn.
        n1sq = _axis_component(s1, s, float(fac.sigma[2]), fac.det_sign)
        n = np.array([np.sqrt(n1sq), 0.0, np.sqrt(1.0 - n1sq)])
        pair = _certified_pair(p, s, fac.u @ _half_turn(n) @ fac.v.T, s1)
        return RankOneOutcome(OutcomeKind.DOUBLE_ROOT, (pair,), stratum.tag)

    return RankOneOutcome(OutcomeKind.DEGENERATE, (), stratum.tag)


def _rank_one_defect(p: np.ndarray, s: float, quats: np.ndarray) -> np.ndarray:
    """Flattened adjugate of P + s*R(g): a smooth residual vanishing at rank <= 1."""
    mats = p + s * quat_to_rotation(quats)
    return adjugate3(mats).reshape(quats.shape[:-1] + (9,))


def _gauss_newton_quats(p: np.ndarray, s: float, quats: np.ndarray, iters: int, fd_step: float = 1e-7) -> np.ndarray:
    """Damped Gauss-Newton over the rotation group, vectorized over starts.

    Converged starts drop out of the active batch, so late iterations only
    pay for the stragglers.
    """
    g = quats.copy()
    active = np.arange(g.shape[0])
    r = _rank_one_defect(p, s, g)
    rnorm = np.linalg.norm(r, axis=-1)
    tangent_steps = np.eye(3) * fd_step
    for _ in range(iters):
        live = rnorm[active] > 1e-15
        active = active[live]
        if active.size == 0:
            break
        ga = g[active]
        ra = _rank_one_defect(p, s, ga)
        ran = np.linalg.norm(ra, axis=-1)
        n = active.size
        jac = np.empty((n, 9, 3))
        for k in range(3):
            bumped = quat_mul(ga, quat_from_rotation_vector(tangent_steps[k]))
            jac[:, :, k] = (_rank_one_defect(p, s, bumped) - ra) / fd_step
        jtj = jac.transpose(0, 2, 1) @ jac
        jtr = np.einsum("nik,ni->nk", jac, ra)
        # small ridge keeps the batched solve nonsingular for dead starts
        jtj += 1e-14 * np.trace(jtj, axis1=1, axis2=2)[:, None, None] * np.eye(3) + 1e-30 * np.eye(3)
        delta = -np.linalg.solve(jtj, jtr[..., None])[..., 0]
        step = np.ones(n)
        improved = np.zeros(n, dtype=bool)
        g_new = ga.copy()
        rn_new = ran.copy()
        for _ in range(6):
            trial = quat_mul(ga, quat_from_rotation_vector(step[:, None] * delta))
            rtn = np.linalg.norm(_rank_one_defect(p, s, trial), axis=-1)
            take = (rtn < ran) & ~improved
            if np.any(take):
                g_new[take] = trial[take]
                rn_new[take] = rtn[take]
                improved |= take
            if np.all(improved):
                break
            step = np.where(improved, step, step * 0.5)
        g[active] = g_new
        rnorm[active] = rn_new
        # drop converged starts and stalled ones that cannot improve
        active = active[improved & (rn_new > 1e-15)]
    return g


def _greedy_representatives(mats: np.ndarray, angle: float) -> list[int]:
    """Indices of the rotations kept by a greedy dedupe in the given order.

    A rotation is kept when it lies at least `angle` from every rotation
    kept before it; one batched distance per kept rotation marks the rest.
    """
    far = np.ones(mats.shape[0], dtype=bool)
    keep: list[int] = []
    while np.any(far):
        k = int(np.argmax(far))
        keep.append(k)
        far &= rotation_distance(mats, mats[k]) >= angle
    return keep


def oracle_rank_one(
    p: np.ndarray,
    n_starts: int = 1000,
    rng: np.random.Generator | None = None,
    iters: int = 40,
) -> list[RankOnePair]:
    """Independent multi-start search for the rank-one completions of P.

    Haar-random starts are refined by damped Gauss-Newton on the adjugate
    residual of P + sigma2(P)*R(g); minima with sigma2 defect below
    1e-9*sigma1 are deduplicated at 1e-4 geodesic angle and returned
    sorted by angle to the identity.  Raises OracleInconclusiveError when
    a full-size run (n_starts >= 1000) yields fewer than two minima.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    p = np.asarray(p, dtype=float)
    sv = batched_singular_values(p)
    s1, s = float(sv[0]), float(sv[1])
    if s1 <= 0.0 or s <= 1e-12 * s1:
        raise ValueError("oracle needs sigma2 > 0: rank-deficient input has no positive completion scale")

    # Work at unit scale: the solution set is invariant under scaling P and s together.
    w = p / s1
    starts = sample_unit_quaternion(rng, n_starts)
    g = _gauss_newton_quats(w, s / s1, starts, iters)

    defect = batched_singular_values(w + (s / s1) * quat_to_rotation(g))[:, 1]
    good = g[defect <= RESIDUAL_FACTOR]
    pairs: list[RankOnePair] = []
    if good.shape[0] > 0:
        # canonical lift sign, then a lexicographic sort makes clustering deterministic
        sign = np.where(good[:, 0] != 0.0, np.sign(good[:, 0]), 1.0)
        good = good * sign[:, None]
        good = good[np.lexsort(good.T[::-1])]
        mats = quat_to_rotation(good)
        for m in mats[_greedy_representatives(mats, ORACLE_DEDUPE_ANGLE)]:
            residual = float(batched_singular_values(p + s * m)[1])
            if residual <= RESIDUAL_FACTOR * s1:
                pairs.append(RankOnePair(s=s, m=m, residual=residual))

    pairs.sort(key=lambda pr: (float(rotation_angle(pr.m)), tuple(pr.m.ravel())))
    if n_starts >= 1000 and len(pairs) < 2:
        raise OracleInconclusiveError(
            f"only {len(pairs)} distinct minima from {n_starts} starts; input may be non-generic"
        )
    return pairs
