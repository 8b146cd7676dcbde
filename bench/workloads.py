"""Inputs, ops and output checks of the three benchmark workloads.

Every workload turns the workload seed into an endless, deterministic
stream of op inputs; the program only ever sees the generated fields and
matrices.  An op drives the same library calls as `gluecount run` or
`gluecount lemma-suite`, in the same order and with the same RNG
derivation, so any cell can be replayed from the command line.

  sweep   one (field, L) cell: enumerate_solutions with signs, no oracle.
          Degree-2 fields at amplitude 0.25, L cycling over 0.2, 0.1,
          0.05: the cells of the default `gluecount run` traffic.
  oracle  the same cell followed by the 10 000-start oracle_enumerate and
          compare_solution_sets (`gluecount run --oracle`); after every
          three in-regime cells comes one off-regime cell (amplitude 1.0,
          L = 0.4, `--amplitude 1 --L 0.4 --oracle`).

Each cell takes a new field, so the ops of a run are independent samples;
cells of one field cost alike, and a run has room for only 10 to 30 cells.
  lemma   one uniform random 3x3 matrix: solve_rank_one, then
          oracle_rank_one with 400 starts, as in `gluecount lemma-suite`.

Checks do not trust the program's own kernels: every gluing record is
recertified from the field coefficients and the bubble formula with
numpy's LAPACK SVD, and the lemma's closed form is recertified the same way.
"""

from __future__ import annotations

import importlib
import sys
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

SWEEP_L = (0.2, 0.1, 0.05)
FIELD_DEGREE = 2
REGIME_AMPLITUDE = 0.25
OFF_REGIME_AMPLITUDE = 1.0
OFF_REGIME_L = 0.4
ORACLE_STARTS = 10_000
ORACLE_SPAWN_TAG = 0xA11CE
LEMMA_STARTS = 400
LEMMA_TOL = 1e-6
REFERENCE_TOL = 1e-6
PAIRINGS = ((1, 1), (1, 2), (2, 1), (2, 2))
LAYER_MODULES = ("linalg3", "rotations", "rank_one", "instanton", "background", "solver")


def import_program(src: Path) -> dict:
    """Fresh import of the gluecount package from `src`.

    Any gluecount modules already loaded are dropped first, so the import
    cost is paid again and a tracer left behind cannot leak in.  Refuses a
    gluecount found anywhere but under `src`.
    """
    src = Path(src).resolve()
    if not (src / "gluecount" / "__init__.py").is_file():
        raise FileNotFoundError(f"no gluecount package under {src}")
    for name in [n for n in sys.modules if n == "gluecount" or n.startswith("gluecount.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("gluecount")
    if Path(package.__file__).resolve().parent != src / "gluecount":
        raise ImportError(f"gluecount imported from {package.__file__}, not from {src}")
    return {name: importlib.import_module(f"gluecount.{name}") for name in LAYER_MODULES}


def op_errors(prog: dict) -> tuple[type, ...]:
    """Program errors that fail one op without stopping the run."""
    names = (
        ("solver", "NearDegenerateError"),
        ("background", "DegenerateFieldError"),
        ("rank_one", "OracleInconclusiveError"),
        ("rank_one", "CertificationError"),
    )
    return tuple(getattr(prog[mod], name) for mod, name in names if hasattr(prog[mod], name))


# ---------------------------------------------------------------------------
# independent recertification


def _rotation(u: np.ndarray) -> np.ndarray:
    """Rotation of the unit quaternion u = (w, x, y, z), Hamilton convention."""
    w, x, y, z = u
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def field_value(coeffs, x: np.ndarray) -> np.ndarray:
    """Background polynomial sum_k coeffs[k] . x^(k) at one point."""
    out = np.zeros((3, 3))
    for c in coeffs:
        term = np.asarray(c, dtype=float)
        while term.ndim > 2:
            term = np.tensordot(x, term, axes=(0, 0))
        out += term
    return out


def bubble_value(center, scale: float, angle, x: np.ndarray) -> np.ndarray:
    """Exterior-gauge bubble curvature scale^2/(scale^2+|x-y|^2)^2 angle^T R(u)."""
    d = x - np.asarray(center, dtype=float)
    r2 = float(d @ d)
    return scale**2 / (scale**2 + r2) ** 2 * (np.asarray(angle, dtype=float).T @ _rotation(d / np.sqrt(r2)))


def sigma(m: np.ndarray) -> np.ndarray:
    return np.linalg.svd(m, compute_uv=False)


def geodesic(a, b) -> float:
    """Rotation angle between two rotations, accurate near zero."""
    diff = float(np.linalg.norm(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))
    return 2.0 * float(np.arcsin(min(1.0, diff / (2.0 * np.sqrt(2.0)))))


def recertify(coeffs, L: float, records, tol: float, K: float = 1.0, alpha: float = 1.0) -> list[str]:
    """Problems found when rebuilding F0 + bubble at p and q for each record.

    sigma2 of both glued matrices must stay within tol * scale, scale being
    the larger sigma1 of the background at the two points, the bound the
    solver certifies against.  Scale, sign and pairing must also be valid.
    """
    p = np.array([L, 0.0, 0.0, 0.0])
    q = -p
    f0 = (field_value(coeffs, p), field_value(coeffs, q))
    scale = max(sigma(f0[0])[0], sigma(f0[1])[0])
    cutoff = K * L**alpha
    problems = []
    for k, rec in enumerate(records):
        b = rec.gluing
        defect = max(sigma(f + bubble_value(b.center, b.scale, b.angle, x))[1] for f, x in zip(f0, (p, q)))
        if not defect <= tol * scale:
            problems.append(f"record {k}: defect {defect:.3e} above {tol:g} * scale {scale:.3e}")
        if not 0.0 < b.scale <= cutoff * (1.0 + 1e-12):
            problems.append(f"record {k}: scale {b.scale!r} outside (0, {cutoff!r}]")
        if rec.sign not in (1, -1):
            problems.append(f"record {k}: sign {rec.sign!r} is not +-1")
        if tuple(rec.pairing) not in PAIRINGS:
            problems.append(f"record {k}: pairing {rec.pairing!r} is not a target pairing")
    return problems


# ---------------------------------------------------------------------------
# reference outcomes (generated at the seed commit by make_reference.py)


def record_doc(rec) -> dict:
    return {
        "center": [float(v) for v in rec.gluing.center],
        "scale": float(rec.gluing.scale),
        "lift": [float(v) for v in rec.lift],
        "pairing": list(rec.pairing),
        "sign": int(rec.sign),
    }


def reference_records(docs: list[dict]) -> list[SimpleNamespace]:
    """Stand-ins with the attributes compare_solution_sets reads."""
    out = []
    for doc in docs:
        lift = np.asarray(doc["lift"], dtype=float)
        gluing = SimpleNamespace(
            center=np.asarray(doc["center"], dtype=float),
            scale=float(doc["scale"]),
            angle=_rotation(lift / np.linalg.norm(lift)),
        )
        out.append(SimpleNamespace(gluing=gluing, pairing=tuple(doc["pairing"]), sign=int(doc["sign"])))
    return out


def compare_to_reference(prog: dict, records, docs: list[dict]) -> list[str]:
    expected = reference_records(docs)
    problems = [f"reference: {d}" for d in prog["solver"].compare_solution_sets(records, expected, tol=REFERENCE_TOL)]
    got = Counter((tuple(r.pairing), int(r.sign)) for r in records)
    want = Counter((r.pairing, r.sign) for r in expected)
    if got != want:
        problems.append(f"reference: (pairing, sign) counts {dict(got)} != {dict(want)}")
    return problems


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Cell:
    """One (field, L) cell with its oracle RNG derivation from `gluecount run`."""

    field: object
    L: float
    l_index: int

    @property
    def key(self) -> str:
        return f"seed={self.field.seed} amplitude={self.field.amplitude:g} L={self.L:g}"


@dataclass(frozen=True)
class Matrix:
    seed: int
    index: int
    m: np.ndarray

    @property
    def key(self) -> str:
        return f"seed={self.seed} index={self.index}"


def field_seeds(seed: int):
    """Endless stream of field seeds derived from the workload seed."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xF1E1D,)))
    while True:
        yield int(rng.integers(0, 2**31 - 1))


def _cell(prog: dict, field_seed: int, amplitude: float, L_values: tuple[float, ...], l_index: int) -> Cell:
    """Cell l_index of `gluecount run --seeds field_seed --amplitude amplitude
    --L *L_values`: the field is made exactly as that sweep makes it."""
    points = [np.array([s * L, 0.0, 0.0, 0.0]) for L in L_values for s in (1, -1)]
    bg = prog["background"].make_background(field_seed, degree=FIELD_DEGREE, amplitude=amplitude, check_points=points)
    return Cell(bg, L_values[l_index], l_index)


class Sweep:
    name = "sweep"
    pool = 48  # inputs made during set-up

    def inputs(self, prog: dict, seed: int):
        for k, field_seed in enumerate(field_seeds(seed)):
            yield _cell(prog, field_seed, REGIME_AMPLITUDE, SWEEP_L, k % len(SWEEP_L))

    def run(self, prog: dict, cell: Cell):
        solver = prog["solver"]
        cfg = prog["instanton"].TwoPointConfig(cell.L)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return solver.enumerate_solutions(cell.field, cfg, solver.SolverConfig())

    def records(self, output):
        return output

    def check(self, prog: dict, cell: Cell, output, reference) -> list[str]:
        sc = prog["solver"].SolverConfig()
        records = self.records(output)
        problems = recertify(cell.field.coeffs, cell.L, records, sc.newton_tol, sc.K, sc.alpha)
        if reference is not None:
            problems += compare_to_reference(prog, records, reference)
        return problems

    def reference(self, output):
        return [record_doc(r) for r in self.records(output)]


class Oracle(Sweep):
    name = "oracle"
    pool = 24

    def inputs(self, prog: dict, seed: int):
        for k, field_seed in enumerate(field_seeds(seed)):
            if k % 4 == 3:
                yield _cell(prog, field_seed, OFF_REGIME_AMPLITUDE, (OFF_REGIME_L,), 0)
            else:
                yield _cell(prog, field_seed, REGIME_AMPLITUDE, SWEEP_L, k % 4)

    def run(self, prog: dict, cell: Cell):
        solver = prog["solver"]
        cfg = prog["instanton"].TwoPointConfig(cell.L)
        sc = solver.SolverConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = solver.enumerate_solutions(cell.field, cfg, sc)
            ss = np.random.SeedSequence(entropy=cell.field.seed, spawn_key=(cell.l_index, ORACLE_SPAWN_TAG))
            found = solver.oracle_enumerate(cell.field, cfg, sc, n_starts=ORACLE_STARTS, rng=np.random.default_rng(ss))
            diffs = solver.compare_solution_sets(records, found)
        return records, found, diffs

    def records(self, output):
        return output[0]

    def check(self, prog: dict, cell: Cell, output, reference) -> list[str]:
        _, found, diffs = output
        sc = prog["solver"].SolverConfig()
        problems = super().check(prog, cell, output, reference)
        problems += [f"oracle {p}" for p in recertify(cell.field.coeffs, cell.L, found, sc.newton_tol, sc.K, sc.alpha)]
        problems += [f"oracle disagreement: {d}" for d in diffs]
        return problems


class Lemma:
    name = "lemma"
    pool = 2000

    def inputs(self, prog: dict, seed: int):
        rng = np.random.default_rng(seed)
        index = 0
        while True:
            yield Matrix(seed, index, rng.uniform(-1.0, 1.0, (3, 3)))
            index += 1

    def run(self, prog: dict, item: Matrix):
        rank_one = prog["rank_one"]
        outcome = rank_one.solve_rank_one(item.m)
        found = None
        if outcome.kind == rank_one.OutcomeKind.TWO_DISTINCT:
            found = rank_one.oracle_rank_one(item.m, LEMMA_STARTS, np.random.default_rng((item.seed, item.index)))
        return outcome, found

    def check(self, prog: dict, item: Matrix, output, reference) -> list[str]:
        outcome, found = output
        if found is None:
            return [f"closed form reports {outcome.kind.value}, expected two distinct pairs"]
        s1, s2, _ = sigma(item.m)
        problems = []
        for k, pair in enumerate(outcome.pairs):
            residual = sigma(item.m + pair.s * np.asarray(pair.m))[1]
            if not residual <= 1e-9 * s1:
                problems.append(f"closed-form pair {k}: sigma2 residual {residual:.3e} above 1e-9 * sigma1")
            if not abs(pair.s - s2) <= 1e-12 * s1:
                problems.append(f"closed-form pair {k}: s = {pair.s!r}, sigma2 = {s2!r}")
        closed = [p.m for p in outcome.pairs]
        near = [min(geodesic(f.m, c) for c in closed) for f in found]
        if len(found) != 2 or not all(d < LEMMA_TOL for d in near):
            problems.append(f"oracle found {len(found)} minima at distances {near} from the closed form")
        if reference is not None:
            want = [np.asarray(m, dtype=float).reshape(3, 3) for m in reference["pairs"]]
            if len(want) != len(closed) or any(geodesic(a, b) > REFERENCE_TOL for a, b in zip(closed, want)):
                problems.append("reference: closed-form rotations differ from the seed-commit outcome")
            if len(found) != reference["oracle_minima"]:
                problems.append(f"reference: oracle found {len(found)} minima, seed commit {reference['oracle_minima']}")
        return problems

    def reference(self, output):
        outcome, found = output
        return {
            "pairs": [[float(v) for v in np.asarray(p.m).ravel()] for p in outcome.pairs],
            "oracle_minima": len(found) if found is not None else 0,
        }


WORKLOADS = {w.name: w for w in (Sweep(), Oracle(), Lemma())}
