"""Experiment runner: sweeps seeded background fields over a list of
separations, checks the expected solution structure (six solutions,
2/2/1/1 pairing breakdown, uniform +1 signs, small-bubble scale law),
optionally cross-checks against the global oracle, and writes a CSV
report, per-cell JSON solution dumps, and static SVG plots.

Exit codes: 0 all claims verified, 2 count anomaly, 3 sign anomaly,
4 oracle disagreement, 5 cells that raised an error (and no other
anomaly).  A cell whose solve raises NearDegenerateError or
OracleInconclusiveError, or whose seed's field raises
DegenerateFieldError, still gets its report row, with nan in every
computed column; the sweep goes on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .background import DegenerateFieldError, field_to_json, make_background
from .instanton import TwoPointConfig
from .linalg3 import StratumTag, classify_stratum
from .rank_one import OracleInconclusiveError, OutcomeKind, oracle_rank_one, solve_rank_one
from .rotations import rotation_distance, sample_rotation
from .solver import (
    ORIENTATION_CONVENTION,
    NearDegenerateError,
    SolverConfig,
    compare_solution_sets,
    enumerate_solutions,
    oracle_enumerate,
)

CSV_COLUMNS = [
    "seed",
    "L",
    "alpha",
    "count",
    "c11",
    "c12",
    "c21",
    "c22",
    "signs_ok",
    "min_lambda_over_L2",
    "max_lambda_over_L2",
    "oracle_ok",
    "wall_ms",
]

OUT_DIR_ENV = "GLUECOUNT_OUT_DIR"

# seeds whose degree-2 fields at the default amplitude stay comfortably
# inside the six-solution regime over L in [0.05, 0.2]
DEFAULT_SEEDS = (1, 2, 10, 11, 13, 16, 17, 18, 19, 24, 26, 28, 32, 39, 41, 43, 44, 49, 50, 56)
DEFAULT_L_VALUES = (0.2, 0.1, 0.05)
DEFAULT_AMPLITUDE = 0.25


@dataclass(frozen=True)
class ExperimentSpec:
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    L_values: tuple[float, ...] = DEFAULT_L_VALUES
    alpha: float = 1.0
    K: float = 1.0
    degree: int = 2
    amplitude: float = DEFAULT_AMPLITUDE
    newton_tol: float = 1e-12
    oracle: bool = False
    oracle_starts: int = 10_000
    out_dir: Path = field(default_factory=lambda: Path(os.environ.get(OUT_DIR_ENV, "gluecount_out")))
    plots: bool = True

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if not all(a > b for a, b in zip(self.L_values, self.L_values[1:])) or not self.L_values:
            raise ValueError("L values must be strictly descending and non-empty")
        object.__setattr__(self, "out_dir", Path(self.out_dir))

    def solver_config(self) -> SolverConfig:
        return SolverConfig(K=self.K, alpha=self.alpha, newton_tol=self.newton_tol)


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[dict, ...]
    anomalies: tuple[str, ...]
    csv_path: Path

    @property
    def count_anomaly(self) -> bool:
        return any(a.startswith("count") for a in self.anomalies)

    @property
    def sign_anomaly(self) -> bool:
        return any(a.startswith("sign") for a in self.anomalies)

    @property
    def oracle_anomaly(self) -> bool:
        return any(a.startswith("oracle") for a in self.anomalies)

    @property
    def error_anomaly(self) -> bool:
        return any(a.startswith("error") for a in self.anomalies)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _record_doc(rec) -> dict:
    return {
        "center": rec.gluing.center.tolist(),
        "scale": rec.gluing.scale,
        "angle_lift": rec.lift.tolist(),
        "pairing": list(rec.pairing),
        "sign": rec.sign,
        "defect_norm": rec.defect_norm,
        "magnitude_residual": rec.magnitude_residual,
        "lambda_over_L2": rec.lambda_over_L2,
    }


def _error_row(seed: int, L: float, alpha: float, wall_ms) -> dict:
    """Report row of a cell that raised: nan wherever nothing was computed."""
    row = {c: float("nan") for c in CSV_COLUMNS}
    row.update(seed=seed, L=L, alpha=alpha, wall_ms=wall_ms)
    return row


def run(spec: ExperimentSpec) -> ExperimentReport:
    """Execute the sweep; deterministic in the experiment settings (wall_ms aside)."""
    out = spec.out_dir
    out.mkdir(parents=True, exist_ok=True)
    sc = spec.solver_config()
    check_points = [np.array([s * L, 0.0, 0.0, 0.0]) for L in spec.L_values for s in (1, -1)]

    rows: list[dict] = []
    anomalies: list[str] = []
    for seed in spec.seeds:
        try:
            bg = make_background(seed, degree=spec.degree, amplitude=spec.amplitude, check_points=check_points)
        except DegenerateFieldError as exc:
            for L in spec.L_values:
                anomalies.append(f"error at seed={seed} L={_fmt(L)}: {type(exc).__name__}: {exc}")
                rows.append(_error_row(seed, L, spec.alpha, float("nan")))
            continue
        for l_index, L in enumerate(spec.L_values):
            cfg = TwoPointConfig(L)
            cell = f"seed={seed} L={_fmt(L)}"
            t0 = time.perf_counter()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    records = enumerate_solutions(bg, cfg, sc)
                    oracle_flag = "na"
                    oracle_diffs: list[str] = []
                    if spec.oracle:
                        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(l_index, 0xA11CE)))
                        oracle_records = oracle_enumerate(bg, cfg, sc, n_starts=spec.oracle_starts, rng=rng)
                        oracle_diffs = compare_solution_sets(records, oracle_records)
                        oracle_flag = "1" if not oracle_diffs else "0"
            except (NearDegenerateError, OracleInconclusiveError) as exc:
                wall_ms = int(round(1000.0 * (time.perf_counter() - t0)))
                anomalies.append(f"error at {cell}: {type(exc).__name__}: {exc}")
                rows.append(_error_row(seed, L, spec.alpha, wall_ms))
                continue
            wall_ms = int(round(1000.0 * (time.perf_counter() - t0)))

            counts = {p: sum(1 for r in records if r.pairing == p) for p in ((1, 1), (1, 2), (2, 1), (2, 2))}
            signs_ok = bool(records) and all(r.sign == 1 for r in records)
            ratios = [r.lambda_over_L2 for r in records]
            if len(records) != 6 or counts != {(1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 1}:
                anomalies.append(f"count anomaly at {cell}: total={len(records)} breakdown={counts}")
            if not signs_ok:
                anomalies.append(f"sign anomaly at {cell}: signs={[r.sign for r in records]}")
            if spec.oracle and oracle_diffs:
                anomalies.extend(f"oracle disagreement at {cell}: {d}" for d in oracle_diffs)

            doc = {
                "seed": seed,
                "L": L,
                "alpha": spec.alpha,
                "K": spec.K,
                "orientation_convention": ORIENTATION_CONVENTION,
                "field": json.loads(field_to_json(bg)),
                "records": [_record_doc(r) for r in records],
                "oracle": {"enabled": spec.oracle, "flag": oracle_flag, "diffs": oracle_diffs},
            }
            (out / f"solutions_seed{seed}_L{L:g}.json").write_text(
                json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
            )
            rows.append(
                {
                    "seed": seed,
                    "L": L,
                    "alpha": spec.alpha,
                    "count": len(records),
                    "c11": counts[(1, 1)],
                    "c12": counts[(1, 2)],
                    "c21": counts[(2, 1)],
                    "c22": counts[(2, 2)],
                    "signs_ok": int(signs_ok),
                    "min_lambda_over_L2": min(ratios) if ratios else float("nan"),
                    "max_lambda_over_L2": max(ratios) if ratios else float("nan"),
                    "oracle_ok": oracle_flag,
                    "wall_ms": wall_ms,
                }
            )

    csv_path = out / "report.csv"
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(_fmt(row[c]) for c in CSV_COLUMNS) for row in rows]
    csv_path.write_text("\n".join(lines) + "\n")

    if spec.plots:
        plots_from_csv(csv_path, out)
    if anomalies:
        (out / "diagnostics.txt").write_text("\n".join(anomalies) + "\n")
    return ExperimentReport(rows=tuple(rows), anomalies=tuple(anomalies), csv_path=csv_path)


# ---------------------------------------------------------------------------
# plots: hand-rolled SVG, regenerated bit-identically from the CSV alone


def _svg_header(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="18" text-anchor="middle" font-family="monospace" font-size="13">{title}</text>',
    ]


_PALETTE = ("#1b6ca8", "#c23b22", "#2e8540", "#8a5ab5", "#b8860b", "#3aa6a6", "#aa336a", "#556b2f")


def _line_chart(path: Path, title: str, xlabel: str, ylabel: str, series: list[tuple[str, list[float], list[float]]]):
    width, height = 640, 440
    mleft, mright, mtop, mbottom = 70, 20, 36, 48
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x0, x1 = min(xs_all, default=0.0), max(xs_all, default=0.0)
    y0, y1 = min(ys_all, default=0.0), max(ys_all, default=0.0)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.06 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(x: float) -> str:
        return format(mleft + (x - x0) / (x1 - x0) * (width - mleft - mright), ".2f")

    def sy(y: float) -> str:
        return format(height - mbottom - (y - y0) / (y1 - y0) * (height - mtop - mbottom), ".2f")

    parts = _svg_header(width, height, title)
    parts.append(
        f'<rect x="{mleft}" y="{mtop}" width="{width - mleft - mright}" '
        f'height="{height - mtop - mbottom}" fill="none" stroke="#444"/>'
    )
    for k in range(5):
        xv = x0 + k * (x1 - x0) / 4
        yv = y0 + k * (y1 - y0) / 4
        parts.append(
            f'<text x="{sx(xv)}" y="{height - mbottom + 16}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{mleft - 6}" y="{sy(yv)}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{yv:.3g}</text>'
        )
    parts.append(
        f'<text x="{width // 2}" y="{height - 10}" text-anchor="middle" '
        f'font-family="monospace" font-size="11">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{height // 2}" text-anchor="middle" font-family="monospace" '
        f'font-size="11" transform="rotate(-90 14 {height // 2})">{ylabel}</text>'
    )
    for k, (label, xs, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        points = " ".join(f"{sx(x)},{sy(y)}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="2.2" fill="{color}"/>')
        if k < 24:
            parts.append(
                f'<text x="{width - mright - 4}" y="{mtop + 14 + 12 * k}" text-anchor="end" '
                f'font-family="monospace" font-size="9" fill="{color}">{label}</text>'
            )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def _read_csv(csv_path: Path) -> list[dict]:
    lines = csv_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def plots_from_csv(csv_path: Path, out_dir: Path) -> list[Path]:
    """Regenerate the three report figures from the CSV alone.

    Rows of cells that raised an error (count nan) are left out.
    """
    rows = [r for r in _read_csv(csv_path) if r["count"] != "nan"]
    seeds = sorted({int(r["seed"]) for r in rows})
    written: list[Path] = []

    def series_for(column: str) -> list[tuple[str, list[float], list[float]]]:
        out = []
        for seed in seeds:
            cells = [r for r in rows if int(r["seed"]) == seed]
            cells.sort(key=lambda r: float(r["L"]))
            out.append((f"seed {seed}", [float(r["L"]) for r in cells], [float(r[column]) for r in cells]))
        return out

    p = out_dir / "count_vs_L.svg"
    _line_chart(p, "certified admissible solutions", "L", "count", series_for("count"))
    written.append(p)

    p = out_dir / "lambda_over_L2.svg"
    both = []
    for label, xs, ys in series_for("min_lambda_over_L2"):
        both.append((label + " min", xs, ys))
    for label, xs, ys in series_for("max_lambda_over_L2"):
        both.append((label + " max", xs, ys))
    _line_chart(p, "bubble scale over L^2 (per-cell envelope)", "L", "lambda / L^2", both)
    written.append(p)

    p = out_dir / "signs.svg"
    ls = sorted({float(r["L"]) for r in rows}, reverse=True)
    width = 120 + 70 * len(ls)
    height = 60 + 18 * len(seeds)
    parts = _svg_header(width, height, "orientation signs (+ means all six +1)")
    for j, L in enumerate(ls):
        parts.append(
            f'<text x="{150 + 70 * j}" y="40" text-anchor="middle" font-family="monospace" '
            f'font-size="11">L={L:g}</text>'
        )
    for i, seed in enumerate(seeds):
        parts.append(
            f'<text x="20" y="{58 + 18 * i}" font-family="monospace" font-size="11">seed {seed}</text>'
        )
        for j, L in enumerate(ls):
            row = next((r for r in rows if int(r["seed"]) == seed and float(r["L"]) == L), None)
            if row is None:
                continue
            glyph = "+" if row["signs_ok"] == "1" else "!"
            color = "#2e8540" if glyph == "+" else "#c23b22"
            parts.append(
                f'<text x="{150 + 70 * j}" y="{58 + 18 * i}" text-anchor="middle" '
                f'font-family="monospace" font-size="12" fill="{color}">{glyph}</text>'
            )
    parts.append("</svg>")
    p.write_text("\n".join(parts) + "\n")
    written.append(p)
    return written


# ---------------------------------------------------------------------------
# rank-one lemma verification suite


def lemma_suite(n: int = 1000, seed: int = 0, oracle_starts: int = 400) -> dict[str, bool]:
    """Closed form vs oracle on random generic matrices plus the documented
    degenerate families; prints one pass/fail line per property."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    results: dict[str, bool] = {}

    agree = 0
    generic = 0
    for k in range(n):
        m = rng.uniform(-1.0, 1.0, (3, 3))
        outcome = solve_rank_one(m)
        if outcome.kind != OutcomeKind.TWO_DISTINCT:
            continue
        generic += 1
        found = oracle_rank_one(m, oracle_starts, np.random.default_rng((seed, k)))
        closed = [p.m for p in outcome.pairs]
        ok = len(found) == 2 and all(
            min(float(rotation_distance(f.m, c)) for c in closed) < 1e-6 for f in found
        )
        agree += ok
    results["two_solution_agreement"] = agree == generic and generic > 0
    print(f"two_solution_agreement: {agree}/{generic} generic inputs -> {'PASS' if results['two_solution_agreement'] else 'FAIL'}")

    seps = []
    for k in range(1, 7):
        eps = 10.0**-k
        outcome = solve_rank_one(np.diag([2.0 + eps, 2.0, 1.0]))
        seps.append(float(rotation_distance(outcome.pairs[0].m, outcome.pairs[1].m)))
    monotone = all(a > b for a, b in zip(seps, seps[1:]))
    slope = np.polyfit(np.log10([10.0**-k for k in range(1, 7)]), np.log10(seps), 1)[0]
    results["coalescence"] = monotone and abs(slope - 0.5) < 0.15
    print(f"coalescence: separations monotone={monotone}, log-log slope={slope:.3f} -> {'PASS' if results['coalescence'] else 'FAIL'}")

    degenerate = all(
        solve_rank_one(5.0 * sample_rotation(rng)).kind == OutcomeKind.DEGENERATE for _ in range(50)
    )
    results["scalar_rotation_degenerate"] = degenerate
    print(f"scalar_rotation_degenerate: -> {'PASS' if degenerate else 'FAIL'}")

    doubles = (
        solve_rank_one(np.diag([2.0, 2.0, 1.0])).kind == OutcomeKind.DOUBLE_ROOT
        and len(solve_rank_one(np.diag([2.0, 2.0, 1.0])).pairs) == 1
        and solve_rank_one(np.diag([3.0, 2.0, 2.0])).kind == OutcomeKind.DOUBLE_ROOT
    )
    results["double_roots"] = doubles
    print(f"double_roots: -> {'PASS' if doubles else 'FAIL'}")

    rank1 = all(
        classify_stratum(np.outer(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))).tag == StratumTag.RANK_LE_ONE
        and solve_rank_one(np.outer(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))).kind == OutcomeKind.DEGENERATE
        for _ in range(50)
    )
    results["rank_one_degenerate"] = rank1
    print(f"rank_one_degenerate: -> {'PASS' if rank1 else 'FAIL'}")
    return results


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gluecount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run the counting experiment sweep")
    runp.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    runp.add_argument("--L", type=float, nargs="+", default=list(DEFAULT_L_VALUES), help="strictly descending")
    runp.add_argument("--alpha", type=float, default=1.0)
    runp.add_argument("--K", type=float, default=1.0)
    runp.add_argument("--degree", type=int, default=2)
    runp.add_argument("--amplitude", type=float, default=DEFAULT_AMPLITUDE)
    runp.add_argument("--tol", type=float, default=1e-12, help="defect certification tolerance")
    runp.add_argument("--oracle", action=argparse.BooleanOptionalAction, default=False)
    runp.add_argument("--starts", type=int, default=10_000, help="oracle multi-start count")
    runp.add_argument("--out", type=str, default=None, help=f"output directory (default ${OUT_DIR_ENV} or ./gluecount_out)")
    runp.add_argument("--plots", action=argparse.BooleanOptionalAction, default=True)

    lemp = sub.add_parser("lemma-suite", help="verify the rank-one completion lemma numerically")
    lemp.add_argument("--n", type=int, default=1000)
    lemp.add_argument("--seed", type=int, default=0)
    lemp.add_argument("--starts", type=int, default=400)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "lemma-suite":
        results = lemma_suite(n=args.n, seed=args.seed, oracle_starts=args.starts)
        return 0 if all(results.values()) else 1

    out_dir = Path(args.out) if args.out else Path(os.environ.get(OUT_DIR_ENV, "gluecount_out"))
    spec = ExperimentSpec(
        seeds=tuple(args.seeds),
        L_values=tuple(args.L),
        alpha=args.alpha,
        K=args.K,
        degree=args.degree,
        amplitude=args.amplitude,
        newton_tol=args.tol,
        oracle=args.oracle,
        oracle_starts=args.starts,
        out_dir=out_dir,
        plots=args.plots,
    )
    report = run(spec)
    for row in report.rows:
        print(
            f"seed {row['seed']:>4} L {row['L']:<6g} count {row['count']} "
            f"[{row['c11']}/{row['c12']}/{row['c21']}/{row['c22']}] signs_ok {row['signs_ok']} "
            f"oracle {row['oracle_ok']} wall {row['wall_ms']} ms"
        )
    for anomaly in report.anomalies:
        print("ANOMALY:", anomaly, file=sys.stderr)
    if report.count_anomaly:
        return 2
    if report.sign_anomaly:
        return 3
    if report.oracle_anomaly:
        return 4
    if report.error_anomaly:
        return 5
    print(f"report: {report.csv_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
