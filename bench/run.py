"""gluecount benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload sweep|oracle|lemma|all [--seed N]
                         [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout that holds src/gluecount.  The
workload seed derives every input (see workloads.py).  After set-up (a
fresh import of the package plus the first inputs, repeated SETUP_REPS
times) the loop runs one op at a time for --seconds of wall time,
checks every output outside the op timer, and counts each op that raises
a program error or fails a check as failed; the run goes on.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each op twice,
untraced and then traced with every layer function wrapped (spans.py),
and prints the per-layer metrics, each the median over ops, with the
tracing overhead measured on those same pairs.  Either way the last line
of standard output is one JSON object with the metrics named in
BENCHMARK.json; the full results, run metadata and the span trace go to
.bench_out/ in the checkout.  --workload all runs the three workloads one
after another, each in a fresh process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from itertools import chain
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 7
WORKLOAD_NAMES = ("sweep", "oracle", "lemma")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_share": "share",
}

# Every per-layer metric the traced run computes.  Names are
# <module>.<function>.<field>: calls and rows are counts, s is inclusive
# seconds, self_s is s minus the wrapped calls made inside; all are per-op
# medians.  make_background is timed in a traced set-up pass (per call).
LAYER_UNITS = {
    "solver.enumerate_solutions.self_s": "s",
    "solver.enumerate_solutions.calls": "count",
    "instanton.direction_ratio_arrays.calls": "count",
    "instanton.direction_ratio_arrays.rows": "count",
    "instanton.direction_ratio_arrays.s": "s",
    "rotations.quat_mul.rows": "count",
    "rotations.quat_mul.s": "s",
    "solver.orientation_sign.calls": "count",
    "solver.orientation_sign.s": "s",
    "solver.oracle_enumerate.self_s": "s",
    "solver.oracle_enumerate.records_per_certify": "ratio",
    "instanton.curvature_arrays.calls": "count",
    "instanton.curvature_arrays.rows": "count",
    "instanton.curvature_arrays.s": "s",
    "rotations.unit_quat_to_rotation.rows": "count",
    "rotations.unit_quat_to_rotation.s": "s",
    "linalg3.batched_singular_values.calls": "count",
    "linalg3.batched_singular_values.rows": "count",
    "linalg3.batched_singular_values.s": "s",
    "solver.compare_solution_sets.s": "s",
    "rotations.rotation_distance.calls": "count",
    "rotations.rotation_distance.s": "s",
    "rank_one.oracle_rank_one.self_s": "s",
    "rank_one.oracle_rank_one.calls": "count",
    "linalg3.adjugate3.rows": "count",
    "linalg3.adjugate3.s": "s",
    "rotations.quat_to_rotation.rows": "count",
    "rotations.quat_to_rotation.s": "s",
    "rank_one.solve_rank_one.calls": "count",
    "rank_one.solve_rank_one.s": "s",
    "linalg3.svd_signed.calls": "count",
    "linalg3.svd_signed.s": "s",
    "linalg3.classify_stratum.calls": "count",
    "linalg3.classify_stratum.s": "s",
    "background.make_background.s": "s",
    "background.make_background.attempts": "count",
    "background.eval_background.calls": "count",
    "background.eval_background.s": "s",
    "background.targets.s": "s",
    "trace.overhead": "share",
}
FIELDS = {"calls": 0, "rows": 1, "s": 2, "self_s": 3}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with ten samples
    beyond it, but never below the (upper) median: with 22 ops or fewer
    there is no tail to resolve and the median is reported."""
    ordered = sorted(times)
    k = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def closed_loop(items, seconds: float, execute, check, errors: tuple[type, ...]):
    """Run one op at a time until `seconds` of wall time have passed.

    execute(item) returns the op's output and is the only timed part;
    check(item, output) returns a list of problems.  An op that raises one
    of `errors` or has problems is failed; the loop goes on.  Returns
    (op seconds of verified ops, failures as (key, kind, cause)) with kind
    "error" for a raised program error and "check" for a wrong output.
    """
    times: list[float] = []
    failures: list[tuple[str, str, str]] = []
    start = perf_counter()
    for item in items:
        if perf_counter() - start >= seconds:
            break
        t0 = perf_counter()
        try:
            output = execute(item)
        except errors as exc:
            failures.append((item.key, "error", f"{type(exc).__name__}: {exc}"))
            continue
        dt = perf_counter() - t0
        problems = check(item, output)
        if problems:
            failures.append((item.key, "check", "; ".join(problems)))
        else:
            times.append(dt)
    return times, failures


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gluecount").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(args, ops: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def setup(workload, seed: int):
    """SETUP_REPS times: fresh package import plus the first workload.pool
    inputs.  Returns (program modules, input iterator, set-up seconds)."""
    import workloads

    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        prog = workloads.import_program(SRC)
        stream = workload.inputs(prog, seed)
        pool = [next(stream) for _ in range(workload.pool)]
        times.append(perf_counter() - t0)
    return prog, pool, stream, times


def load_reference(name: str) -> dict:
    path = HERE / "reference" / f"{name}.json"
    return json.loads(path.read_text())["ops"] if path.is_file() else {}


def traced_pairs(workload, prog, items, seconds, refs, errors):
    """Each op twice, untraced and traced, the order alternating between ops.

    Returns (tracer, tracer op indices of the verified ops, their untraced
    and traced seconds, failures)."""
    from spans import Tracer

    tracer = Tracer(prog)
    verified, plain_s, traced_s, failures = [], [], [], []

    def plain(item):
        t0 = perf_counter()
        output = workload.run(prog, item)
        return output, perf_counter() - t0

    def traced(item):
        with tracer.installed(), tracer.op(item.key) as span:
            output = workload.run(prog, item)
        return output, span.end - span.start

    start = perf_counter()
    for index, item in enumerate(items):
        if perf_counter() - start >= seconds:
            break
        order = (plain, traced) if index % 2 == 0 else (traced, plain)
        problems, times = [], {}
        try:
            for execute in order:
                output, times[execute] = execute(item)
                problems += workload.check(prog, item, output, refs.get(item.key))
        except errors as exc:
            failures.append((item.key, "error", f"{type(exc).__name__}: {exc}"))
            continue
        if problems:
            failures.append((item.key, "check", "; ".join(problems)))
            continue
        verified.append(tracer.spans[-1].op)
        plain_s.append(times[plain])
        traced_s.append(times[traced])
    return tracer, verified, plain_s, traced_s, failures


def layer_metrics(tracer, verified, plain_s, traced_s, setup_tracer) -> dict[str, float]:
    totals = tracer.op_totals()
    per_op = [totals[i] for i in verified]
    metrics = {}
    for name in LAYER_UNITS:
        qual, field = name.rsplit(".", 1)
        if field in FIELDS:
            values = [t.get(qual, (0, 0, 0.0, 0.0))[FIELDS[field]] for t in per_op]
            metrics[name] = float(statistics.median(values)) if values else 0.0

    ratios = []
    for op in verified:
        spans = [s for s in tracer.spans if s.op == op and s.name == "solver.oracle_enumerate"]
        attempts = sum(s.calls.get("solver._build_record", (0,))[0] for s in spans)
        ratios.append(sum(s.rows for s in spans) / attempts if attempts else 0.0)
    metrics["solver.oracle_enumerate.records_per_certify"] = float(statistics.median(ratios)) if ratios else 0.0

    made = [s for s in setup_tracer.spans if s.name == "background.make_background"]
    metrics["background.make_background.s"] = float(statistics.median(s.end - s.start for s in made)) if made else 0.0
    metrics["background.make_background.attempts"] = sum(s.rows for s in made) / len(made) if made else 0.0
    metrics["trace.overhead"] = sum(traced_s) / sum(plain_s) - 1.0 if plain_s else 0.0
    return metrics


def run_workload(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        import workloads

        workload = workloads.WORKLOADS[args.workload]
        prog, pool, stream, setup_times = setup(workload, args.seed)
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot load the program from {SRC}: {exc}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = load_reference(workload.name)
    errors = workloads.op_errors(prog)
    items = chain(pool, stream)
    if args.trace:
        from spans import Tracer

        setup_tracer = Tracer(prog)
        with setup_tracer.installed(), setup_tracer.op("setup"):
            traced_stream = workload.inputs(prog, args.seed)
            for _ in range(workload.pool):
                next(traced_stream)
        tracer, verified, plain_s, traced_s, failures = traced_pairs(
            workload, prog, items, args.seconds, refs, errors
        )
        metrics = layer_metrics(tracer, verified, plain_s, traced_s, setup_tracer)
        units = LAYER_UNITS
        emitted = [m["name"] for m in spec["per_layer"]]
        attempted = len(verified) + len(failures)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"{workload.name}_seed{args.seed}_spans.json"
        trace_path.write_text(json.dumps({"ops": tracer.to_json(), "setup": setup_tracer.to_json()}) + "\n")
        op_times = traced_s
    else:
        op_times, failures = closed_loop(
            items,
            args.seconds,
            lambda item: workload.run(prog, item),
            lambda item, output: workload.check(prog, item, output, refs.get(item.key)),
            errors,
        )
        attempted = len(op_times) + len(failures)
        metrics = {
            "ops_per_s": len(op_times) / sum(op_times) if op_times else 0.0,
            "op_s_p50": float(statistics.median(op_times)) if op_times else 0.0,
            "op_s_tail": tail(op_times)[0] if op_times else 0.0,
            "setup_s": float(statistics.median(setup_times)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failed_share": len(failures) / attempted if attempted else 0.0,
        }
        units = END_TO_END_UNITS
        emitted = [m["name"] for m in spec["end_to_end"]]

    meta = metadata(args, attempted)
    print(f"workload {workload.name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("machine: " + ", ".join(f"{k}={meta[k]}" for k in ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads")))
    print(f"program: commit {meta['git_commit']}, source sha256 {meta['source_sha256'][:16]}")
    print(f"ops: {attempted} attempted, {len(failures)} failed, {len(refs)} reference outcomes on file")
    for name, value in metrics.items():
        note = ""
        if name == "op_s_tail" and op_times:
            note = f"  (p{tail(op_times)[1]:.1f} of {len(op_times)} samples)"
        print(f"  {name:<46} {value:.6g} {units[name]}{note}")
    for key, kind, cause in failures:
        print(f"FAILED ({kind}) {key}: {cause}")

    # a raised program error fails the op; only a wrong output is incorrect
    correct = all(kind == "error" for _, kind, _ in failures)
    OUT.mkdir(exist_ok=True)
    result = {
        "metadata": meta,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failures": [{"op": k, "kind": kind, "cause": c} for k, kind, c in failures],
        "op_seconds": op_times,
        "setup_seconds": setup_times,
    }
    (OUT / f"{workload.name}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in emitted},
    }
    print(json.dumps(line))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
