"""Tests for the benchmark harness: recertification, failure counting and
restoring the layer functions after a traced run."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def prog():
    """A fresh import of the package; the caller's gluecount modules are put
    back afterwards so the rest of the session keeps its own objects."""
    saved = {k: v for k, v in sys.modules.items() if k == "gluecount" or k.startswith("gluecount.")}
    try:
        yield workloads.import_program(run.SRC)
    finally:
        for name in [n for n in sys.modules if n == "gluecount" or n.startswith("gluecount.")]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_perturbed_scale_fails_recertification(prog):
    solver = prog["solver"]
    field, cfg, rec = solver.reference_case(0.1)
    rec = replace(rec, sign=solver.orientation_sign(field, cfg, rec))
    tol = solver.SolverConfig().newton_tol
    assert workloads.recertify(field.coeffs, cfg.L, [rec], tol) == []

    bubble = rec.gluing
    perturbed = replace(rec, gluing=type(bubble)(bubble.center, bubble.scale * (1.0 + 1e-6), bubble.angle))
    problems = workloads.recertify(field.coeffs, cfg.L, [perturbed], tol)
    assert len(problems) == 1 and "defect" in problems[0]


def test_op_that_raises_is_counted_and_run_goes_on(prog):
    class Item:
        def __init__(self, key):
            self.key = key

    def execute(item):
        if item.key == "b":
            raise prog["solver"].NearDegenerateError("|det| below floor")
        return item.key

    def check(item, output):
        return [] if output == item.key else ["wrong output"]

    items = [Item(k) for k in "abc"]
    times, failures = run.closed_loop(items, 60.0, execute, check, workloads.op_errors(prog))
    assert len(times) == 2
    assert failures == [("b", "error", "NearDegenerateError: |det| below floor")]


def test_traced_run_restores_layer_functions(prog):
    solver = prog["solver"]
    original = solver.direction_ratio_arrays
    cfg = prog["instanton"].TwoPointConfig(0.1)
    tracer = spans.Tracer(prog)
    with tracer.installed(), tracer.op("probe"):
        assert solver.direction_ratio_arrays is not original
        solver.direction_ratio_arrays(cfg.p, cfg.q, [[0.0, 0.1, 0.0, 0.0], [0.0, 0.0, 0.2, 0.0]])
    assert solver.direction_ratio_arrays is original
    assert prog["instanton"].direction_ratio_arrays is original
    calls, rows, seconds, _ = tracer.op_totals()[0]["instanton.direction_ratio_arrays"]
    assert (calls, rows) == (1, 2) and seconds > 0.0
