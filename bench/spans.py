"""Span tracer that measures gluecount's layers from outside the package.

Tracer.installed() replaces every public function of the layer modules
with a timing wrapper, in each gluecount namespace that holds it: the
defining module (so calls inside a module are seen too) and every module
that imported it by name.  Leaving the context puts the original function
objects back.  No program file changes.

Calls of the stage functions in STAGES become spans of their own (name,
start, end, parent).  Every other wrapped call is a high-frequency leaf:
it is folded into the nearest enclosing span as running totals of calls,
rows, inclusive seconds and self seconds, so trace memory grows with the
number of stages, not with the number of kernel calls.  Wrapped calls
made while no span is open (input generation, output checks) pass
straight through.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter

# Calls recorded as spans of their own: the entry points the workloads call
# and the per-cell stages below them.  At most a few dozen per op.
STAGES = frozenset(
    {
        "solver.enumerate_solutions",
        "solver.oracle_enumerate",
        "solver.compare_solution_sets",
        "solver.orientation_sign",
        "background.targets",
        "background.make_background",
        "rank_one.solve_rank_one",
        "rank_one.oracle_rank_one",
    }
)

# Private functions wrapped as counters.  _build_record is the full-defect
# certification of one candidate; its call count is the denominator of the
# oracle's records-per-certification waste ratio.  Absent names are skipped.
HOOKS = frozenset({"solver._build_record"})


def _batch_rows(core_ndim: int):
    def rows(result) -> int:
        shape = getattr(result, "shape", None)
        return math.prod(shape[:-core_ndim]) if shape is not None else 0

    return rows


# Work done by one call, read from its result: batch rows for the array
# kernels, records for the enumerations, draws for make_background.
ROWS = {
    "rotations.quat_mul": _batch_rows(1),
    "rotations.unit_quat_to_rotation": _batch_rows(2),
    "rotations.quat_to_rotation": _batch_rows(2),
    "instanton.direction_ratio_arrays": _batch_rows(1),
    "instanton.curvature_arrays": _batch_rows(2),
    "linalg3.batched_singular_values": _batch_rows(1),
    "linalg3.adjugate3": _batch_rows(2),
    "background.eval_background": _batch_rows(2),
    "background.make_background": lambda f: f.attempt + 1,
    "solver.enumerate_solutions": len,
    "solver.oracle_enumerate": len,
}


@dataclass
class Span:
    """One stage call or op; `calls` holds the leaf totals folded into it,
    name -> [calls, rows, seconds, self seconds]."""

    id: int
    name: str
    parent: int | None
    op: int
    start: float = 0.0
    end: float = 0.0
    self_s: float = 0.0
    rows: int = 0
    calls: dict[str, list] = field(default_factory=dict)


def _wrapped_functions(modules: dict) -> dict:
    """function object -> qualified name 'module.function' for every public
    function defined in the layer modules (short name -> module), plus the
    HOOKS that exist."""
    found = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            qual = f"{short}.{name}"
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                not name.startswith("_") or qual in HOOKS
            ):
                found[obj] = qual
    return found


class Tracer:
    """Collects spans for ops run inside op(); see the module docstring."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._frames: list[list[float]] = []
        self._ops = 0

    @contextmanager
    def installed(self):
        """Patch every gluecount namespace; restore the originals on exit."""
        functions = _wrapped_functions(self.modules)
        wrappers = {fn: self._wrap(qual, fn) for fn, qual in functions.items()}
        patched = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "gluecount" or modname.startswith("gluecount.")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        try:
            yield self
        finally:
            for mod, name, obj in patched:
                setattr(mod, name, obj)

    @contextmanager
    def op(self, label: str):
        """Top-level span for one benchmark op (or the set-up pass)."""
        span = Span(len(self.spans), label, None, self._ops)
        self.spans.append(span)
        self._open.append(span)
        frame = [0.0]
        self._frames.append(frame)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            span.self_s = span.end - span.start - frame[0]
            self._frames.pop()
            self._open.pop()
            self._ops += 1

    def _wrap(self, qual: str, fn):
        rows_of = ROWS.get(qual)
        stage = qual in STAGES
        open_spans = self._open
        frames = self._frames
        spans = self.spans

        def wrapper(*args, **kwargs):
            if not open_spans:
                return fn(*args, **kwargs)
            if stage:
                parent = open_spans[-1]
                span = Span(len(spans), qual, parent.id, parent.op)
                spans.append(span)
                open_spans.append(span)
            frame = [0.0]
            frames.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = perf_counter() - t0
                frames.pop()
                frames[-1][0] += dur
                rows = rows_of(result) if rows_of is not None and result is not None else 0
                if stage:
                    open_spans.pop()
                    span.start, span.end = t0, t0 + dur
                    span.self_s = dur - frame[0]
                    span.rows = rows
                else:
                    totals = open_spans[-1].calls.get(qual)
                    if totals is None:
                        totals = open_spans[-1].calls[qual] = [0, 0, 0.0, 0.0]
                    totals[0] += 1
                    totals[1] += rows
                    totals[2] += dur
                    totals[3] += dur - frame[0]

        return functools.update_wrapper(wrapper, fn)

    def op_totals(self) -> list[dict[str, list]]:
        """Per op: qualified name -> [calls, rows, seconds, self seconds],
        summed over the op's stage spans and folded leaf calls."""
        totals: list[dict[str, list]] = [{} for _ in range(self._ops)]
        for span in self.spans:
            per_op = totals[span.op]
            if span.parent is not None:
                t = per_op.setdefault(span.name, [0, 0, 0.0, 0.0])
                t[0] += 1
                t[1] += span.rows
                t[2] += span.end - span.start
                t[3] += span.self_s
            for name, (calls, rows, s, self_s) in span.calls.items():
                t = per_op.setdefault(name, [0, 0, 0.0, 0.0])
                t[0] += calls
                t[1] += rows
                t[2] += s
                t[3] += self_s
        return totals

    def to_json(self) -> list[dict]:
        return [asdict(span) for span in self.spans]
