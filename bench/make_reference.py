"""Record the reference outcomes that later benchmark runs are gated on.

    python3 bench/make_reference.py [--workload sweep oracle lemma]

For the default workload seed 0 and, less deeply, for seeds 1..15, runs
the first ops of each workload on the program in src/, checks them, and
writes their outcomes to bench/reference/<workload>.json keyed by op.  A
benchmark run then fails every op whose output differs from the recorded
one (solution sets within 1e-6 with equal pairings and signs; lemma
rotations within 1e-6).  Regenerate only at a commit whose outputs are
known good: the file pins them.
"""

from __future__ import annotations

import argparse
import json
from itertools import islice

import run
import workloads

# (ops for seed 0, ops for each of seeds 1..15)
DEPTH = {"sweep": (36, 6), "oracle": (16, 4), "lemma": (200, 20)}
SEEDS = range(16)


def _short(value):
    """Twelve significant digits: far below the 1e-6 comparison tolerance."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_short(v) for v in value]
    if isinstance(value, dict):
        return {k: _short(v) for k, v in value.items()}
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", default=list(DEPTH), choices=list(DEPTH))
    args = parser.parse_args(argv)
    prog = workloads.import_program(run.SRC)
    errors = workloads.op_errors(prog)
    for name in args.workload:
        workload = workloads.WORKLOADS[name]
        ops = {}
        for seed in SEEDS:
            depth = DEPTH[name][0 if seed == 0 else 1]
            for item in islice(workload.inputs(prog, seed), depth):
                try:
                    output = workload.run(prog, item)
                except errors as exc:
                    print(f"{name} {item.key}: {type(exc).__name__}: {exc} (not recorded)")
                    continue
                problems = workload.check(prog, item, output, None)
                if problems:
                    raise SystemExit(f"{name} {item.key} fails its checks: {problems}")
                ops[item.key] = _short(workload.reference(output))
            print(f"{name}: seed {seed} recorded", flush=True)
        doc = {
            "git_commit": run._git_commit(),
            "source_sha256": run._source_digest(),
            "ops": ops,
        }
        body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in ops.items())
        head = json.dumps({k: v for k, v in doc.items() if k != "ops"}, indent=1)[:-2]
        path = run.HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(f'{head},\n "ops": {{\n{body}\n}}}}\n')
        json.loads(path.read_text())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
