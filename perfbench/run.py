"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {build,query,live} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` measures and prints the end-to-end metrics;
``--trace 1`` is a separate run that attributes the work to the
program's layers and prints the per-layer metrics.  Which metrics each kind
of run prints, with their units, is read from ``BENCHMARK.json``.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Failed operations and failed correctness checks are counted per error code
(with their first messages) and printed before it; any failure makes the
run exit with code 1.  Scratch data lives under ``.perfbench_work/`` and
is removed at exit; the traced run writes its spans to
``.perfbench_out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import sys
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("build", "query", "live")

def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def select_metrics(values: dict[str, Any], root: str, trace: int) -> dict[str, Any]:
    """The metrics ``BENCHMARK.json`` lists for this kind of run.

    A traced run reports every per-layer metric, 0 where the workload does
    not reach the layer; a name the spec does not list is a benchmark bug.
    """
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = sorted(set(values) - set(units))
        if unknown:
            raise ValueError(f"per-layer values not in BENCHMARK.json: {unknown}")
        return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()}
    metrics = {}
    for m in spec["end_to_end"]:
        if values[m["name"]]["unit"] != m["unit"]:
            raise ValueError(f"{m['name']} is measured in {values[m['name']]['unit']}, not {m['unit']}")
        metrics[m["name"]] = values[m["name"]]
    return metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds, so the server it started is stopped.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program source at {src}/repro; run from a checkout root", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, src]
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    from common import Failures
    from probe import SpanLog

    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    failures = Failures()
    spans = SpanLog()
    try:
        if args.workload == "build":
            import wl_build

            values = wl_build.run(args, workdir, failures, spans)
        elif args.workload == "query":
            import wl_query

            values = wl_query.run(args, workdir, failures, spans, env)
        else:
            import wl_live

            values = wl_live.run(args, workdir, failures, spans, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(os.path.dirname(workdir))
    if args.trace:
        spans.write(os.path.join(root, ".perfbench_out", f"spans-{args.workload}-{args.seed}.jsonl"))
    metrics = select_metrics(values, root, args.trace)
    if failures.failed:
        print("failures: " + json.dumps(failures.report(), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failures.failed == 0,
                "attempted": max(1, failures.attempted),
                "failed": failures.failed,
                "metrics": metrics,
            }
        )
    )
    sys.stdout.flush()
    return 0 if failures.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
