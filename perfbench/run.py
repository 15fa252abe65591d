"""End-to-end benchmark of the SMiTe reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_fast --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload api_open_loop --seed 1 --seconds 15 --trace 1

With ``--trace 0`` a run measures the workload's end-to-end metrics;
with ``--trace 1`` it reruns the workload with timers around each
layer's public functions and reports the per-layer metrics instead.
Either way it checks the program's outputs, and the last line it
prints is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each metric a ``value`` and a ``unit``). Metric names and
units come from ``BENCHMARK.json``; every run reports every metric of
its mode, and a metric that does not apply to a workload is described
in ``perfbench/README.md``. The run exits non-zero without printing a
result when it cannot run, for example outside a full checkout.
"""

from __future__ import annotations

import argparse
import json
import sys

import api_load
import paper
from harness import ROOT, SRC, BenchError, Deadline

WORKLOADS = {"paper_fast": paper.run, "api_open_loop": api_load.run}

#: A run must end within 180 s; leave room to report and clean up.
RUN_LIMIT_S = 170.0


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    declared = _declared_metrics(bool(args.trace))
    try:
        outcome = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), Deadline(RUN_LIMIT_S))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    measured = outcome["metrics"]
    unknown = sorted(set(measured) - set(declared))
    if unknown:
        print(f"error: undeclared metrics {unknown}", file=sys.stderr)
        return 1
    for problem in outcome["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if len(outcome["problems"]) > 20:
        print(f"... and {len(outcome['problems']) - 20} more",
              file=sys.stderr)
    result = {
        "correct": not outcome["problems"],
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        # Metrics of the other workload's layers read 0: no work was done
        # in them (see perfbench/README.md).
        "metrics": {name: {"value": float(measured.get(name, 0.0)),
                           "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
