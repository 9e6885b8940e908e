#!/usr/bin/env python3
"""Sink benchmark: run one workload and print its metrics.

Usage, from the repository root::

    python3 sinkbench/run.py --workload mole-hunt --seed 1 --seconds 15 --trace 0

Prints one ``name value unit`` line per metric, the checks, and as the
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace 1`` the per-layer ones.  A run log with the
raw wall-clock figures (and, traced, the spans) is written under
``sinkbench/runs/``.  Exits 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
WORKLOADS = ("mole-hunt", "many-reporters", "field-sim")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"sinkbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("sinkbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # needs the program on sys.path

    declared = _declared(bool(args.trace))
    started = time.perf_counter()
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    missing = sorted(set(declared) - set(outcome.metrics))
    if missing:
        print(f"sinkbench: metrics not produced: {missing}", file=sys.stderr)
        return 2
    correct = all(outcome.checks.values()) and outcome.failed == 0
    for name, unit in declared.items():
        print(f"{args.workload} {name} {outcome.metrics[name]:.6g} {unit}")
    for name, ok in sorted(outcome.checks.items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print(f"error_rate {outcome.failed}/{outcome.attempted}")

    os.makedirs(RUNS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    log = dict(outcome.log, checks=outcome.checks, metrics=outcome.metrics)
    log["run_wall_s"] = time.perf_counter() - started
    with open(os.path.join(RUNS, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(log, fh, indent=1, sort_keys=True)
    if outcome.spans:
        with open(os.path.join(RUNS, stem + ".spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in outcome.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in declared.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
