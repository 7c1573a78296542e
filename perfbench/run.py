"""The repository benchmark: one command, every workload, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live-ring --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
program's layer boundaries, records spans and prints the per-layer metrics
(see ``perfbench/README.md``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A violated
correctness gate prints the violations to standard error, reports
``"correct": false`` and exits 1; a missing program exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("live-ring", "live-ring-sync", "sim-mrpstore")
OUT_DIR = HERE / "out"


def _fail_without_program() -> None:
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _fail_without_program()

    from perfbench import report

    OUT_DIR.mkdir(exist_ok=True)
    if args.workload.startswith("live-"):
        outcome = report.live(args.workload, args.seed, args.seconds, args.trace, str(OUT_DIR))
    else:
        outcome = report.sim(args.workload, args.seed, args.seconds, args.trace, str(OUT_DIR))
    for line in outcome.lines:
        print(line)
    for problem in outcome.problems:
        print(f"CORRECTNESS VIOLATION: {problem}", file=sys.stderr)
    metrics = {}
    for name, (value, unit) in outcome.metrics.items():
        if not math.isfinite(value):
            print(f"metric {name} is not finite: {value}", file=sys.stderr)
            outcome.problems.append(f"{name} not finite")
            value = -1.0
        metrics[name] = {"value": value, "unit": unit}
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
