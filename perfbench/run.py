"""The repository's benchmark: three seeded workloads, checked answers.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``catalogue-static`` — a 10k-name, ~250-shape catalogue, serial; the
  static index, containment and assembly layers do the work;
* ``catalogue-pool`` — ~230 distinct operations with ``jobs=2``; the
  decision procedures do the work, behind pool start, artifact shipping
  and chunk IPC;
* ``service-check`` — ``repro serve --workers 2`` in its own process
  under a closed loop of 2 keep-alive clients, 90% verdict-cache hits.

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run (spans owned by the benchmark, see
``spans.py``) including ``unattributed_frac`` and ``trace_overhead_frac``.
Timed end-to-end metrics are medians over a run's samples, each divided
by the machine's slowdown measured around it (``common.slowdown``).
Stdout carries the environment as one JSON line, a readable metric
table, and, as its last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 0
only when every answer passed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit("perfbench: this checkout has no src/repro to measure")
sys.path[:0] = [SRC, HERE]

import catalogue  # noqa: E402
import common  # noqa: E402
import service  # noqa: E402

WORKLOADS = (*catalogue.CATALOGUES, "service-check")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(json.dumps({"environment": common.environment(),
                      "workload": args.workload, "seed": args.seed}))
    trace = bool(args.trace)
    if args.workload == "service-check":
        result = service.run(args.seed, args.seconds, trace)
    else:
        result = catalogue.run(args.workload, args.seed, args.seconds, trace)
    table = common.PER_LAYER if trace else common.END_TO_END
    values = result["layers"] if trace else result["end_to_end"]
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in table
    }
    common.print_table(
        f"{args.workload} seed={args.seed} {'per-layer' if trace else 'end-to-end'}"
        f" samples={result['samples']}",
        metrics,
    )
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
