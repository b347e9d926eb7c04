#!/usr/bin/env python3
"""Self-test of the benchmark itself: seeded inputs and counters repeat.

Run from the repository root:

    python3 perfbench/selftest.py [--seed N] [--seconds S]

For every workload it makes two traced runs with the same seed and asserts
that every per-layer counter (candidates, divisibility tests, constraints,
factor pairs, search levels, (s, M), ...) is identical and that no decode
failed.  It also checks that the metric names match BENCHMARK.json.  Exits
0 when all checks pass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def benchmark_names() -> tuple[list[str], list[str]]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=0.5,
                    help="sizes the traced word list of each run")
    args = ap.parse_args(argv)
    rsmld = run.import_rsmld()

    problems = []
    e2e, layers = benchmark_names()
    if e2e != [name for name, _ in run.END_TO_END]:
        problems.append("end_to_end names differ from BENCHMARK.json")
    if layers != [name for name, *_ in run.PER_LAYER]:
        problems.append("per_layer names differ from BENCHMARK.json")

    for workload in run.WORKLOADS:
        counters = []
        for _ in range(2):
            ledger = run.Ledger()
            metrics, _ = run.traced(rsmld, workload, args.seed, args.seconds,
                                    ledger)
            if ledger.failed:
                problems.append(f"{workload}: {ledger.reasons}")
            counters.append({name: metrics[name] for name in run.COUNTERS})
        first, second = counters
        moved = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        if moved:
            problems.append(f"{workload}: counters differ {moved}")
        print(f"{workload}: {'ok' if not moved else 'COUNTERS DIFFER'} "
              + json.dumps(first, sort_keys=True))

    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
