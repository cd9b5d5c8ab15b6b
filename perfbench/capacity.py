#!/usr/bin/env python3
"""Measure one shard's capacity under the replay-elastic traffic mix.

The ``replay-elastic`` workload sizes its flash crowd from this number
(:data:`workloads.ReplayElastic.CAPACITY_RPS`).  The script replays
steady traces of the committed ``multiapp-soak`` mix (apps, tenants,
keys) at rising offered rates on one static ``zc`` shard and prints the
completion rate of each; the capacity is the highest completion rate,
reached once the shard sheds.

Run from the repository root:

    python3 perfbench/capacity.py
"""

from __future__ import annotations

import dataclasses
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Offered rates (requests per simulated second) of the sweep.
RATES = (80_000.0, 160_000.0, 240_000.0, 320_000.0)
DURATION_S = 0.06
SEED = 7


def main() -> int:
    from repro.api import BenchSpec, Runtime, ServeSpec
    from repro.scenarios.catalog import get_scenario
    from repro.scenarios.generate import generate_trace
    from repro.scenarios.trace import load_trace, write_trace

    soak = get_scenario("multiapp-soak")
    best = 0.0
    print("offered_rps  issued  completed  shed  completed_rps")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "capacity.trace.jsonl")
    for rate in RATES:
        scenario = dataclasses.replace(
            soak, name="capacity", seed=SEED, duration_s=DURATION_S, rate_rps=rate
        )
        write_trace(generate_trace(scenario), path)
        totals = Runtime.serve(
            BenchSpec(serve=ServeSpec(shards=1)), trace=load_trace(path)
        )["totals"]
        completed_rps = totals["completed"] / DURATION_S
        best = max(best, completed_rps)
        print(
            f"{rate:>11.0f} {totals['issued']:>7} {totals['completed']:>10} "
            f"{totals['shed']:>5} {completed_rps:>14.0f}"
        )
    print(f"one-shard capacity: {best:.0f} requests/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
