"""Paper-reported ratios for the ``paper-figures`` workload.

Each reference is a headline ratio that EXPERIMENTS.md quotes from the
paper for one of the experiments the workload runs, with the accessor
that reads the simulated counterpart from that experiment's assembled
result.  ``paper.log_err`` is the mean of ``|ln(sim / paper)|`` over the
table.  Fig. 2 and Fig. 3 have no numeric paper values in EXPERIMENTS.md
(only orderings, which their shape checks test), so they add no rows.

The serve, replay and AES workloads have no hardware reference: the
model is unvalidated there and they get no error figure.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from common import geomean

#: (id, what, paper value, accessor over {experiment id: result}).
REFERENCES: tuple[tuple[str, str, float, Callable[[dict[str, Any]], float]], ...] = (
    ("sec3a.c2_vs_c1", "C2 / C1 runtime", 1.78,
     lambda r: r["sec3a"].runtime("C2") / r["sec3a"].runtime("C1")),
    ("sec3a.c3_vs_c1", "C3 / C1 runtime", 1.44,
     lambda r: r["sec3a"].runtime("C3") / r["sec3a"].runtime("C1")),
    ("sec3a.c4_vs_c1", "C4 / C1 runtime", 1.44,
     lambda r: r["sec3a"].runtime("C4") / r["sec3a"].runtime("C1")),
    ("sec3a.c5_vs_c1", "C5 / C1 runtime", 1.11,
     lambda r: r["sec3a"].runtime("C5") / r["sec3a"].runtime("C1")),
    ("fig7.unaligned_32k_gbps", "unaligned 32 kB write GB/s", 0.4,
     lambda r: r["fig7"].gbps(32_768, False)),
    ("fig8.no_sl_vs_zc", "no_sl / zc SET latency", 1.22,
     lambda r: r["fig8"].mean_latency("no_sl") / r["fig8"].mean_latency("zc")),
    ("fig8.zc_vs_i-all-2", "zc / i-all-2 SET latency", 1.33,
     lambda r: r["fig8"].mean_latency("zc") / r["fig8"].mean_latency("i-all-2")),
    ("fig10.i-frwoc-2_vs_zc", "i-frwoc-2 / zc latency", 1.62,
     lambda r: r["fig10"].latency("i-frwoc-2") / r["fig10"].latency("zc")),
    ("fig10.i-frwoc-4_vs_zc", "i-frwoc-4 / zc latency", 1.82,
     lambda r: r["fig10"].latency("i-frwoc-4") / r["fig10"].latency("zc")),
    ("fig13.aligned_32k", "zc memcpy speed-up, aligned 32 kB", 3.6,
     lambda r: r["fig13"].speedup(32_768, True)),
    ("fig13.unaligned_32k", "zc memcpy speed-up, unaligned 32 kB", 15.1,
     lambda r: r["fig13"].speedup(32_768, False)),
)


def reference_table(results: dict[str, Any]) -> list[dict[str, Any]]:
    """One row per paper reference: simulated value, paper value, log error."""
    rows = []
    for ref_id, what, paper, accessor in REFERENCES:
        sim = accessor(results)
        rows.append({
            "id": ref_id,
            "what": what,
            "paper": paper,
            "sim": sim,
            "log_err": abs(math.log(sim / paper)),
        })
    return rows


def _best_intel(labels: list[str], cost: Callable[[str], float]) -> str:
    return min((label for label in labels if label.startswith("i-")), key=cost)


def zc_vs_best_intel(results: dict[str, Any]) -> dict[str, Any]:
    """zc over the best static Intel configuration, on Fig. 8 and Fig. 10.

    The latency ratio is the geometric mean of zc latency (runtime) over
    the fastest Intel configuration's; the CPU ratio compares zc's CPU%
    with that same configuration's.
    """
    fig8, fig10 = results["fig8"], results["fig10"]
    best8 = _best_intel(fig8.labels, fig8.mean_latency)
    best10 = _best_intel(fig10.labels, fig10.latency)
    latency = [
        fig8.mean_latency("zc") / fig8.mean_latency(best8),
        fig10.latency("zc") / fig10.latency(best10),
    ]
    cpu = [
        fig8.mean_cpu("zc") / fig8.mean_cpu(best8),
        fig10.cpu("zc") / fig10.cpu(best10),
    ]
    return {
        "best": {"fig8": best8, "fig10": best10},
        "latency": geomean(latency),
        "cpu": geomean(cpu),
    }
