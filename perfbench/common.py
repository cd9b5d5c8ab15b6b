"""Statistics, digests and process helpers shared by the benchmark modules.

Nothing here imports :mod:`repro`: the benchmark times the program's
imports as part of set-up, so the simulator is only imported inside a
workload's ``setup``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import sys
from typing import Any, Iterable

#: Candidate tail percentiles, highest first.  The reported tail is the
#: highest one that still has at least ``TAIL_MIN_BEYOND`` samples above it.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(ordered: list[float], q: float) -> float:
    """Linearly interpolated percentile of an already sorted list."""
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    lower, upper = math.floor(position), math.ceil(position)
    if lower == upper:
        return ordered[lower]
    frac = position - lower
    return ordered[lower] * (1.0 - frac) + ordered[upper] * frac


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    for q in TAIL_CANDIDATES:
        if n * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND:
            return q
    return 50.0


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def digest(obj: Any) -> str:
    """SHA-256 over a canonical JSON rendering (``repr`` for non-JSON leaves)."""
    text = json.dumps(obj, sort_keys=True, default=repr, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def purge_repro_modules() -> None:
    """Forget every imported ``repro`` module so the next import re-runs it."""
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    gc.collect()
