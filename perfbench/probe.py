"""Observation of one pass from outside the program.

A :class:`Probe` wraps one pass of a workload in a
:class:`repro.telemetry.TelemetrySession` (the cycle ledger and call
tracer the program already ships) and, for traced runs, a stdlib
``cProfile`` profiler.  It adds nothing inside the simulator: the
session's ``on_attach`` hook hands over each simulated kernel, and
everything else is read from public counters after the pass.

Host self time is rolled up by ``repro.<subpackage>``.  Time spent in a
function outside the package (a builtin or stdlib call) is charged to
the package of the caller that made the call, one level up.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Any

#: Ledger categories reported per request (work cycles).
CYCLE_CATEGORIES = (
    "worker-spin", "caller-spin", "transition", "marshal", "app", "host-exec",
)

#: ``repro`` subpackages reported by the per-layer self-time rollup.
PACKAGES = (
    "sim", "core", "switchless", "sgx", "apps", "hostos", "crypto",
    "serve", "autoscale", "obs", "telemetry",
)

_MARKER = os.sep + "repro" + os.sep


def package_of(filename: str) -> str | None:
    """``repro`` subpackage (or top-level module) a source file belongs to."""
    index = filename.rfind(_MARKER)
    if index < 0:
        return None
    head = filename[index + len(_MARKER):].split(os.sep, 1)[0]
    return head[:-3] if head.endswith(".py") else head


class Probe:
    """Ledger (and optionally cProfile) attached around one pass."""

    def __init__(self, profile: bool) -> None:
        from repro.telemetry import TelemetrySession

        self.kernels: list[Any] = []
        self.session = TelemetrySession(tracer_max_events=0, on_attach=self._attached)
        self.profiler = cProfile.Profile() if profile else None

    def _attached(self, capture: Any) -> None:
        self.kernels.append(capture.kernel)

    def __enter__(self) -> "Probe":
        self.session.__enter__()
        if self.profiler is not None:
            self.profiler.enable()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.profiler is not None:
            self.profiler.disable()
        self.session.__exit__(*exc_info)
        self.session.finalize_all()

    # ------------------------------------------------------------------
    # Simulated side
    # ------------------------------------------------------------------
    def captures(self, label_prefix: str = "") -> list[Any]:
        return [c for c in self.session.captures if c.label.startswith(label_prefix)]

    def events(self) -> int:
        return sum(kernel.events_processed for kernel in self.kernels)

    def ledger(self, label_prefix: str = "") -> dict[str, Any]:
        """Busy cycles (capacity − idle) and work cycles per category."""
        busy = 0.0
        work = {category: 0.0 for category in CYCLE_CATEGORIES}
        for capture in self.captures(label_prefix):
            snap = capture.snapshot
            busy += snap.capacity_cycles - snap.idle_cycles
            for category in CYCLE_CATEGORIES:
                work[category] += snap.work_by_category.get(category, 0.0)
        return {"busy_cycles": busy, "work_cycles": work}

    def call_latencies_kc(self, label_prefix: str) -> list[float]:
        """Latency of every traced ocall on matching cells, in kilocycles."""
        return [
            event.latency_cycles / 1e3
            for capture in self.captures(label_prefix)
            for event in capture.call_events
        ]

    def call_modes(self, label_prefix: str = "") -> dict[str, int]:
        counts: dict[str, int] = {}
        for capture in self.captures(label_prefix):
            for event in capture.call_events:
                counts[event.mode] = counts.get(event.mode, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Host side
    # ------------------------------------------------------------------
    def rollup(self) -> dict[str, dict[str, float]]:
        """cProfile self seconds and call counts per ``repro`` subpackage."""
        if self.profiler is None:
            return {}
        stats = pstats.Stats(self.profiler).stats  # type: ignore[attr-defined]
        out: dict[str, dict[str, float]] = {}

        def charge(package: str, seconds: float, calls: int) -> None:
            entry = out.setdefault(package, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += seconds
            entry["calls"] += calls

        for (filename, _, _), (_, ncalls, tottime, _, callers) in stats.items():
            package = package_of(filename)
            if package is not None:
                charge(package, tottime, ncalls)
                continue
            # Outside repro: charge each calling package its share.
            for (caller_file, _, _), caller_stats in callers.items():
                caller_package = package_of(caller_file) or "other"
                charge(caller_package, caller_stats[2], 0)
        return out

    def function_calls(self, module_suffix: str, function: str) -> int:
        """cProfile call count of one function (0 when not profiled)."""
        if self.profiler is None:
            return 0
        stats = pstats.Stats(self.profiler).stats  # type: ignore[attr-defined]
        suffix = module_suffix.replace("/", os.sep)
        return sum(
            value[1]
            for (filename, _, name), value in stats.items()
            if name == function and filename.endswith(suffix)
        )
