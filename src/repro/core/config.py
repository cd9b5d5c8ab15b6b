"""Runtime configuration of ZC-SWITCHLESS.

Deliberately small: the system is *configless* from the developer's point
of view.  Everything here is a runtime constant of the mechanism itself
(the paper fixes ``Q`` and ``µ`` empirically), not a per-application knob.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sim.machine import MachineSpec


class SchedulerPolicy(enum.Enum):
    """How the scheduler prices the cost of keeping ``i`` workers active.

    ``PAPER_FORMULA`` is §IV-A verbatim: ``U_i = F_i·T_es + i·µ·Q·freq`` —
    every cycle of an active worker counts as waste.  Analysis (and our
    ablation bench) shows this formula almost never justifies a worker for
    two-caller workloads, because a worker costs a full micro-quantum
    while the fallbacks two callers can produce waste at most about one.

    ``IDLE_WASTE`` prices only the workers' measured *busy-wait* cycles:
    ``U_i = F_i·T_es + idle_spin_cycles_i``.  A worker executing an ocall
    is making the application move forward, so by the paper's own
    definition of a wasted cycle (§IV-A, [16]) it is not wasting.  This
    variant reproduces the paper's *measured* behaviour — e.g. the
    scheduler holding 2 workers for 84.4% of the OpenSSL benchmark — and
    is therefore the default.
    """

    PAPER_FORMULA = "paper-formula"
    IDLE_WASTE = "idle-waste"


@dataclass(frozen=True)
class ZcConfig:
    """ZC-SWITCHLESS runtime parameters.

    An idle worker and a caller waiting for results each busy-wait in one
    spin, charged continuously, until a state change wakes them (see
    :mod:`repro.core.worker`).

    Attributes:
        quantum_seconds: The scheduler quantum ``Q`` (paper: 10 ms).
        mu: Micro-quantum fraction; each configuration-phase probe lasts
            ``µ · Q`` (paper: 1/100).
        max_workers: Worker-pool cap; defaults to ``N/2`` logical CPUs as
            in the paper's evaluation.
        initial_workers: Workers active before the first scheduling
            decision; the paper initialises to ``N/2``.
        pool_capacity_bytes: Size of each worker's preallocated untrusted
            memory pool; when full, the next caller performs a regular
            ocall to free and reallocate it (§IV-B).
        request_header_bytes: Fixed pool bytes per switchless request
            (function id, argument frame, return slot).
        decision_cycles: Scheduler work to compute the argmin each cycle.
        enable_scheduler: Disable to freeze the worker count (used by
            unit tests and ablation benches).
        use_zc_memcpy: Install the optimised ``rep movsb`` memcpy on the
            enclave (§IV-F); on by default, as released.
        request_timeout_cycles: Bound on the caller's completion
            busy-wait, enforced **only while a fault injector is
            attached** (``kernel.faults`` set; the wait is then one spin
            bounded by this many cycles, otherwise unbounded): on expiry
            the caller quarantines the worker slot and recovers via a
            regular fallback ocall.  Healthy runs never consult it.  The
            default (~26 ms at the paper's 3.8 GHz) is far above any
            healthy completion time.
        policy: Worker-cost accounting used by the scheduler; see
            :class:`SchedulerPolicy`.
        worker_affinity: Logical CPUs the worker threads are pinned to
            (sched_setaffinity-style); None lets the OS place them.
            Pinning workers away from the SMT siblings of application
            cores avoids hyperthread interference — see
            ``bench_ablation_pinning``.
    """

    quantum_seconds: float = 0.01
    mu: float = 0.01
    max_workers: int | None = None
    initial_workers: int | None = None
    pool_capacity_bytes: int = 256 * 1024
    request_header_bytes: int = 64
    decision_cycles: float = 2_000.0
    request_timeout_cycles: float = 100_000_000.0
    enable_scheduler: bool = True
    use_zc_memcpy: bool = True
    policy: SchedulerPolicy = SchedulerPolicy.IDLE_WASTE
    worker_affinity: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.quantum_seconds <= 0:
            raise ValueError("quantum_seconds must be positive")
        if not 0 < self.mu <= 1:
            raise ValueError("mu must be in (0, 1]")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.initial_workers is not None and self.initial_workers < 0:
            raise ValueError("initial_workers must be >= 0")
        if self.pool_capacity_bytes < 1:
            raise ValueError("pool_capacity_bytes must be >= 1")
        if self.request_header_bytes < 0:
            raise ValueError("request_header_bytes must be >= 0")
        if self.request_timeout_cycles <= 0:
            raise ValueError("request_timeout_cycles must be positive")

    def quantum_cycles(self, spec: MachineSpec) -> float:
        """``Q`` converted to cycles on ``spec``."""
        return spec.cycles(self.quantum_seconds)

    def micro_quantum_cycles(self, spec: MachineSpec) -> float:
        """``µ · Q`` converted to cycles on ``spec``."""
        return self.mu * self.quantum_cycles(spec)

    def worker_cap(self, spec: MachineSpec) -> int:
        """Maximum worker count: explicit cap or ``N/2`` logical CPUs."""
        if self.max_workers is not None:
            return self.max_workers
        return max(spec.n_logical // 2, 1)

    def initial_worker_count(self, spec: MachineSpec) -> int:
        """Workers active at startup (paper: ``N/2``)."""
        cap = self.worker_cap(spec)
        if self.initial_workers is not None:
            return min(self.initial_workers, cap)
        return cap
