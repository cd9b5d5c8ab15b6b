"""The ZC-SWITCHLESS worker state machine (paper Fig. 6).

Each worker owns a buffer structure with the four fields of §IV-B: the
preallocated untrusted memory pool, the most recent switchless request, a
status field, and a scheduler-communication field (the pause/exit flags).

State transitions:

- caller: ``UNUSED → RESERVED`` (atomic claim), ``RESERVED → PROCESSING``
  (request published), ``WAITING → UNUSED`` (results consumed);
- worker: ``PROCESSING → WAITING`` (results published), ``UNUSED →
  PAUSED`` (scheduler asked, worker idle), ``PAUSED → UNUSED`` (scheduler
  woke it), ``UNUSED → EXIT`` (termination).

An *active* (non-paused) worker always occupies a CPU: it is either
executing a request or busy-waiting for one — the ``M`` cost term in the
scheduler's wasted-cycle model.  A paused worker blocks and costs nothing.
The busy-wait is one unbounded ``Spin`` per idle period, charged
continuously by the kernel, so an idle worker costs one kernel event per
timeslice.  Only a *kick* ends it, so every write to a condition the loop
polls must wake an idle worker: status changes, pause and exit requests
and fault stalls call :meth:`ZcWorker.kick`.  Quarantine needs no kick:
a quarantined slot's thread is dead or still owns its request.

Fault tolerance (see :mod:`repro.faults`): a worker may additionally be
*quarantined* — its slot abandoned after a crash or a caller completion
timeout.  Quarantined workers are skipped by the caller's idle scan and
by the scheduler's activation sweep; a live (or respawned) worker thread
observing its own quarantine flag performs a *rejoin*: it resets the
slot's request/result fields and returns to ``UNUSED``.  All fault checks
are gated on ``kernel.faults``, so healthy runs are unchanged.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING

from repro.core.config import ZcConfig
from repro.core.mempool import MemoryPool
from repro.sim.instructions import Block, Compute, Spin
from repro.sim.kernel import Kernel, Program
from repro.sim.primitives import Event, Gate

if TYPE_CHECKING:
    from repro.sgx.enclave import Enclave, OcallRequest


class WorkerStatus(enum.Enum):
    """Worker buffer status field (Fig. 6)."""

    UNUSED = "unused"
    RESERVED = "reserved"
    PROCESSING = "processing"
    WAITING = "waiting"
    PAUSED = "paused"
    EXIT = "exit"


class ZcWorker:
    """One switchless worker thread's shared buffer and state machine."""

    def __init__(self, kernel: Kernel, index: int, config: ZcConfig) -> None:
        self.kernel = kernel
        self.index = index
        self.config = config
        self.status_gate: Gate = kernel.gate(WorkerStatus.UNUSED, name=f"zcw{index}")
        self.pool = MemoryPool(config.pool_capacity_bytes)
        self.request: "OcallRequest | None" = None
        self.result: object = None
        # Scheduler-communication field.
        self.pause_requested = False
        self.exit_requested = False
        self._kick_event: Event | None = None
        self._unpause_event: Event | None = None
        self.tasks_executed = 0
        self.pauses = 0
        # Fault-tolerance state (only ever set while a fault injector is
        # attached; see the module docstring).
        self.quarantined = False
        self.crashed = False
        self.generation = 0
        self.rejoins = 0

    # ------------------------------------------------------------------
    # Status helpers (atomic within one simulated step)
    # ------------------------------------------------------------------
    @property
    def status(self) -> WorkerStatus:
        """The worker's current status field."""
        return self.status_gate.value  # type: ignore[return-value]

    def set_status(self, status: WorkerStatus) -> None:
        """Atomic status store; also wakes the worker's busy-wait loop."""
        self.status_gate.set(status)
        self.kick()

    def try_reserve(self) -> bool:
        """Caller-side CAS ``UNUSED -> RESERVED``; the claim step of §IV-B."""
        if self.status is not WorkerStatus.UNUSED:
            return False
        self.set_status(WorkerStatus.RESERVED)
        return True

    @property
    def is_paused(self) -> bool:
        """Whether the worker is currently in the PAUSED state."""
        return self.status is WorkerStatus.PAUSED

    @property
    def active(self) -> bool:
        """Whether the worker currently consumes a CPU when idle."""
        return self.status not in (WorkerStatus.PAUSED, WorkerStatus.EXIT)

    # ------------------------------------------------------------------
    # Scheduler-communication field
    # ------------------------------------------------------------------
    def request_pause(self) -> None:
        """Scheduler: deactivate this worker once it is unreserved."""
        self.pause_requested = True
        self.kick()

    def request_unpause(self) -> None:
        """Scheduler: reactivate a paused worker (the §IV-A signal)."""
        self.pause_requested = False
        if self._unpause_event is not None:
            event, self._unpause_event = self._unpause_event, None
            event.fire_if_unfired()

    def request_exit(self) -> None:
        """Runtime teardown: ask the worker to clean up and terminate."""
        self.exit_requested = True
        self.kick()
        self.request_unpause()

    def kick(self) -> None:
        """Wake the worker's poll loop if it is busy-waiting.

        Under an active ``handoff`` fault window the wake-up may be
        dropped (re-delivered later) or delayed by the injector.
        """
        if self._kick_event is not None:
            event, self._kick_event = self._kick_event, None
            faults = self.kernel.faults
            if faults is not None and faults.perturb_handoff(event.fire_if_unfired):
                return
            event.fire_if_unfired()

    # ------------------------------------------------------------------
    # Worker thread program
    # ------------------------------------------------------------------
    def run(self, enclave: "Enclave", executor=None) -> Program:
        """Simulated program of this worker thread.

        ``executor`` selects the handler table: the untrusted runtime for
        ocall workers (default) or the trusted runtime when the same
        machinery serves switchless ecalls (§IV-D symmetry).
        """
        cost = enclave.cost
        if executor is None:
            executor = enclave.urts.execute
        while True:
            if self.quarantined:
                # Rejoin after a crash/abandonment: reset the slot and
                # return it to service.  Gated on our *own* flag (only
                # ever set under fault injection) rather than on
                # ``kernel.faults`` so a quarantined slot still heals
                # after the injector detaches at teardown.
                yield Compute(cost.worker_complete_cycles, tag="fault-rejoin")
                self.request = None
                self.result = None
                self.crashed = False
                self.quarantined = False
                self.rejoins += 1
                faults = self.kernel.faults
                if faults is not None:
                    faults.emit(
                        "fault.worker.rejoin", target="zc-worker", worker=self.index
                    )
                self.status_gate.set(WorkerStatus.UNUSED)
                continue
            faults = self.kernel.faults
            if faults is not None:
                stall = faults.take_stall("zc-worker", self.index)
                if stall:
                    yield Compute(stall, tag="fault-stall")
                    continue
            status = self.status
            if status is WorkerStatus.PROCESSING:
                factor = (
                    1.0 if faults is None else faults.cost_factor("zc-worker", self.index)
                )
                yield Compute(cost.worker_pickup_cycles * factor, tag="zc-pickup")
                request = self.request
                assert request is not None, "PROCESSING with no request"
                result = yield from executor(request)
                yield Compute(cost.worker_complete_cycles * factor, tag="zc-complete")
                self.result = result
                self.tasks_executed += 1
                self.status_gate.set(WorkerStatus.WAITING)  # caller observes
                continue
            if self.exit_requested and status in (WorkerStatus.UNUSED, WorkerStatus.PAUSED):
                # Final cleanup (free pool memory), then terminate.
                yield Compute(cost.worker_complete_cycles, tag="zc-exit-cleanup")
                self.status_gate.set(WorkerStatus.EXIT)
                return
            if self.pause_requested and status is WorkerStatus.UNUSED:
                # Nobody reserved us: release the CPU until the scheduler
                # sends the wake signal.
                self.pauses += 1
                self.status_gate.set(WorkerStatus.PAUSED)
                unpause = self.kernel.event(f"zcw{self.index}-unpause")
                self._unpause_event = unpause
                yield Block(unpause)
                yield Compute(cost.worker_wake_cycles, tag="zc-unpause")
                if not self.exit_requested:
                    self.status_gate.set(WorkerStatus.UNUSED)
                continue
            # UNUSED / RESERVED / WAITING: busy-wait for a state change.
            # This spin is the worker-side CPU cost of keeping a worker
            # active (the M*T term of the wasted-cycle model).  Only a
            # kick ends it (see the module docstring).
            kick = self.kernel.event(f"zcw{self.index}-kick")
            self._kick_event = kick
            yield Spin(kick, math.inf, tag="zc-idle")
