"""The Intel SDK switchless call backend.

Caller-side protocol (matching ``sgx_uswitchless``):

1. If the ocall is not statically marked switchless → regular transition.
2. Publish a task into the untrusted pool; a full pool → immediate
   fallback.
3. Busy-wait up to ``retries_before_fallback`` pause instructions for a
   worker to *claim* the task.  On timeout, withdraw the task and fall
   back to a regular ocall (the retry cycles are burnt either way — this
   is the waste Take-away 7 is about).
4. Once claimed, busy-wait for completion (the caller thread has nothing
   else to do; this pins one logical CPU per in-flight switchless call,
   the "exactly one thread busy-waiting per active worker" of §IV-A).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.sgx.backend import CallBackend
from repro.sim.instructions import Compute, Spin
from repro.sim.kernel import Program, SimThread, ThreadState
from repro.switchless.config import SwitchlessConfig
from repro.switchless.taskpool import SwitchlessTask, TaskPool
from repro.switchless.worker import IntelWorkerStats, intel_worker_loop

if TYPE_CHECKING:
    from repro.sgx.enclave import Enclave, OcallRequest


class IntelSwitchlessBackend(CallBackend):
    """Statically-configured switchless calls, as shipped in the SDK."""

    name = "intel-switchless"

    def __init__(self, config: SwitchlessConfig | None = None) -> None:
        # Defaulted, mirroring ZcSwitchlessBackend: both backends can be
        # constructed bare and configured by their config dataclasses.
        self.config = config if config is not None else SwitchlessConfig()
        self._enclave: "Enclave | None" = None
        self.pool: TaskPool | None = None
        self.ecall_pool: TaskPool | None = None
        self.worker_threads: list[SimThread] = []
        self.worker_stats: list[IntelWorkerStats] = []
        self.tworker_threads: list[SimThread] = []
        self.tworker_stats: list[IntelWorkerStats] = []
        #: Threads of crashed-and-respawned workers (fault layer).
        self.retired_threads: list[SimThread] = []
        self.worker_respawns = 0
        self._stop_flag = [False]
        self.fallback_count = 0
        self.switchless_count = 0
        self.ecall_fallback_count = 0
        self.ecall_switchless_count = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, enclave: "Enclave") -> None:
        """Install this backend on ``enclave`` (spawns its threads)."""
        self._enclave = enclave
        self.pool = TaskPool(enclave.kernel, self.config.effective_pool_capacity)
        for i in range(self.config.num_uworkers):
            stats = IntelWorkerStats()
            self.worker_stats.append(stats)
            thread = enclave.kernel.spawn(
                intel_worker_loop(
                    enclave, self.pool, self.config, stats, self._stop_flag, index=i
                ),
                name=f"intel-worker-{i}",
                kind="intel-worker",
                daemon=True,
            )
            self.worker_threads.append(thread)
        if self.config.switchless_ecalls:
            # Trusted worker threads serving switchless ecalls.
            self.ecall_pool = TaskPool(
                enclave.kernel, 2 * self.config.num_tworkers
            )
            for i in range(self.config.num_tworkers):
                stats = IntelWorkerStats()
                self.tworker_stats.append(stats)
                thread = enclave.kernel.spawn(
                    intel_worker_loop(
                        enclave,
                        self.ecall_pool,
                        self.config,
                        stats,
                        self._stop_flag,
                        executor=enclave.trts.execute,
                        index=i,
                        target="intel-tworker",
                    ),
                    name=f"intel-tworker-{i}",
                    kind="intel-tworker",
                    daemon=True,
                )
                self.tworker_threads.append(thread)
            enclave.ecall_dispatcher = self

    def stop(self) -> None:
        """Terminate the worker pools (process teardown)."""
        self._stop_flag[0] = True
        if self.pool is not None:
            self.pool.wake_all()
        if self.ecall_pool is not None:
            self.ecall_pool.wake_all()

    # ------------------------------------------------------------------
    # Fault supervision (active only while a fault injector is attached)
    # ------------------------------------------------------------------
    def respawn_worker(self, index: int, target: str | None = None) -> bool:
        """Supervise a crashed worker slot back to life.

        Restarts the worker loop on a fresh thread, reusing the slot's
        accumulated statistics.  Returns False when the respawn is moot
        (runtime shutting down, bad slot, or the thread is still alive).
        """
        if target is None:
            target = "intel-worker"
        enclave = self._enclave
        if enclave is None or self._stop_flag[0]:
            return False
        if target == "intel-worker":
            threads, stats_list, pool, executor = (
                self.worker_threads,
                self.worker_stats,
                self.pool,
                None,
            )
        elif target == "intel-tworker":
            threads, stats_list, pool, executor = (
                self.tworker_threads,
                self.tworker_stats,
                self.ecall_pool,
                enclave.trts.execute,
            )
        else:
            return False
        if pool is None or not 0 <= index < len(threads):
            return False
        old = threads[index]
        if old.state is not ThreadState.DONE:
            return False
        self.retired_threads.append(old)
        self.worker_respawns += 1
        thread = enclave.kernel.spawn(
            intel_worker_loop(
                enclave,
                pool,
                self.config,
                stats_list[index],
                self._stop_flag,
                executor=executor,
                index=index,
                target=target,
            ),
            name=f"{target}-{index}-r{self.worker_respawns}",
            kind=target,
            daemon=True,
        )
        threads[index] = thread
        return True

    # ------------------------------------------------------------------
    # Call path
    # ------------------------------------------------------------------
    def invoke(self, request: "OcallRequest") -> Program:
        """Execute one call request (simulated program on the caller thread)."""
        enclave = self._enclave
        pool = self.pool
        if enclave is None or pool is None:
            raise RuntimeError("backend not attached to an enclave")
        cost = enclave.cost
        if not self.config.is_switchless(request.name):
            result = yield from self._regular(request)
            request.mode = "regular"
            return result

        bus = enclave.kernel.bus
        yield Compute(cost.switchless_enqueue_cycles, tag="sl-enqueue")
        task = SwitchlessTask(enclave.kernel, request)
        if not pool.try_enqueue(task):
            self.fallback_count += 1
            if bus is not None:
                bus.emit("intel.fallback", name=request.name, reason="pool-full")
            result = yield from self._regular(request)
            request.mode = "fallback"
            return result

        rbf_budget = cost.pause_loop_cycles(self.config.retries_before_fallback)
        picked = yield Spin(task.picked, rbf_budget, tag="sl-wait-pickup")
        if not picked and pool.try_cancel(task):
            # Retry budget exhausted and nobody claimed the task.
            self.fallback_count += 1
            if bus is not None:
                bus.emit("intel.fallback", name=request.name, reason="retry-timeout")
            result = yield from self._regular(request)
            request.mode = "fallback"
            return result

        # Claimed (possibly at the last instant): busy-wait for completion.
        # Under fault injection the wait is bounded: if the claiming
        # worker crashed, the task is abandoned and the call recovers via
        # a regular fallback.  Healthy runs never consult the timeout.
        started = enclave.kernel.now
        yield Spin(task.done, self._completion_timeout(), tag="sl-wait-done")
        if not task.done.fired:
            task.abandoned = True
            self.fallback_count += 1
            if bus is not None:
                bus.emit(
                    "intel.fallback", name=request.name, reason="completion-timeout"
                )
            faults = enclave.kernel.faults
            if faults is not None:
                faults.emit(
                    "fault.caller.timeout",
                    name=request.name,
                    waited_cycles=enclave.kernel.now - started,
                )
            result = yield from self._regular(request)
            request.mode = "fallback"
            return result
        self.switchless_count += 1
        # No per-success emit — ``ocall.complete`` carries the chosen mode;
        # only fallbacks (the exceptional path) are bus events.
        request.mode = "switchless"
        return task.done.value

    def _completion_timeout(self) -> float:
        """Bound on a claimed task's completion wait.

        Unbounded on healthy runs; the fault injector's caller timeout
        while one is attached.
        """
        assert self._enclave is not None
        faults = self._enclave.kernel.faults
        if faults is None:
            return math.inf
        return faults.caller_timeout_cycles(self.config.completion_timeout_cycles)

    def _regular(self, request: "OcallRequest") -> Program:
        enclave = self._enclave
        assert enclave is not None
        cost = enclave.cost
        yield Compute(cost.eexit_cycles, tag="eexit")
        result = yield from enclave.urts.execute(request)
        yield Compute(cost.eenter_cycles, tag="eenter")
        return result

    # ------------------------------------------------------------------
    # Ecall path (installed as the enclave's ecall dispatcher when the
    # configuration marks any ecall switchless)
    # ------------------------------------------------------------------
    def invoke_ecall(self, request: "OcallRequest") -> Program:
        """Switchless-or-fallback execution of a named ecall.

        Same protocol as the ocall path, with the directions flipped: the
        untrusted caller publishes into the trusted pool and trusted
        workers execute; the fallback is a regular EENTER/EEXIT ecall.
        """
        enclave = self._enclave
        pool = self.ecall_pool
        if enclave is None or pool is None:
            raise RuntimeError("ecall dispatch not configured")
        cost = enclave.cost
        if not self.config.is_switchless_ecall(request.name):
            result = yield from self._regular_ecall(request)
            request.mode = "regular"
            return result

        bus = enclave.kernel.bus
        yield Compute(cost.switchless_enqueue_cycles, tag="sl-ecall-enqueue")
        task = SwitchlessTask(enclave.kernel, request)
        if not pool.try_enqueue(task):
            self.ecall_fallback_count += 1
            if bus is not None:
                bus.emit(
                    "intel.fallback", name=request.name, reason="pool-full", path="ecall"
                )
            result = yield from self._regular_ecall(request)
            request.mode = "fallback"
            return result

        rbf_budget = cost.pause_loop_cycles(self.config.retries_before_fallback)
        picked = yield Spin(task.picked, rbf_budget, tag="sl-ecall-wait-pickup")
        if not picked and pool.try_cancel(task):
            self.ecall_fallback_count += 1
            if bus is not None:
                bus.emit(
                    "intel.fallback", name=request.name, reason="retry-timeout", path="ecall"
                )
            result = yield from self._regular_ecall(request)
            request.mode = "fallback"
            return result

        # Bounded under fault injection, exactly as the ocall path above.
        started = enclave.kernel.now
        yield Spin(task.done, self._completion_timeout(), tag="sl-ecall-wait-done")
        if not task.done.fired:
            task.abandoned = True
            self.ecall_fallback_count += 1
            if bus is not None:
                bus.emit(
                    "intel.fallback",
                    name=request.name,
                    reason="completion-timeout",
                    path="ecall",
                )
            faults = enclave.kernel.faults
            if faults is not None:
                faults.emit(
                    "fault.caller.timeout",
                    name=request.name,
                    waited_cycles=enclave.kernel.now - started,
                )
            result = yield from self._regular_ecall(request)
            request.mode = "fallback"
            return result
        self.ecall_switchless_count += 1
        request.mode = "switchless"
        return task.done.value

    def _regular_ecall(self, request: "OcallRequest") -> Program:
        enclave = self._enclave
        assert enclave is not None
        cost = enclave.cost
        yield Compute(cost.ecall_entry_cycles, tag="eenter")
        result = yield from enclave.trts.execute(request)
        yield Compute(cost.ecall_exit_cycles, tag="eexit")
        return result
