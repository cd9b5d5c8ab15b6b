"""FaultInjector behaviour per fault kind, against live backends."""

import pytest

from repro.api import make_backend
from repro.core import ZcConfig
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sgx import Enclave, UntrustedRuntime
from repro.sim import Compute, Kernel, MachineSpec, ThreadState
from repro.switchless import SwitchlessConfig

MACHINE = MachineSpec(n_cores=4, smt=2)


def zc_backend():
    return make_backend("zc", ZcConfig(enable_scheduler=False))


def intel_backend():
    return make_backend("intel",
        SwitchlessConfig(switchless_ocalls=frozenset({"work"}), num_uworkers=2)
    )


def build(backend_factory=zc_backend):
    kernel = Kernel(MACHINE)
    urts = UntrustedRuntime()
    enclave = Enclave(kernel, urts)
    backend = backend_factory()
    if backend is not None:
        enclave.set_backend(backend)

    def work():
        yield Compute(20_000.0, tag="host-work")
        return "ok"

    urts.register("work", work)
    return kernel, enclave


def storm(kernel, enclave, n_threads=2, calls=200):
    """Drive ``n_threads x calls`` ocalls to completion; returns results."""
    results = []

    def app(i):
        for _ in range(calls):
            results.append((yield from enclave.ocall("work")))

    threads = [
        kernel.spawn(app(i), name=f"app-{i}", kind="app") for i in range(n_threads)
    ]
    kernel.join(*threads)
    return results


def attach(kernel, enclave, *faults, seed=1, **plan_kwargs):
    plan = FaultPlan(name="test", seed=seed, faults=tuple(faults), **plan_kwargs)
    return FaultInjector(plan).attach(kernel, enclave)


def log_names(injector):
    return [name for _, name, _ in injector.fault_log]


class TestLifecycle:
    def test_double_attach_raises(self):
        kernel, enclave = build()
        attach(kernel, enclave)
        with pytest.raises(RuntimeError, match="already attached"):
            attach(kernel, enclave)
        assert kernel.faults is not None

    def test_detach_cancels_pending_faults(self):
        # No backend: a plain kernel.run() must drain instantly once the
        # pending fault timer is cancelled (zc workers would idle-spin).
        kernel, enclave = build(lambda: None)
        injector = attach(
            kernel, enclave, FaultSpec(kind="worker-crash", at_ms=100.0)
        )
        injector.detach()
        kernel.run()  # nothing left: the fault timer was cancelled
        assert kernel.now == 0.0
        assert kernel.faults is None
        assert log_names(injector) == ["fault.plan.attached", "fault.plan.detached"]
        injector.detach()  # idempotent

    def test_detach_after_fired_faults_keeps_timer_counts(self):
        # detach() cancels fault timers that already fired; those are no
        # longer stored, so the kernel's live-timer count must not move.
        kernel, enclave = build()
        injector = attach(
            kernel,
            enclave,
            FaultSpec(kind="worker-stall", at_ms=0.1, duration_ms=0.5),
        )
        storm(kernel, enclave)
        before = kernel.timer_stats()
        injector.detach()
        assert kernel.timer_stats() == before
        enclave.stop_backend()
        kernel.run()
        assert kernel.timer_stats()["live"] == 0

    def test_healthy_run_is_unperturbed_by_the_module(self):
        kernel_a, enclave_a = build()
        storm(kernel_a, enclave_a)
        kernel_b, enclave_b = build()
        injector = attach(kernel_b, enclave_b)  # empty plan: no faults
        storm(kernel_b, enclave_b)
        injector.detach()
        assert kernel_a.now == kernel_b.now


class TestWorkerCrash:
    def test_crash_respawn_rejoin_loses_no_work(self):
        kernel, enclave = build()
        injector = attach(
            kernel,
            enclave,
            FaultSpec(kind="worker-crash", at_ms=0.2, respawn_after_ms=0.1),
        )
        results = storm(kernel, enclave)
        injector.detach()
        backend = enclave.backend
        assert results == ["ok"] * 400  # every call completed with its result
        stats = enclave.stats
        assert stats.total_switchless + stats.total_fallback + stats.total_regular == 400
        assert backend.stats.worker_crashes == 1
        assert backend.stats.worker_respawns == 1
        names = log_names(injector)
        assert "fault.worker.crash" in names
        assert "fault.worker.respawn" in names
        assert "fault.worker.rejoin" in names
        # The healed slot is live again: quarantine lifted, fresh thread.
        assert sum(worker.rejoins for worker in backend.workers) == 1
        assert not any(worker.quarantined for worker in backend.workers)
        backend.stop()

    def test_crash_without_respawn_quarantines_the_slot(self):
        kernel, enclave = build()
        injector = attach(
            kernel, enclave, FaultSpec(kind="worker-crash", at_ms=0.2, index=0)
        )
        results = storm(kernel, enclave)
        injector.detach()
        backend = enclave.backend
        assert results == ["ok"] * 400
        assert backend.worker_threads[0].state is ThreadState.DONE
        assert backend.workers[0].quarantined  # argmin never selects it again
        assert backend.stats.worker_crashes == 1
        assert backend.stats.worker_respawns == 0
        backend.stop()

    def test_intel_crash_recovers_via_respawn(self):
        kernel, enclave = build(intel_backend)
        injector = attach(
            kernel,
            enclave,
            FaultSpec(
                kind="worker-crash",
                at_ms=0.2,
                target="intel-worker",
                respawn_after_ms=0.1,
            ),
        )
        results = storm(kernel, enclave)
        injector.detach()
        backend = enclave.backend
        assert results == ["ok"] * 400
        assert backend.worker_respawns == 1
        assert len(backend.retired_threads) == 1
        assert all(
            thread.state is not ThreadState.DONE for thread in backend.worker_threads
        )
        backend.stop()


class TestSlowWorkers:
    def test_stall_burns_simulated_time(self):
        kernel_a, enclave_a = build()
        storm(kernel_a, enclave_a)
        kernel_b, enclave_b = build()
        injector = attach(
            kernel_b,
            enclave_b,
            FaultSpec(kind="worker-stall", at_ms=0.1, duration_ms=0.5),
        )
        results = storm(kernel_b, enclave_b)
        injector.detach()
        assert results == ["ok"] * 400
        assert "fault.worker.stall" in log_names(injector)
        assert kernel_b.now > kernel_a.now

    def test_stall_on_idle_zc_worker_starts_at_injection(self):
        # An idle worker spins until kicked; the stall kicks it, so the
        # fault-stall compute begins at the injection cycle.
        kernel, enclave = build()
        attach(
            kernel,
            enclave,
            FaultSpec(kind="worker-stall", at_ms=0.1, index=0, duration_ms=0.5),
        )
        injected = kernel.cycles(0.1 / 1_000.0)
        kernel.run(until_time=injected + 100_000.0)
        kernel.flush_accounting()
        thread = enclave.backend.worker_threads[0]
        assert thread.cycles_compute == pytest.approx(100_000.0)

    def test_slowdown_inflates_worker_costs(self):
        kernel_a, enclave_a = build()
        storm(kernel_a, enclave_a)
        kernel_b, enclave_b = build()
        injector = attach(
            kernel_b,
            enclave_b,
            FaultSpec(
                kind="worker-slowdown", at_ms=0.05, duration_ms=50.0, factor=8.0
            ),
        )
        results = storm(kernel_b, enclave_b)
        injector.detach()
        assert results == ["ok"] * 400
        assert "fault.worker.slowdown" in log_names(injector)
        assert kernel_b.now > kernel_a.now


class TestEnvironmentFaults:
    def test_epc_pressure_swaps_and_restores_the_cost_model(self):
        kernel, enclave = build()
        base_cost = enclave.cost
        injector = attach(
            kernel,
            enclave,
            FaultSpec(kind="epc-pressure", at_ms=0.05, duration_ms=0.2, factor=3.0),
        )
        storm(kernel, enclave)
        injector.detach()
        names = log_names(injector)
        assert "fault.epc.start" in names
        assert "fault.epc.end" in names  # window closed during the run
        assert enclave.cost is base_cost  # transition costs restored

    def test_clock_skew_scales_scheduler_windows(self):
        kernel, enclave = build(lambda: None)
        injector = attach(
            kernel,
            enclave,
            FaultSpec(kind="clock-skew", at_ms=0.0, duration_ms=1.0, factor=1.5),
        )
        kernel.run()  # applies the skew at t=0
        assert kernel.faults.scaled_window(1_000.0) == 1_500.0
        kernel.call_at(kernel.spec.cycles(0.002), lambda: None)
        kernel.run()  # advance past the skew window
        assert kernel.faults.scaled_window(1_000.0) == 1_000.0
        injector.detach()

    def test_enclave_lost_recovers_and_bumps_generation(self):
        kernel, enclave = build()
        injector = attach(
            kernel,
            enclave,
            FaultSpec(kind="enclave-lost", at_ms=0.1),
            backoff_base_ms=0.01,
        )
        results = storm(kernel, enclave)
        injector.detach()
        assert results == ["ok"] * 400
        assert enclave.lost is False
        assert enclave.generation == 1
        names = log_names(injector)
        assert "fault.enclave.lost" in names
        assert "fault.enclave.recovered" in names
        enclave.backend.stop()


class TestHandoffFaults:
    def test_dropped_intel_wakes_are_redelivered(self):
        # retries_before_sleep=0: idle workers park immediately, so every
        # enqueue goes through the (perturbed) futex-wake path.
        kernel, enclave = build(
            lambda: make_backend("intel",
                SwitchlessConfig(
                    switchless_ocalls=frozenset({"work"}),
                    num_uworkers=2,
                    retries_before_sleep=0,
                )
            )
        )
        injector = attach(
            kernel,
            enclave,
            FaultSpec(
                kind="handoff",
                at_ms=0.0,
                duration_ms=50.0,
                drop_probability=1.0,
                redelivery_ms=0.05,
            ),
        )
        results = storm(kernel, enclave, n_threads=1, calls=200)
        injector.detach()
        assert results == ["ok"] * 200  # liveness survives every drop
        names = log_names(injector)
        assert names.count("fault.handoff.drop") >= 1
        enclave.backend.stop()

    def test_delayed_zc_kicks_still_complete(self):
        kernel, enclave = build(
            lambda: make_backend("zc",
                ZcConfig(enable_scheduler=False, max_workers=1, initial_workers=1)
            )
        )
        injector = attach(
            kernel,
            enclave,
            FaultSpec(
                kind="handoff", at_ms=0.0, duration_ms=50.0, delay_ms=0.02
            ),
        )
        results = storm(kernel, enclave, n_threads=1, calls=100)
        injector.detach()
        assert results == ["ok"] * 100
        assert "fault.handoff.delay" in log_names(injector)
        enclave.backend.stop()


class TestCallerTimeout:
    def test_stalled_worker_triggers_timeout_recovery(self):
        kernel, enclave = build()
        injector = attach(
            kernel,
            enclave,
            # Stall far longer than the caller is willing to wait.
            FaultSpec(kind="worker-stall", at_ms=0.1, duration_ms=20.0),
            caller_timeout_ms=0.5,
        )
        results = storm(kernel, enclave)
        injector.detach()
        assert results == ["ok"] * 400  # recovered via fallback, not dropped
        backend = enclave.backend
        assert backend.stats.timeout_recoveries >= 1
        assert "fault.caller.timeout" in log_names(injector)
        backend.stop()
