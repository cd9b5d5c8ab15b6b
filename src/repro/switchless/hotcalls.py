"""HotCalls: the always-spinning switchless baseline (Weisse et al.,
ISCA'17 — the paper's reference [33]).

HotCalls predates the SDK's switchless library and sits at the opposite
end of the CPU-waste spectrum from ZC-SWITCHLESS:

- a *fixed* set of functions is marked hot at build time;
- dedicated *responder* threads busy-wait forever on shared-memory call
  slots — they never sleep and are never reclaimed;
- a caller acquires a slot, publishes the request and spins until the
  responder completes it; there is **no fallback path** — a hot call
  waits however long it takes.

This gives the lowest possible per-call latency (no enqueue/pool
machinery, no transition ever) at the price of permanently burning one
CPU per responder.  The ``bench_baselines`` benchmark positions it
against Intel switchless and zc on the same workload.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING

from repro.sgx.backend import CallBackend
from repro.sim.instructions import Compute, Spin
from repro.sim.kernel import Program, SimThread
from repro.sim.primitives import Event

if TYPE_CHECKING:
    from repro.sgx.enclave import Enclave, OcallRequest


class HotCallsConfig:
    """Build-time HotCalls configuration.

    Args:
        hot_ocalls: Function names served by responders; everything else
            performs a regular transition.
        n_responders: Dedicated untrusted responder threads.
    """

    def __init__(self, hot_ocalls: frozenset[str] | set[str], n_responders: int = 1) -> None:
        if n_responders < 1:
            raise ValueError("n_responders must be >= 1")
        self.hot_ocalls = frozenset(hot_ocalls)
        self.n_responders = n_responders

    def is_hot(self, name: str) -> bool:
        """Whether the function was statically marked hot."""
        return name in self.hot_ocalls


class _HotCall:
    """One in-flight hot call: request plus its completion event."""

    __slots__ = ("request", "done")

    def __init__(self, request: "OcallRequest", done: Event) -> None:
        self.request = request
        self.done = done


class HotCallsBackend(CallBackend):
    """Dedicated spinning responders; hot calls never transition, never
    fall back."""

    name = "hotcalls"

    def __init__(self, config: HotCallsConfig) -> None:
        self.config = config
        self._enclave: "Enclave | None" = None
        self._pending: deque[_HotCall] = deque()
        self._signals: list[Event] = []
        self._stop = False
        self.responder_threads: list[SimThread] = []
        self.hot_count = 0
        self.regular_count = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, enclave: "Enclave") -> None:
        """Install this backend on ``enclave`` (spawns its threads)."""
        self._enclave = enclave
        for i in range(self.config.n_responders):
            thread = enclave.kernel.spawn(
                self._responder_loop(),
                name=f"hotcalls-responder-{i}",
                kind="hotcalls-responder",
                daemon=True,
            )
            self.responder_threads.append(thread)

    def stop(self) -> None:
        """Request shutdown of this component's threads."""
        self._stop = True
        signals, self._signals = self._signals, []
        for signal in signals:
            signal.fire_if_unfired()

    # ------------------------------------------------------------------
    # Call path
    # ------------------------------------------------------------------
    def invoke(self, request: "OcallRequest") -> Program:
        """Execute one call request (simulated program on the caller thread)."""
        enclave = self._enclave
        if enclave is None:
            raise RuntimeError("backend not attached to an enclave")
        cost = enclave.cost
        if not self.config.is_hot(request.name):
            yield Compute(cost.eexit_cycles, tag="eexit")
            result = yield from enclave.urts.execute(request)
            yield Compute(cost.eenter_cycles, tag="eenter")
            request.mode = "regular"
            self.regular_count += 1
            return result

        # Publish the request (lock + shared-buffer write in the original;
        # atomic within one simulated step here) and kick a responder.
        yield Compute(cost.switchless_dispatch_cycles, tag="hotcall-publish")
        call = _HotCall(request, enclave.kernel.event(f"hot:{request.name}"))
        self._pending.append(call)
        signals, self._signals = self._signals, []
        for signal in signals:
            signal.fire_if_unfired()
        # Spin until completion: HotCalls has no fallback whatsoever.
        yield Spin(call.done, math.inf, tag="hotcall-wait")
        request.mode = "switchless"
        self.hot_count += 1
        return call.done.value

    def _responder_loop(self) -> Program:
        enclave = self._enclave
        assert enclave is not None
        cost = enclave.cost
        while not self._stop:
            if self._pending:
                call = self._pending.popleft()
                yield Compute(cost.worker_pickup_cycles, tag="hotcall-pickup")
                result = yield from enclave.urts.execute(call.request)
                yield Compute(cost.worker_complete_cycles, tag="hotcall-complete")
                call.done.fire(result)
                continue
            # Busy-wait forever: the defining HotCalls trait.  One spin per
            # idle period; a publish or ``stop()`` fires the signal.
            signal = enclave.kernel.event("hotcalls-signal")
            self._signals.append(signal)
            yield Spin(signal, math.inf, tag="hotcall-idle")
