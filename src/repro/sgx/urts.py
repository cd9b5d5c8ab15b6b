"""The untrusted runtime: the host-side ocall dispatch table.

Handlers are generator coroutines (they may yield ``Compute`` etc. to model
host-side work) registered by name.  Both the regular transition path and
every switchless backend route requests through :meth:`execute`, so the
host function runs identically regardless of how the call crossed the
enclave boundary — exactly as in the SDK, where the same edger8r-generated
bridge is invoked by the transition path and by worker threads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.sim.kernel import Program

if TYPE_CHECKING:
    from repro.sgx.enclave import OcallRequest

OcallHandler = Callable[..., Program]


class UnknownOcallError(KeyError):
    """Raised when an ocall targets a name with no registered handler."""


class HostFault:
    """An exception captured on the host side of an ocall.

    Host handlers may run on switchless worker threads; letting an
    exception unwind there would kill the worker instead of failing the
    call.  ``execute`` therefore captures handler exceptions into a
    ``HostFault`` result, and the enclave's ocall path re-raises it on
    the *calling* thread — mirroring how real ocalls return error codes
    across the boundary.
    """

    __slots__ = ("exception",)

    def __init__(self, exception: BaseException) -> None:
        self.exception = exception

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HostFault {self.exception!r}>"


class UntrustedRuntime:
    """Holds the registered ocall handlers of one host process."""

    def __init__(self) -> None:
        self._handlers: dict[str, OcallHandler] = {}

    def register(self, name: str, handler: OcallHandler) -> None:
        """Register ``handler`` for ocalls named ``name``.

        Re-registering a name replaces the previous handler (useful for
        fault-injection tests).
        """
        self._handlers[name] = handler

    def register_many(self, handlers: dict[str, OcallHandler]) -> None:
        """Register a batch of handlers."""
        for name, handler in handlers.items():
            self.register(name, handler)

    def clear(self) -> None:
        """Drop every handler (they hold the host OS and its files)."""
        self._handlers.clear()

    def registered(self, name: str) -> bool:
        """Whether an ocall handler exists for ``name``."""
        return name in self._handlers

    def execute(self, request: "OcallRequest") -> Program:
        """Run the handler for ``request`` (a simulated sub-program).

        Handler exceptions — including a missing handler — are captured
        into a :class:`HostFault` result rather than raised, so that
        worker threads survive failing calls; the enclave ocall path
        re-raises the fault on the calling thread.
        """
        handler = self._handlers.get(request.name)
        if handler is None:
            return HostFault(
                UnknownOcallError(f"no handler registered for ocall {request.name!r}")
            )
        try:
            result = yield from handler(*request.args)
        except Exception as exc:  # noqa: BLE001 - transported to the caller
            return HostFault(exc)
        return result

    def execute_timed(self, request: "OcallRequest", kernel) -> Program:
        """:meth:`execute` that also stamps ``request.host_cycles``.

        A mirror rather than a wrapper: the call tracer substitutes this
        for ``execute`` directly, because a delegating wrapper generator
        would add a frame traversal to every instruction the handler
        yields.  Keep the dispatch logic in sync with :meth:`execute`.
        """
        start = kernel.now
        handler = self._handlers.get(request.name)
        if handler is None:
            return HostFault(
                UnknownOcallError(f"no handler registered for ocall {request.name!r}")
            )
        try:
            result = yield from handler(*request.args)
        except Exception as exc:  # noqa: BLE001 - transported to the caller
            request.host_cycles = kernel.now - start
            return HostFault(exc)
        request.host_cycles = kernel.now - start
        return result
