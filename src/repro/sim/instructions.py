"""Instruction objects yielded by simulated threads.

A simulated thread is a generator.  Each ``yield`` hands one of these
instruction objects to the kernel, which charges CPU time, parks or
preempts the thread as appropriate, and resumes the generator with the
instruction's result:

===========  =========================  ======================
instruction  CPU while waiting          value sent back
===========  =========================  ======================
Compute      busy (occupies the core)   ``None``
Spin         busy (busy-wait loop)      ``True`` if the event
                                        fired, ``False`` on
                                        timeout
Block        none (core is released)    the event's value
Sleep        none                       ``None``
YieldCPU     none (requeued)            ``None``
===========  =========================  ======================

``Spin`` deliberately models an entire pause/retry loop as a single
instruction: the kernel charges exactly the cycles spent spinning and wakes
the spinner early when the event fires, so a 20,000-retry busy-wait costs
O(1) simulator events instead of 20,000.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.primitives import Event


@dataclass(init=False, slots=True)
class Compute:
    """Occupy the CPU for ``cycles`` nominal cycles of work.

    Nominal cycles are scaled by the SMT model: with a busy sibling the
    wall-clock duration is ``cycles / smt_factor``.
    """

    cycles: float
    tag: str | None

    # Hand-written (no ``__post_init__`` hop): Compute and Spin are built
    # once per simulated activity, on the kernel's hottest path.
    def __init__(self, cycles: float, tag: str | None = None) -> None:
        if cycles < 0:
            raise ValueError("Compute.cycles must be >= 0")
        self.cycles = cycles
        self.tag = tag


@dataclass(init=False, slots=True)
class Spin:
    """Busy-wait on ``event`` for at most ``timeout`` nominal cycles.

    The core is occupied for the whole wait (this is the pause-loop the
    paper's wasted-cycle analysis is about).  Resumes with ``True`` as soon
    as the event fires, or ``False`` after the timeout elapses.
    """

    event: "Event"
    timeout: float
    tag: str | None

    def __init__(self, event: "Event", timeout: float, tag: str | None = None) -> None:
        if timeout < 0:
            raise ValueError("Spin.timeout must be >= 0")
        self.event = event
        self.timeout = timeout
        self.tag = tag


@dataclass
class Block:
    """Release the CPU and sleep until ``event`` fires.

    Resumes with the value passed to ``Event.fire``.  If the event has
    already fired the thread continues immediately without releasing the
    core.
    """

    event: "Event"


@dataclass
class Sleep:
    """Release the CPU for ``cycles`` cycles (timed sleep, no busy-wait)."""

    cycles: float

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError("Sleep.cycles must be >= 0")


@dataclass
class YieldCPU:
    """Voluntarily move to the back of the ready queue (sched_yield)."""


Instruction = Compute | Spin | Block | Sleep | YieldCPU
