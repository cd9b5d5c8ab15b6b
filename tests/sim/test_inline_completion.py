"""Exactness of the kernel's hot-path shortcuts.

``join`` completes a provably-next Compute inline, and ``_try_dispatch``
stops scanning once no CPU is idle.  Neither may change the schedule:
these tests compare against runs that send every event through the timer
queue (``run(max_events=...)`` disables inline completion) and against a
per-thread dispatch scan, and pin the rules that make the shortcuts exact.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Block,
    Compute,
    Kernel,
    MachineSpec,
    SchedTrace,
    Sleep,
    Spin,
    ThreadState,
    YieldCPU,
)
from repro.sim.timerqueue import TimerQueue

# Cycle counts are multiples of 50 so completions often tie with other
# timers; SMT speed 0.5 keeps the arithmetic exact.
_cycles = st.integers(min_value=1, max_value=12).map(lambda k: 50.0 * k)
_op = st.one_of(
    st.tuples(st.just("compute"), _cycles),
    st.tuples(st.just("spin"), st.integers(0, 2), _cycles),
    st.tuples(st.just("sleep"), _cycles),
    st.tuples(st.just("block"), st.integers(0, 2)),
    st.tuples(st.just("fire"), st.integers(0, 2)),
    st.tuples(st.just("yield")),
)
_programs = st.lists(st.lists(_op, min_size=1, max_size=8), min_size=1, max_size=5)
_fire_delays = st.lists(_cycles, min_size=3, max_size=3)


def _per_thread_dispatch(kernel):
    """Dispatch without the early exit: every queued thread is scanned."""
    kernel._dispatch_queued = False
    ready = kernel._ready
    deferred = deque()
    while ready:
        thread = ready.popleft()
        if thread.state is not ThreadState.READY:
            continue
        core = kernel._idle_core_for(thread)
        if core is None:
            deferred.append(thread)
            continue
        kernel._run_on(core, thread)
    kernel._ready = deferred


def _simulate(programs, fire_delays, mode):
    kernel = Kernel(
        MachineSpec(n_cores=2, smt=2, smt_factor=0.5, timeslice_cycles=400)
    )
    if mode == "per-thread-dispatch":
        kernel._try_dispatch = lambda: _per_thread_dispatch(kernel)
    events = [kernel.event(f"e{i}") for i in range(3)]
    finished = {}

    def firer():
        # Fires every event eventually, so no Block can deadlock.
        for event, delay in zip(events, fire_delays):
            yield Sleep(delay)
            event.fire_if_unfired()

    def worker(name, ops):
        for op in ops:
            kind = op[0]
            if kind == "compute":
                yield Compute(op[1])
            elif kind == "spin":
                yield Spin(events[op[1]], op[2])
            elif kind == "sleep":
                yield Sleep(op[1])
            elif kind == "block":
                yield Block(events[op[1]])
            elif kind == "fire":
                events[op[1]].fire_if_unfired()
            else:
                yield YieldCPU()
        finished[name] = kernel.now

    threads = [kernel.spawn(firer(), name="firer")]
    for i, ops in enumerate(programs):
        threads.append(kernel.spawn(worker(f"w{i}", ops), name=f"w{i}"))
    if mode == "join":
        kernel.join(*threads)
    else:
        kernel.run(max_events=10**9)
    snapshot = kernel.cpu_snapshot()
    return {
        "now": kernel.now,
        "finished": finished,
        "compute": [t.cycles_compute for t in threads],
        "spin": [t.cycles_spin for t in threads],
        "per_core": snapshot["per_core"],
        "events": kernel.events_processed,
    }


@settings(max_examples=150, deadline=None)
@given(programs=_programs, fire_delays=_fire_delays)
def test_join_matches_every_event_through_the_queue(programs, fire_delays):
    inline = _simulate(programs, fire_delays, "join")
    queued = _simulate(programs, fire_delays, "run")
    scanned = _simulate(programs, fire_delays, "per-thread-dispatch")
    assert inline == queued
    assert queued == scanned


def _count_pushes(monkeypatch):
    pushes = []
    original = TimerQueue.push

    def counting_push(self, timer):
        pushes.append(timer.when)
        original(self, timer)

    monkeypatch.setattr(TimerQueue, "push", counting_push)
    return pushes


class TestInlineCompletion:
    def test_back_to_back_computes_skip_the_queue(self, monkeypatch):
        pushes = _count_pushes(monkeypatch)
        kernel = Kernel(MachineSpec(n_cores=1, smt=1))

        def program():
            for _ in range(10):
                yield Compute(100)

        thread = kernel.spawn(program())
        kernel.join(thread)
        # Only the first Compute (stepped at dispatch) arms a timer; the
        # other nine complete inline but are still counted as events.
        assert pushes == [100.0]
        assert kernel.now == 1000.0
        assert kernel.events_processed == 10
        assert thread.cycles_compute == 1000.0

    def test_compute_ending_on_a_stored_timer_is_not_inlined(self):
        kernel = Kernel(MachineSpec(n_cores=1, smt=1))
        order = []
        # Stored before the thread's second Compute: the tie at t=200
        # pops by seq, so the callback runs first.
        kernel.call_at(200.0, lambda: order.append(("timer", kernel.now)))

        def program():
            yield Compute(100)
            yield Compute(100)
            order.append(("thread", kernel.now))

        kernel.join(kernel.spawn(program()))
        assert order == [("timer", 200.0), ("thread", 200.0)]

    def test_pending_wakeup_is_dispatched_before_the_next_compute_ends(self):
        kernel = Kernel(MachineSpec(n_cores=2, smt=1))
        ready = kernel.event("ready")
        woke = []

        def firer():
            yield Compute(100)
            # The wake-up queues a dispatch microtask: it must run at
            # t=100, not after an inline completion of the next Compute.
            ready.fire()
            yield Compute(100)

        def sleeper():
            yield Block(ready)
            woke.append(kernel.now)

        threads = [kernel.spawn(sleeper()), kernel.spawn(firer())]
        kernel.join(*threads)
        assert woke == [100.0]
        assert kernel.now == 200.0

    def test_join_stops_at_the_joined_thread_finish(self):
        kernel = Kernel(MachineSpec(n_cores=2, smt=1))

        def short():
            yield Compute(100)

        def long():
            yield Compute(100)
            for _ in range(50):
                yield Compute(1_000)

        first = kernel.spawn(short(), name="short")
        other = kernel.spawn(long(), name="long")
        kernel.join(first)
        # "long" could complete all its Computes inline from t=100 on, but
        # the join ends once "short" has finished.
        assert first.done
        assert kernel.now == 100.0
        assert not other.done
        kernel.join(other)
        assert kernel.now == 50_100.0

    def test_run_with_stop_when_checks_every_event(self):
        kernel = Kernel(MachineSpec(n_cores=1, smt=1))
        seen = []

        def program():
            for _ in range(5):
                yield Compute(100)
                seen.append(kernel.now)

        kernel.spawn(program())
        # A custom predicate may look at anything, so nothing is inlined
        # past it: the loop stops right after the third completion.
        kernel.run(stop_when=lambda: len(seen) >= 3)
        assert seen == [100.0, 200.0, 300.0]
        assert kernel.now == 300.0


class TestDispatchEarlyExit:
    def test_killed_ready_thread_dropped_while_every_cpu_is_busy(self):
        trace = SchedTrace()
        kernel = Kernel(MachineSpec(n_cores=1, smt=1, timeslice_cycles=1_000), trace)

        def runner():
            yield Compute(5_000)

        def waiter():
            yield Compute(10)

        running = kernel.spawn(runner(), name="runner")
        queued = kernel.spawn(waiter(), name="queued")

        def kill_both_queued():
            # "queued" was scanned at t=0 (no idle CPU), so the dispatch
            # that spawning "late" triggers starts on a saturated machine
            # with both dead entries still queued.
            kernel.kill(queued)
            late = kernel.spawn(waiter(), name="late")
            kernel.kill(late)

        kernel.call_at(500.0, kill_both_queued)
        kernel.join(running)
        # The dispatch dropped both entries, so at each slice end the
        # ready queue is empty and the runner's slice is renewed.
        assert kernel.now == 5_000.0
        assert [entry[1] for entry in trace.for_thread("runner")] == [
            "dispatch",
            "finish",
        ]
        assert kernel.ready_queue_length() == 0
        assert len(kernel._ready) == 0
