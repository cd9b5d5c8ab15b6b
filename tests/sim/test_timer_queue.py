"""The kernel's timer queue: ordering, cancellation, compaction.

The kernel's simulated outcomes ride entirely on the timer queue popping
in exact ``(when, seq)`` order, so these tests hammer the places where
that order could slip: same-cycle seq ties, pushes behind the last
popped deadline, cancellation (including during a drain and after a
timer fired), and the compaction that keeps mass cancel/re-arm
workloads O(live).
"""

import random

import pytest

from repro.sim.timerqueue import COMPACT_MIN_CANCELLED, Timer, TimerQueue


def drain(queue):
    out = []
    while True:
        timer = queue.pop()
        if timer is None:
            return out
        out.append((timer.when, timer.seq))


def push_all(queue, entries):
    timers = [Timer(when, seq, None) for when, seq in entries]
    for timer in timers:
        queue.push(timer)
    return timers


class TestOrdering:
    def test_same_timestamp_pops_in_seq_order(self):
        queue = TimerQueue()
        entries = [(5.0, seq) for seq in (3, 0, 7, 1, 4)]
        push_all(queue, entries)
        assert drain(queue) == sorted(entries, key=lambda e: e[1])

    def test_same_timestamp_across_push_pop_interleave(self):
        # Later pushes at an identical timestamp always carry larger seq,
        # so they pop after the entries already stored at that timestamp.
        queue = TimerQueue()
        push_all(queue, [(5.0, 0), (5.0, 1)])
        first = queue.pop()
        assert (first.when, first.seq) == (5.0, 0)
        queue.push(Timer(5.0, 2, None))
        assert drain(queue) == [(5.0, 1), (5.0, 2)]

    def test_push_behind_drain_point_still_ordered(self):
        queue = TimerQueue()
        push_all(queue, [(35.0, 0), (70.0, 1)])
        assert queue.pop().seq == 0  # last popped deadline is now 35.0
        # A deadline behind the last pop must still come out first.
        queue.push(Timer(12.0, 2, None))
        assert drain(queue) == [(12.0, 2), (70.0, 1)]

    def test_total_order_equals_sorted(self):
        queue = TimerQueue()
        rng = random.Random(5)
        entries = [(rng.uniform(0, 500), seq) for seq in range(300)]
        push_all(queue, entries)
        assert drain(queue) == sorted(entries)


class TestCancellation:
    def test_cancelled_timer_is_skipped(self):
        queue = TimerQueue()
        timers = push_all(queue, [(5.0, 0), (6.0, 1), (7.0, 2)])
        timers[1].cancel()
        assert drain(queue) == [(5.0, 0), (7.0, 2)]

    def test_cancel_is_idempotent(self):
        queue = TimerQueue()
        (timer,) = push_all(queue, [(5.0, 0)])
        timer.cancel()
        timer.cancel()
        assert queue.live() == 0
        assert drain(queue) == []

    def test_cancel_during_callback_window(self):
        # The serve router's pattern: a popped timer's callback cancels
        # other pending timers (completion timeouts) and re-arms new ones.
        queue = TimerQueue()
        timers = push_all(queue, [(5.0, 0), (6.0, 1), (7.0, 2)])
        first = queue.pop()
        assert first.seq == 0
        timers[2].cancel()  # cancel mid-drain, before its pop
        queue.push(Timer(6.5, 3, None))
        assert drain(queue) == [(6.0, 1), (6.5, 3)]

    def test_cancel_after_fire_leaves_counts_alone(self):
        # A fired timer is no longer stored; cancelling its handle later
        # (as FaultInjector.detach does) must not count as a cancel.
        queue = TimerQueue()
        fired, _ = push_all(queue, [(5.0, 0), (6.0, 1)])
        assert queue.pop() is fired
        fired.cancel()
        assert (queue.stored(), queue.live()) == (1, 1)
        queue.pop()
        fired.cancel()
        assert (queue.stored(), queue.live()) == (0, 0)


class TestCompaction:
    def test_mass_cancel_rearm_stays_bounded(self):
        # The serve router's completion-timeout pattern: arm a timeout per
        # request, cancel nearly every one, re-arm.  Without compaction
        # the heap accumulates one dead entry per request; with it,
        # stored() stays O(live + compaction threshold).
        queue = TimerQueue()
        seq = 0
        for _round in range(200):
            batch = [Timer(5_000.0 + seq + i, seq + i, None) for i in range(50)]
            seq += 50
            for timer in batch:
                queue.push(timer)
            for timer in batch:
                timer.cancel()
            assert queue.stored() <= queue.live() + 2 * COMPACT_MIN_CANCELLED + 50
        assert queue.compactions > 0
        assert queue.live() == 0

    def test_compaction_preserves_survivors_order(self):
        queue = TimerQueue()
        rng = random.Random(3)
        timers = push_all(
            queue, [(rng.uniform(0, 1000), seq) for seq in range(600)]
        )
        survivors = []
        for timer in timers:
            if rng.random() < 0.8:
                timer.cancel()
            else:
                survivors.append((timer.when, timer.seq))
        queue.compact()
        assert queue.stored() == queue.live() == len(survivors)
        assert drain(queue) == sorted(survivors)

    def test_stats_report_stored_live_compactions(self):
        queue = TimerQueue()
        timers = push_all(queue, [(5.0, 0), (6.0, 1)])
        timers[0].cancel()
        assert queue.stats() == {"stored": 2, "live": 1, "compactions": 0}
        queue.compact()
        assert queue.stats() == {"stored": 1, "live": 1, "compactions": 1}


class TestReferenceModel:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_workload_matches_sorted_reference(self, seed):
        # Property test: an adversarial interleave of pushes (near, far,
        # behind the last pop), pops and cancels — including cancels of
        # timers that already fired — pops exactly what a sorted list of
        # the live entries predicts, with the counts to match.
        rng = random.Random(seed)
        queue = TimerQueue()
        reference: list[tuple[float, int]] = []
        handles: list[Timer] = []
        now = 0.0
        seq = 0
        for _ in range(2_000):
            action = rng.random()
            if action < 0.55:
                when = now + rng.choice((0.0, 0.5, 7.0, 40.0, 900.0)) * (
                    1 + rng.random()
                )
                timer = Timer(when, seq, None)
                seq += 1
                queue.push(timer)
                handles.append(timer)
                reference.append((when, timer.seq))
            elif action < 0.85:
                timer = queue.pop()
                expected = min(reference) if reference else None
                if expected is None:
                    assert timer is None
                else:
                    assert (timer.when, timer.seq) == expected
                    reference.remove(expected)
                    now = max(now, timer.when)
            elif handles:
                timer = handles.pop(rng.randrange(len(handles)))
                timer.cancel()
                entry = (timer.when, timer.seq)
                if entry in reference:
                    reference.remove(entry)
            assert queue.live() == len(reference)
        assert drain(queue) == sorted(reference)
