"""Timer-wheel semantics: identical dispatch to the all-heap kernel.

The wheel is a pure performance hint — ``wheel=True`` parks an event in
a bucketed slot instead of the heap, and slots drain lazily before the
run loop could pop anything ordered after them.  These tests pin the
contract: the ``(time, priority, seq)`` total order is preserved no
matter how schedules are split between the heap and the wheel, and
cancellation / introspection behave identically on both paths.
"""

import math
import random

from repro.des.core import Simulator


def _record(log, tag):
    log.append(tag)


def test_wheel_and_heap_interleave_in_total_order():
    """Randomized: the same schedule fired through a mix of wheel and
    heap paths dispatches in exactly the all-heap order."""
    rng = random.Random(42)
    times = [round(rng.uniform(0.0, 25.0), 3) for _ in range(300)]
    priorities = [rng.choice([0, 0, 0, 5, 100]) for _ in range(300)]

    def run(wheel_mask):
        sim = Simulator(seed=1)
        log = []
        for i, (t, p) in enumerate(zip(times, priorities)):
            sim.at(t, _record, log, i, priority=p, wheel=wheel_mask(i))
        sim.run()
        return log

    all_heap = run(lambda i: False)
    all_wheel = run(lambda i: True)
    mixed = run(lambda i: i % 3 == 0)
    assert all_wheel == all_heap
    assert mixed == all_heap
    # Sanity: the order is the (time, priority, seq) total order.
    keys = [(times[i], priorities[i], i) for i in all_heap]
    assert keys == sorted(keys)


def test_wheel_events_scheduled_from_events_keep_order():
    """Timers re-armed from inside handlers (the dominant real pattern:
    HELLO rebooking itself) land in already-current slots and must still
    fire in order."""
    sim = Simulator(seed=1)
    log = []

    def periodic(n):
        log.append((sim.now, n))
        if n < 20:
            sim.after(0.4, periodic, n + 1, wheel=True)

    sim.after(0.4, periodic, 1, wheel=True)
    sim.run()
    assert [n for _, n in log] == list(range(1, 21))
    for t, n in log:
        assert math.isclose(t, 0.4 * n)


def test_cancelled_wheel_timer_never_fires():
    sim = Simulator(seed=1)
    log = []
    handle = sim.at(5.0, _record, log, "timer", wheel=True)
    sim.at(1.0, lambda: handle.cancel())
    sim.run()
    assert log == []
    assert not handle.active


def test_cancel_after_drain_still_works():
    """A wheel entry that already drained into the heap is cancelled
    through the same lazy-deletion flag."""
    sim = Simulator(seed=1)
    log = []
    # Same slot (width 1.0 s): draining for the first event moves the
    # second into the heap before its cancel runs.
    sim.at(5.1, _record, log, "early", wheel=True)
    handle = sim.at(5.9, _record, log, "late", wheel=True)
    sim.at(5.5, lambda: handle.cancel())
    sim.run()
    assert log == ["early"]


def test_pending_counts_undrained_wheel_entries():
    sim = Simulator(seed=1)
    sim.at(3.0, _record, [], "a", wheel=True)
    sim.at(7.0, _record, [], "b", wheel=True)
    sim.at(1.0, _record, [], "c")
    assert sim.pending == 3


def test_peek_time_sees_wheel_head():
    """peek_time must drain any slot that could precede the heap top —
    a wheel-only calendar still reports the next live event."""
    sim = Simulator(seed=1)
    sim.at(2.5, _record, [], "t", wheel=True)
    assert sim.peek_time() == 2.5
    sim.run()
    assert sim.peek_time() is None


def test_peek_time_skips_cancelled_wheel_head():
    sim = Simulator(seed=1)
    h = sim.at(2.5, _record, [], "t", wheel=True)
    sim.at(4.0, _record, [], "u", wheel=True)
    h.cancel()
    assert sim.peek_time() == 4.0


def test_run_until_leaves_future_wheel_entries_parked():
    """``run(until=...)`` must not fire timers beyond the horizon, and a
    later run picks them up where the wheel left off."""
    sim = Simulator(seed=1)
    log = []
    for t in (1.0, 4.0, 9.0):
        sim.at(t, _record, log, t, wheel=True)
    sim.run(until=5.0)
    assert log == [1.0, 4.0]
    assert sim.now == 5.0
    sim.run()
    assert log == [1.0, 4.0, 9.0]


def test_past_slot_entries_go_straight_to_heap():
    """Scheduling a wheel event into an already-drained slot falls back
    to the heap (the slot will never be swept again)."""
    sim = Simulator(seed=1)
    log = []

    def late_arm():
        # now = 5.5: the 5.0-wide slot [5, 6) is already drained, so a
        # wheel schedule for 5.8 must bypass the wheel to fire at all.
        sim.at(5.8, _record, log, "rearmed", wheel=True)

    sim.at(5.5, late_arm, wheel=True)
    sim.run()
    assert log == ["rearmed"]


def test_infinite_time_bypasses_wheel():
    """An event at t=inf can never drain from a finite slot index; it
    must be heap-parked (and simply never fires)."""
    sim = Simulator(seed=1)
    log = []
    sim.at(math.inf, _record, log, "never", wheel=True)
    sim.at(1.0, _record, log, "once")
    sim.run(until=10.0)
    assert log == ["once"]


def test_wheel_compaction_drops_cancelled_entries():
    """Cancel-heavy far-future timers are swept once they dominate the
    wheel instead of hoarding memory until their slot drains."""
    sim = Simulator(seed=1)
    threshold = Simulator.WHEEL_COMPACT_THRESHOLD
    handles = [
        sim.at(1000.0 + (i % 97), _record, [], i, wheel=True)
        for i in range(threshold - 1)
    ]
    for h in handles:
        h.cancel()
    # One more booking reaches the threshold and trips the sweep; the
    # survivors are just this live entry.
    sim.at(2000.0, _record, [], "live", wheel=True)
    assert sim._wheel_compactions >= 1
    assert sim._wheel_size == 1


def test_wheel_compaction_inside_run_keeps_later_timers():
    """An event that trips the wheel compaction and then books more
    timers: the running loop must drain the rebuilt wheel, in order."""
    sim = Simulator(seed=1)
    log = []

    def burst():
        for i in range(Simulator.WHEEL_COMPACT_THRESHOLD + 1000):
            sim.at(1000.0 + i, _record, log, "never", wheel=True).cancel()
        sim.at(5.0, _record, log, "wheel-5", wheel=True)
        sim.at(6.0, _record, log, "heap-6")
        sim.at(7.0, _record, log, "wheel-7", wheel=True)

    sim.at(1.0, burst)
    sim.run(until=20.0)
    assert sim._wheel_compactions == 1
    assert log == ["wheel-5", "heap-6", "wheel-7"]
