"""Simulator kernel: ordering, scheduling rules, run-loop semantics."""

import math
import random

import pytest

from repro.des.core import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.at(3.0, order.append, "c")
    sim.at(1.0, order.append, "a")
    sim.at(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.at(1.0, order.append, tag)
    sim.run()
    assert order == list("abcde")


def test_dispatch_follows_time_priority_seq_total_order():
    """Randomized: 300 events with colliding times and priorities fire
    in exactly the ``(time, priority, seq)`` order."""
    rng = random.Random(42)
    times = [round(rng.uniform(0.0, 25.0), 3) for _ in range(300)]
    priorities = [rng.choice([0, 0, 0, 5, 100]) for _ in range(300)]
    sim = Simulator(seed=1)
    log = []
    for i, (t, p) in enumerate(zip(times, priorities)):
        sim.at(t, log.append, i, priority=p)
    sim.run()
    keys = [(times[i], priorities[i], i) for i in log]
    assert len(log) == 300
    assert keys == sorted(keys)


def test_priority_breaks_same_time_ties():
    sim = Simulator()
    order = []
    sim.at(1.0, order.append, "late", priority=10)
    sim.at(1.0, order.append, "early", priority=0)
    sim.run()
    assert order == ["early", "late"]


def test_clock_advances_to_event_times():
    sim = Simulator()
    seen = []
    sim.at(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]
    assert sim.now == 5.0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, 1)
    sim.at(10.0, fired.append, 10)
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0  # clock parked exactly at the horizon
    sim.run(until=20.0)
    assert fired == [1, 10]


def test_infinite_time_event_is_accepted_and_never_fires():
    sim = Simulator(seed=1)
    fired = []
    sim.at(math.inf, fired.append, "never")
    sim.at(1.0, fired.append, "once")
    sim.run(until=10.0)
    assert fired == ["once"]
    assert sim.now == 10.0


def test_run_until_sets_clock_even_with_empty_calendar():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_after_schedules_relative_to_now():
    sim = Simulator()
    times = []
    sim.at(2.0, lambda: sim.after(3.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [5.0]


def test_scheduling_into_the_past_raises():
    sim = Simulator()
    sim.at(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(1.0, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.after(-0.1, lambda: None)


def test_call_soon_runs_after_current_event():
    sim = Simulator()
    order = []

    def first():
        sim.call_soon(order.append, "soon")
        order.append("first")

    sim.at(1.0, first)
    sim.at(1.0, order.append, "second")
    sim.run()
    # call_soon fires at the same instant but after already-queued
    # same-time events.
    assert order == ["first", "second", "soon"]


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.at(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []


def test_every_scheduler_returns_the_calendar_event():
    sim = Simulator()
    events = [
        sim.at(2.0, print),
        sim.after(1.0, print, "x", priority=3),
        sim.call_soon(print),
    ]
    # One object per schedule: the handle is the entry's own event.
    queued = [entry[3] for entry in sorted(sim._queue)]
    assert len(queued) == 3
    assert all(q is ev for q, ev in zip(queued, reversed(events)))
    assert [(ev.time, ev.priority, ev.args) for ev in events] == [
        (2.0, 0, ()), (1.0, 3, ("x",)), (0.0, 0, ()),
    ]


def test_cancel_is_idempotent_and_safe_after_fire():
    sim = Simulator()
    handle = sim.at(1.0, lambda: None)
    sim.run()
    handle.cancel()
    handle.cancel()


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, 1)
    sim.at(2.0, sim.stop)
    sim.at(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]
    # Remaining events still pending; a new run resumes.
    sim.run()
    assert fired == [1, 3]


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.at(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_peek_time_skips_cancelled():
    sim = Simulator()
    h = sim.at(1.0, lambda: None)
    sim.at(2.0, lambda: None)
    h.cancel()
    assert sim.peek_time() == 2.0


def test_run_is_not_reentrant():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.at(1.0, reenter)
    sim.run()


def test_events_scheduled_during_run_fire_in_same_run():
    sim = Simulator()
    seen = []
    sim.at(1.0, lambda: sim.at(1.5, seen.append, "nested"))
    sim.run()
    assert seen == ["nested"]


def test_heap_compaction_reclaims_cancelled_events():
    """Cancelling many far-future events must not hoard memory: the
    calendar compacts once cancelled entries dominate."""
    sim = Simulator()
    handles = [sim.at(1e6 + i, lambda: None) for i in range(40_000)]
    for h in handles:
        h.cancel()
    # Trigger the periodic check with fresh scheduling activity.
    for i in range(40_000):
        sim.at(1e6 + i, lambda: None)
    assert sim.pending < 60_000  # the 40k cancelled ones were swept
    sim.at(0.5, lambda: None)
    sim.run(until=1.0)  # live events still fire in order
    assert sim.events_executed == 1


def test_compaction_preserves_pending_live_events():
    sim = Simulator()
    fired = []
    keep = [sim.at(float(i), fired.append, i) for i in range(10)]
    drop = [sim.at(1e5 + i, lambda: None) for i in range(50_000)]
    for h in drop:
        h.cancel()
    for i in range(20_000):  # force the check past the threshold
        sim.at(2e5 + i, lambda: None).cancel()
    sim.run(until=100.0)
    assert fired == list(range(10))


def test_compaction_inside_run_keeps_later_events():
    """An event that trips the heap compaction and then schedules more
    work: the running loop must see the rebuilt calendar."""
    sim = Simulator()
    fired = []

    def burst():
        for i in range(Simulator.COMPACT_THRESHOLD + 1000):
            sim.at(1e3 + i, fired.append, "never").cancel()
        sim.at(5.0, fired.append, "after")

    sim.at(1.0, burst)
    sim.run(until=20.0)
    assert sim._compactions == 1
    assert fired == ["after"]


def test_clear_cancels_pending_events_and_drops_callbacks():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, "ran")
    sim.run(until=2.0)
    first = sim.at(3.0, fired.append, "first")
    second = sim.at(4.0, fired.append, "second")
    sim.clear()
    assert sim.pending == 0
    assert not first.active and not second.active
    assert first.fn is None and second.args == ()
    assert (sim.now, sim.events_executed) == (2.0, 1)
    sim.run(until=10.0)
    assert fired == ["ran"]


def test_call_soon_priority_breaks_same_instant_ties():
    sim = Simulator()
    order = []

    def first():
        sim.call_soon(order.append, "later", priority=10)
        sim.call_soon(order.append, "sooner", priority=0)

    sim.at(1.0, first)
    sim.run()
    assert order == ["sooner", "later"]


def test_call_soon_priority_orders_against_queued_events():
    sim = Simulator()
    order = []
    sim.at(1.0, lambda: sim.call_soon(order.append, "boosted", priority=-1))
    sim.at(1.0, order.append, "queued")
    sim.run()
    # priority -1 beats the already-queued priority-0 event at the
    # same instant, despite the later insertion.
    assert order == ["boosted", "queued"]


def test_peek_time_discards_cancelled_heads():
    """peek_time's documented side effect: cancelled events at the head
    of the calendar are popped while peeking (``pending`` shrinks); the
    next live event is never removed."""
    sim = Simulator()
    dead = [sim.at(1.0 + i, lambda: None) for i in range(5)]
    sim.at(10.0, lambda: None)
    for h in dead:
        h.cancel()
    assert sim.pending == 6
    assert sim.peek_time() == 10.0
    assert sim.pending == 1  # the five cancelled heads were disposed of
    assert sim.peek_time() == 10.0  # the live head stays queued
    assert sim.pending == 1


def test_heap_high_water_tracks_peak_calendar_size():
    sim = Simulator()
    for i in range(10):
        sim.at(float(i + 1), lambda: None)
    assert sim.heap_high_water == 10
    sim.run()
    assert sim.pending == 0
    assert sim.heap_high_water == 10  # high-water survives the drain


def test_instrument_observes_every_dispatch():
    sim = Simulator()
    seen = []

    class Observer:
        def on_dispatch(self, event, elapsed, queue_len):
            seen.append((event.time, elapsed >= 0.0, queue_len))

    obs = Observer()
    sim.instrument(obs)
    sim.instrument(obs)  # attaching twice must not double-notify
    sim.at(1.0, lambda: None)
    sim.at(2.0, lambda: None)
    sim.run()
    assert [(t, ok) for t, ok, _ in seen] == [(1.0, True), (2.0, True)]
    assert seen[-1][2] == 0  # queue length after the last dispatch

    sim.uninstrument(obs)
    sim.at(3.0, lambda: None)
    sim.run()
    assert len(seen) == 2  # detached: no longer notified
    sim.uninstrument(obs)  # and detaching again is a no-op


def test_instrumented_run_keeps_dispatch_order():
    def trace(with_instrument):
        sim = Simulator()
        order = []
        if with_instrument:
            class Obs:
                def on_dispatch(self, event, elapsed, queue_len):
                    pass
            sim.instrument(Obs())
        sim.at(1.0, order.append, "b", priority=1)
        sim.at(1.0, order.append, "a", priority=0)
        h = sim.at(1.5, order.append, "dropped")
        h.cancel()
        sim.at(2.0, order.append, "c")
        sim.run(until=5.0)
        return order, sim.now, sim.events_executed

    assert trace(False) == trace(True)
