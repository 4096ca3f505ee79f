"""Timer and PeriodicTimer semantics."""

import pytest

from repro.des.core import Simulator
from repro.des.timer import PeriodicTimer, Timer


def test_timer_fires_once_after_delay():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(sim.now))
    t.start(2.5)
    sim.run()
    assert fired == [2.5]


def test_timer_restart_supersedes_previous_arming():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(sim.now))
    t.start(5.0)
    t.start(1.0)  # re-arm earlier; the 5.0 arming must not fire
    sim.run()
    assert fired == [1.0]


def test_timer_cancel():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(1))
    t.start(1.0)
    t.cancel()
    sim.run()
    assert fired == []
    assert not t.armed


def test_timer_armed_and_expiry():
    sim = Simulator()
    t = Timer(sim, lambda: None)
    assert not t.armed
    assert t.expiry is None
    t.start(3.0)
    assert t.armed
    assert t.expiry == 3.0
    sim.run()
    assert not t.armed


def test_timer_can_rearm_from_callback():
    sim = Simulator()
    fired = []

    def cb():
        fired.append(sim.now)
        if len(fired) < 3:
            t.start(1.0)

    t = Timer(sim, cb)
    t.start(1.0)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_timer_cancel_after_fire_is_noop_and_rearmable():
    # cancel() on an already-fired timer must not touch the dead
    # handle, and the timer must re-arm cleanly afterwards.
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(sim.now))
    t.start(1.0)
    sim.run()
    assert fired == [1.0]
    assert not t.armed
    t.cancel()  # after fire: nothing pending, nothing to corrupt
    assert not t.armed
    t.start(2.0)
    sim.run()
    assert fired == [1.0, 3.0]


def test_timer_double_start_rearms_exactly_once():
    # Two start() calls in a row leave exactly one pending firing (the
    # second), both when the second is earlier and when it is later.
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(sim.now))
    t.start(1.0)
    t.start(4.0)  # later: the 1.0 arming must die
    assert t.expiry == 4.0
    sim.run(until=10.0)
    assert fired == [4.0]

    t.start(5.0)
    t.start(2.0)  # earlier: the 5.0 arming must die
    assert t.expiry == 12.0
    sim.run()
    assert fired == [4.0, 12.0]


def test_timer_mass_cancel_triggers_heap_compaction():
    # A fleet of far-future timers that all get cancelled (every node
    # re-arming its HELLO timeout, then dying) must be swept out of the
    # calendar once cancelled entries dominate, or the dead entries
    # stay in memory (and in every heap sift) until their far-off time.
    sim = Simulator(seed=1)
    threshold = Simulator.COMPACT_THRESHOLD
    timers = [Timer(sim, lambda: None) for _ in range(threshold - 1)]
    for i, t in enumerate(timers):
        t.start(1000.0 + (i % 89))
    for t in timers:
        t.cancel()
        assert not t.armed
    survivor = Timer(sim, lambda: None)
    survivor.start(2000.0)  # reaches the threshold and trips the sweep
    assert sim._compactions >= 1
    assert sim.pending == 1
    assert survivor.armed


def test_periodic_timer_fires_every_period():
    sim = Simulator()
    fired = []
    p = PeriodicTimer(sim, lambda: fired.append(sim.now), period=2.0)
    p.start()
    sim.run(until=9.0)
    assert fired == [2.0, 4.0, 6.0, 8.0]


def test_periodic_timer_initial_delay():
    sim = Simulator()
    fired = []
    p = PeriodicTimer(sim, lambda: fired.append(sim.now), period=5.0)
    p.start(initial_delay=1.0)
    sim.run(until=12.0)
    assert fired == [1.0, 6.0, 11.0]


def test_periodic_timer_stop():
    sim = Simulator()
    fired = []
    p = PeriodicTimer(sim, lambda: fired.append(sim.now), period=1.0)
    p.start()
    sim.at(3.5, p.stop)
    sim.run(until=10.0)
    assert fired == [1.0, 2.0, 3.0]
    assert not p.running


def test_periodic_timer_jitter_bounds():
    sim = Simulator()
    fired = []
    p = PeriodicTimer(
        sim, lambda: fired.append(sim.now), period=10.0,
        jitter=lambda: 0.5,
    )
    p.start()
    sim.run(until=25.0)
    # Every interval is period + jitter = 10.5.
    assert fired == pytest.approx([10.5, 21.0])


def test_periodic_timer_rejects_nonpositive_period():
    sim = Simulator()
    with pytest.raises(ValueError):
        PeriodicTimer(sim, lambda: None, period=0.0)


def test_periodic_timer_stop_within_callback():
    sim = Simulator()
    fired = []

    def cb():
        fired.append(sim.now)
        p.stop()

    p = PeriodicTimer(sim, cb, period=1.0)
    p.start()
    sim.run(until=5.0)
    assert fired == [1.0]
