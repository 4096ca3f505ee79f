"""Analytic battery accounting, driven as a run drives it: every draw
switch goes through a :class:`BatteryMonitor` on a simulator."""

import math

import pytest

from repro.des.core import Simulator
from repro.energy.accounting import BatteryMonitor
from repro.energy.battery import Battery
from repro.energy.profile import EnergyLevel


def drive(battery, *switches):
    """Switch ``battery``'s draw at each ``(time, watts)`` through a
    monitor; the clock is left at the last switch."""
    sim = Simulator()
    monitor = BatteryMonitor(sim, battery, max_draw_w=100.0)
    for t, watts in switches:
        sim.run(until=t)
        monitor.set_draw(watts)
    return sim, monitor


def test_no_draw_no_consumption():
    b = Battery(500.0)
    drive(b, (0.0, 0.0))
    assert b.remaining_at(1000.0) == 500.0


def test_linear_drain():
    b = Battery(500.0)
    drive(b, (0.0, 1.0))
    assert b.remaining_at(100.0) == pytest.approx(400.0)
    assert b.consumed_at(100.0) == pytest.approx(100.0)


def test_piecewise_draw_integration():
    b = Battery(100.0)
    # 2 W for 10 s = 20 J, then 0.5 W for 20 s = 10 J.
    drive(b, (0.0, 2.0), (10.0, 0.5), (30.0, 0.0))
    assert b.remaining_at(100.0) == pytest.approx(70.0)


def test_depletes_and_clamps_at_zero():
    b = Battery(10.0)
    sim, monitor = drive(b, (0.0, 1.0))
    assert b.remaining_at(20.0) == 0.0
    sim.run(until=20.0)
    monitor.set_draw(0.0)
    assert b.depleted
    assert b.remaining_at(30.0) == 0.0


def test_rbrc_and_levels():
    b = Battery(100.0)
    drive(b, (0.0, 1.0))
    assert b.rbrc(0.0) == 1.0
    assert b.level(0.0) is EnergyLevel.UPPER
    assert b.level(39.0) is EnergyLevel.UPPER        # rbrc 0.61
    assert b.level(41.0) is EnergyLevel.BOUNDARY     # rbrc 0.59
    assert b.level(79.0) is EnergyLevel.BOUNDARY     # rbrc 0.21
    assert b.level(81.0) is EnergyLevel.LOWER        # rbrc 0.19


def test_time_until_empty():
    b = Battery(100.0)
    sim, monitor = drive(b, (0.0, 2.0))
    assert b.time_until_empty(0.0) == pytest.approx(50.0)
    assert b.time_until_empty(25.0) == pytest.approx(25.0)
    sim.run(until=30.0)
    monitor.set_draw(0.0)
    assert math.isinf(b.time_until_empty(30.0))


def test_time_until_rbrc():
    b = Battery(100.0)
    drive(b, (0.0, 1.0))
    assert b.time_until_rbrc(0.6, 0.0) == pytest.approx(40.0)
    assert b.time_until_rbrc(0.2, 0.0) == pytest.approx(80.0)
    # Already below the target.
    assert b.time_until_rbrc(0.99, 10.0) == 0.0


def test_infinite_battery_never_depletes():
    b = Battery(math.inf)
    drive(b, (0.0, 100.0))
    assert b.remaining_at(1e9) == math.inf
    assert b.rbrc(1e9) == 1.0
    assert not b.depleted
    assert math.isinf(b.time_until_empty(1e9))
    assert b.consumed_at(1e9) == 0.0


def test_initial_charge():
    b = Battery(100.0, initial_j=50.0)
    assert b.rbrc(0.0) == 0.5
    with pytest.raises(ValueError):
        Battery(100.0, initial_j=150.0)
    with pytest.raises(ValueError):
        Battery(100.0, initial_j=-1.0)


def test_time_must_not_go_backwards():
    b = Battery(100.0)
    drive(b, (10.0, 1.0))
    with pytest.raises(ValueError):
        b.settle(5.0)


def test_negative_draw_rejected():
    b = Battery(100.0)
    _, monitor = drive(b)
    with pytest.raises(ValueError):
        monitor.set_draw(-1.0)
    assert b.draw_w == 0.0


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        Battery(0.0)
