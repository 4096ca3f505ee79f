"""Radio state machine and its battery accounting."""

import pytest

from repro.des.core import Simulator
from repro.energy.accounting import BatteryMonitor
from repro.energy.battery import Battery
from repro.energy.profile import PAPER_PROFILE, RadioMode
from repro.geo.vector import Vec2
from repro.mobility.static import StaticPosition
from repro.phy.radio import Radio
from tests.phy.test_medium import HIDDEN, attach_inbox, build


def make_radio(capacity=500.0):
    sim = Simulator()
    battery = Battery(capacity)
    mon = BatteryMonitor(sim, battery, max_draw_w=1.433)
    radio = Radio(1, StaticPosition(Vec2(0.0, 0.0)), PAPER_PROFILE, mon)
    return sim, battery, radio


def test_initial_mode_is_idle():
    _, battery, radio = make_radio()
    assert radio.mode is RadioMode.IDLE
    assert radio.awake
    assert battery.draw_w == pytest.approx(0.863)


# Receptions are driven through ``Medium.transmit``: the medium's
# receiver loops make a radio's RX transitions in every run.
def test_tx_overrides_everything():
    # b starts sending inside a's frame: TX wins over the reception,
    # which resumes RX once b's shorter frame is off the air.
    sim, medium, (a, b) = build([(100, 100), (200, 100)])
    battery = b.monitor.battery
    medium.transmit(a, "long", 1000)
    assert b.mode is RadioMode.RX
    assert battery.draw_w == pytest.approx(1.033)
    sim.at(0.001, medium.transmit, b, "short", 100)
    sim.run(until=0.0012)
    assert b.mode is RadioMode.TX  # half duplex: tx wins
    assert battery.draw_w == pytest.approx(1.433)
    sim.run(until=0.003)
    assert b.mode is RadioMode.RX  # a's frame is still on the air
    assert battery.draw_w == pytest.approx(1.033)
    sim.run(until=1.0)
    assert b.mode is RadioMode.IDLE
    assert battery.draw_w == pytest.approx(0.863)


def test_overlapping_receptions_hold_rx():
    sim, medium, (a, b, c) = build(HIDDEN)
    inbox = attach_inbox(c)
    battery = c.monitor.battery
    medium.transmit(a, "long", 1000)
    sim.at(0.001, medium.transmit, b, "short", 250)
    sim.run(until=0.0015)
    assert c.mode is RadioMode.RX
    assert battery.draw_w == pytest.approx(1.033)
    sim.run(until=0.0025)  # b's frame has ended, a's has not
    assert c.mode is RadioMode.RX  # still one reception in flight
    assert battery.draw_w == pytest.approx(1.033)
    sim.run(until=1.0)
    assert c.mode is RadioMode.IDLE
    assert battery.draw_w == pytest.approx(0.863)
    assert inbox == []  # the overlap corrupted both
    assert medium.stats.frames_corrupted == 2


def test_sleep_and_wake_inside_a_frame_keep_a_later_reception_in_rx():
    # c sleeps and wakes inside a's frame, and b's frame reaches c
    # before a's ends.  The end of a's frame must not end c's RX while
    # b's frame is still on the air.
    sim, medium, (a, b, c) = build([(100, 100), (300, 100), (200, 100)])
    battery = c.monitor.battery
    medium.transmit(a, "first", 1000)  # on the air until 4 ms
    sim.at(0.001, c.sleep)
    sim.at(0.002, c.wake)
    sim.at(0.0035, medium.transmit, b, "second", 1000)  # until 7.5 ms
    sim.run(until=0.005)
    assert c.mode is RadioMode.RX
    assert battery.draw_w == pytest.approx(1.033)
    sim.run(until=0.008)
    assert c.mode is RadioMode.IDLE
    assert battery.draw_w == pytest.approx(0.863)


def test_sleep_clears_receptions_and_draws_sleep_power():
    sim, medium, (a, b) = build([(100, 100), (200, 100)])
    inbox = attach_inbox(b)
    battery = b.monitor.battery
    medium.transmit(a, "msg", 1000)
    assert b.mode is RadioMode.RX
    sim.at(0.001, b.sleep)
    sim.run(until=0.002)
    assert b.mode is RadioMode.SLEEP
    assert not b.awake
    assert battery.draw_w == pytest.approx(0.163)
    sim.run(until=1.0)
    assert inbox == []  # the frame was lost to the sleep
    assert medium.stats.frames_corrupted == 1
    assert b.mode is RadioMode.SLEEP
    assert battery.draw_w == pytest.approx(0.163)


def test_wake_restores_idle():
    _, battery, radio = make_radio()
    radio.sleep()
    radio.wake()
    assert radio.mode is RadioMode.IDLE
    assert radio.awake


def test_power_off_is_terminal():
    _, battery, radio = make_radio()
    radio.power_off()
    assert radio.mode is RadioMode.OFF
    assert not radio.alive
    assert battery.draw_w == 0.0
    radio.wake()
    assert radio.mode is RadioMode.OFF
    radio.sleep()
    assert radio.mode is RadioMode.OFF


def test_energy_integral_over_mode_timeline():
    sim, battery, radio = make_radio(capacity=500.0)
    # 10 s idle, 2 s tx, 8 s sleep.
    sim.at(10.0, radio.begin_tx)
    sim.at(12.0, radio.end_tx)
    sim.at(12.0, radio.sleep)
    sim.run(until=20.0)
    expected = 10.0 * 0.863 + 2.0 * 1.433 + 8.0 * 0.163
    assert battery.consumed_at(20.0) == pytest.approx(expected, rel=1e-9)


def test_mode_change_callback():
    _, _, radio = make_radio()
    changes = []
    radio.on_mode_change = lambda old, new: changes.append((old, new))
    radio.begin_tx()
    radio.end_tx()
    assert changes == [
        (RadioMode.IDLE, RadioMode.TX),
        (RadioMode.TX, RadioMode.IDLE),
    ]
