"""Radio state machine and its battery accounting."""

import pytest

from repro.des.core import Simulator
from repro.energy.accounting import BatteryMonitor
from repro.energy.battery import Battery
from repro.energy.profile import PAPER_PROFILE, RadioMode
from repro.geo.vector import Vec2
from repro.phy.radio import Radio


def make_radio(capacity=500.0):
    sim = Simulator()
    battery = Battery(capacity)
    mon = BatteryMonitor(sim, battery, max_draw_w=1.433)
    radio = Radio(1, lambda: Vec2(0.0, 0.0), PAPER_PROFILE, mon)
    return sim, battery, radio


def test_initial_mode_is_idle():
    _, battery, radio = make_radio()
    assert radio.mode is RadioMode.IDLE
    assert radio.awake
    assert battery.draw_w == pytest.approx(0.863)


def test_tx_overrides_everything():
    _, battery, radio = make_radio()
    radio.begin_tx()
    assert radio.mode is RadioMode.TX
    assert battery.draw_w == pytest.approx(1.433)
    radio.begin_rx()
    assert radio.mode is RadioMode.TX  # half duplex: tx wins
    radio.end_tx()
    assert radio.mode is RadioMode.RX
    radio.end_rx()
    assert radio.mode is RadioMode.IDLE


def test_rx_counting_supports_overlap():
    _, battery, radio = make_radio()
    radio.begin_rx()
    radio.begin_rx()
    assert radio.mode is RadioMode.RX
    radio.end_rx()
    assert radio.mode is RadioMode.RX  # still one reception in flight
    radio.end_rx()
    assert radio.mode is RadioMode.IDLE


def test_sleep_clears_receptions_and_draws_sleep_power():
    _, battery, radio = make_radio()
    radio.begin_rx()
    radio.sleep()
    assert radio.mode is RadioMode.SLEEP
    assert not radio.awake
    assert not radio.can_receive
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
