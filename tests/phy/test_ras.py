"""Remotely Activated Switch paging channel."""

import pytest

from repro.des.core import Simulator
from repro.energy.accounting import BatteryMonitor
from repro.energy.battery import Battery
from repro.energy.profile import PAPER_PROFILE
from repro.geo.grid import GridMap
from repro.geo.vector import Vec2
from repro.mobility.static import StaticPosition
from repro.phy.medium import Medium
from repro.phy.ras import RasChannel, RasConfig
from repro.phy.radio import Radio


def build(positions):
    sim = Simulator()
    grid = GridMap(1000.0, 1000.0, 100.0)
    medium = Medium(sim, grid)
    ras = RasChannel(sim, medium, grid, RasConfig())
    radios, pages = [], []
    for i, (x, y) in enumerate(positions):
        battery = Battery(500.0)
        mon = BatteryMonitor(sim, battery, max_draw_w=1.433)
        r = Radio(i, StaticPosition(Vec2(x, y)), PAPER_PROFILE, mon)
        medium.register(r)
        log = []
        ras.attach(i, r, lambda broadcast, log=log: log.append(broadcast))
        radios.append(r)
        pages.append(log)
    return sim, grid, medium, ras, radios, pages


def test_page_host_in_range_fires_handler():
    sim, _, _, ras, radios, pages = build([(100, 100), (150, 100)])
    radios[1].sleep()
    assert ras.page_host(radios[0], 1) is True
    sim.run(until=1.0)
    assert pages[1] == [False]


def test_page_host_out_of_range_does_not_fire():
    sim, _, _, ras, radios, pages = build([(100, 100), (600, 100)])
    assert ras.page_host(radios[0], 1) is False
    sim.run(until=1.0)
    assert pages[1] == []


def test_page_unknown_host():
    sim, _, _, ras, radios, pages = build([(100, 100)])
    assert ras.page_host(radios[0], 99) is False


def test_page_grid_wakes_only_that_cell():
    sim, grid, _, ras, radios, pages = build(
        [(150, 150), (120, 130), (160, 170), (250, 150)]
    )
    # Radios 0..2 in cell (1,1); radio 3 in cell (2,1).
    count = ras.page_grid(radios[0], (1, 1))
    sim.run(until=1.0)
    assert count == 2  # sender itself excluded
    assert pages[1] == [True]
    assert pages[2] == [True]
    assert pages[3] == []


def test_page_grid_respects_radio_range():
    sim, grid, _, ras, radios, pages = build([(150, 150), (155, 155)])
    # Target grid far away: nobody there.
    count = ras.page_grid(radios[0], (9, 9))
    sim.run(until=1.0)
    assert count == 0


def test_paging_charges_the_sender():
    sim, _, _, ras, radios, _ = build([(100, 100), (150, 100)])
    battery = radios[0].monitor.battery
    ras.page_host(radios[0], 1)
    sim.run(until=1.0)
    end = sim.now
    baseline = end * (PAPER_PROFILE.idle_w + PAPER_PROFILE.gps_w)
    extra = RasConfig().page_duration_s * (
        PAPER_PROFILE.tx_w - PAPER_PROFILE.idle_w
    )
    assert battery.consumed_at(end) == pytest.approx(baseline + extra, rel=1e-6)


def test_receiving_page_costs_nothing():
    """Paper §2: RAS receive power is ignored."""
    sim, _, _, ras, radios, _ = build([(100, 100), (150, 100)])
    radios[1].sleep()
    battery = radios[1].monitor.battery
    ras.page_host(radios[0], 1)
    sim.run(until=1.0)
    end = sim.now
    sleep_only = end * (PAPER_PROFILE.sleep_w + PAPER_PROFILE.gps_w)
    assert battery.consumed_at(end) == pytest.approx(sleep_only, rel=1e-6)


def test_detach_stops_paging():
    sim, _, _, ras, radios, pages = build([(100, 100), (150, 100)])
    ras.detach(1)
    assert ras.page_host(radios[0], 1) is False
    sim.run(until=1.0)
    assert pages[1] == []


def test_counters():
    sim, _, _, ras, radios, _ = build([(100, 100), (150, 100)])
    ras.page_host(radios[0], 1)
    ras.page_grid(radios[0], (1, 1))
    assert ras.pages_sent == 1
    assert ras.broadcast_pages_sent == 1
