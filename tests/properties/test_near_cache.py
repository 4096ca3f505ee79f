"""Properties of the medium's neighbor-snapshot cache.

The cache is only allowed to be a *performance* structure: under any
interleaving of mobility, register/unregister churn and sleep/wake
flips, the cached answer must equal the plain bucket scan (the same
code a cold snapshot key runs), and the awake/sleeper partition inside
hot snapshots must match the radios' live base modes (the partition is
rebuilt via per-cell invalidation rather than read live, so a missing
invalidation hook would surface here).
"""

import random

from repro.des.core import Simulator
from repro.energy.accounting import BatteryMonitor
from repro.energy.battery import Battery
from repro.energy.profile import PAPER_PROFILE, RadioMode
from repro.geo.grid import GridMap
from repro.geo.vector import Vec2
from repro.mobility.waypoint import RandomWaypoint
from repro.phy.medium import Medium, MediumConfig
from repro.phy.radio import Radio

AREA = 1000.0


def build_world(n, seed, moving=True):
    sim = Simulator(seed=seed)
    grid = GridMap(AREA, AREA, 100.0)
    medium = Medium(sim, grid, MediumConfig())
    rng = random.Random(seed)
    radios = []
    for i in range(n):
        battery = Battery(500.0)
        mon = BatteryMonitor(sim, battery, max_draw_w=1.433)
        if moving:
            mob = RandomWaypoint(
                random.Random(seed * 1000 + i), AREA, AREA,
                min_speed=0.5, max_speed=5.0,
            )
        else:
            p = Vec2(rng.uniform(0, AREA), rng.uniform(0, AREA))
            mob = None
        if mob is not None:
            r = Radio(
                i, lambda m=mob: m.position(sim.now), PAPER_PROFILE, mon,
                mobility=mob,
            )
        else:
            r = Radio(i, lambda p=p: p, PAPER_PROFILE, mon)
        medium.register(r)
        radios.append(r)
    return sim, medium, radios


def assert_partition_consistent(medium, cell):
    """A hot snapshot's awake/sleeper split must equal the radios' live
    base modes — i.e. every flip since the build must have invalidated."""
    snap = medium._near_snapshot(cell, medium.config.range_m)
    if snap is None:
        return
    for _x0, _y0, _x1, _y1, all_radios, awake, sleepers, count in snap:
        assert list(awake) == [
            r for r in all_radios if r.base_mode is RadioMode.IDLE
        ]
        assert list(sleepers) == [
            r for r in all_radios if r.base_mode is RadioMode.SLEEP
        ]
        assert count == len(sleepers)


def test_radios_near_matches_scan_under_churn():
    """200 random steps of motion + membership churn + sleep/wake flips:
    the (possibly cached) query equals the plain scan, element for
    element, and hot partitions track base modes exactly."""
    sim, medium, radios = build_world(30, seed=7)
    rng = random.Random(99)
    registered = set(range(len(radios)))
    parked = set()
    for step in range(200):
        sim.now += rng.uniform(0.05, 2.0)
        for i in sorted(registered):
            medium.update_cell(radios[i])
        # Sleep/wake churn (keeps OFF out: power_off is one-way).
        for i in sorted(registered):
            if rng.random() < 0.15:
                (radios[i].wake if radios[i].awake else radios[i].sleep)()
        # Membership churn.
        if registered and rng.random() < 0.2:
            i = rng.choice(sorted(registered))
            medium.unregister(radios[i])
            registered.discard(i)
            parked.add(i)
        if parked and rng.random() < 0.2:
            i = rng.choice(sorted(parked))
            medium.register(radios[i])
            parked.discard(i)
            registered.add(i)
        # Several queries per step, revisiting anchors so snapshot keys
        # go hot and answers actually come from replays.
        for _ in range(3):
            if rng.random() < 0.7 and registered:
                anchor = radios[rng.choice(sorted(registered))]
                pos = anchor.mobility.position(sim.now)
            else:
                pos = Vec2(rng.uniform(0, AREA), rng.uniform(0, AREA))
            radius = rng.choice((250.0, 250.0, 250.0, 150.0, 400.0))
            cached = medium.radios_near(pos, radius)
            scanned = medium._scan_near(medium.grid.cell_of(pos), pos, radius)
            assert cached == scanned
            assert_partition_consistent(medium, medium.grid.cell_of(pos))


def _run_script(cache_enabled):
    """One fixed transmission/churn script; returns observable outcomes."""
    sim, medium, radios = build_world(40, seed=13, moving=True)
    if not cache_enabled:
        # Every key stays cold: transmit runs the plain receiver loop.
        medium._near_snapshot = lambda cell, radius: None
    rng = random.Random(4242)
    inboxes = {r.node_id: [] for r in radios}
    for r in radios:
        r.frame_sink = (
            lambda payload, sender, log=inboxes[r.node_id]:
            log.append((payload, sender))
        )
    registered = set(range(len(radios)))
    parked = set()
    for step in range(120):
        sim.run(until=sim.now + rng.uniform(0.01, 0.5))
        for i in sorted(registered):
            medium.update_cell(radios[i])
        for i in sorted(registered):
            if rng.random() < 0.1:
                (radios[i].wake if radios[i].awake else radios[i].sleep)()
        if len(registered) > 5 and rng.random() < 0.1:
            i = rng.choice(sorted(registered))
            medium.unregister(radios[i])
            registered.discard(i)
            parked.add(i)
        if parked and rng.random() < 0.1:
            i = rng.choice(sorted(parked))
            medium.register(radios[i])
            parked.discard(i)
            registered.add(i)
        senders = [
            i for i in sorted(registered)
            if radios[i].awake and not radios[i].transmitting
        ]
        for i in rng.sample(senders, min(3, len(senders))):
            medium.transmit(radios[i], f"pkt-{step}-{i}", 128)
    sim.run(until=sim.now + 1.0)
    energy = {
        r.node_id: r.monitor.battery.consumed_at(sim.now) for r in radios
    }
    return vars(medium.stats).copy(), inboxes, energy


def test_transmit_identical_with_and_without_cache():
    """The fused snapshot receiver loop and the plain scan loop are the
    same physics: stats, deliveries and per-radio energy must match
    bit for bit across a churn-heavy script."""
    stats_on, inboxes_on, energy_on = _run_script(cache_enabled=True)
    stats_off, inboxes_off, energy_off = _run_script(cache_enabled=False)
    assert stats_on == stats_off
    assert inboxes_on == inboxes_off
    assert energy_on == energy_off


def test_channel_busy_probe_matches_full_scan():
    """With many frames in flight, the cell-indexed carrier-sense probe
    must agree with the exhaustive active-list scan for every radio."""
    sim, medium, radios = build_world(40, seed=21, moving=True)
    medium.TX_SCAN_CUTOFF = 0  # force the probe path regardless of load
    rng = random.Random(5)
    sim.run(until=5.0)
    for i in sorted(rng.sample(range(len(radios)), 12)):
        medium.transmit(radios[i], "cs", 512)
    assert medium._active  # frames still in flight
    sense2 = medium.config.sense_range ** 2
    for radio in radios:
        p = radio.mobility.position(sim.now)
        expect = any(
            tx.sender is radio
            or (tx.px - p.x) ** 2 + (tx.py - p.y) ** 2 <= sense2
            for tx in medium._active
        )
        assert medium.channel_busy(radio) == expect
        # The plain-scan path below the cutoff agrees too.
        medium.TX_SCAN_CUTOFF = len(medium._active) + 1
        assert medium.channel_busy(radio) == expect
        medium.TX_SCAN_CUTOFF = 0
