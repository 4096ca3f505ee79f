"""Properties of the medium's per-cell buckets.

``register`` / ``unregister`` / ``update_cell`` rebuild buckets in
place, and the covering-bucket tuples that neighbor queries walk are
never invalidated.  So under any interleaving of mobility, membership
churn and sleep/wake flips, what the medium answers must equal an
oracle that scans every registered radio and never looks at the bucket
index:

- every bucket's members, in insertion order — a missing rebuild
  leaves them stale;
- ``radios_near``, element for element (row-major covering cells, then
  bucket insertion order);
- every ``transmit``'s receptions, in order: exactly the in-range,
  IDLE, non-transmitting radios; and its missed-asleep count: exactly
  the in-range sleepers.
"""

import itertools
import random

import pytest

from repro.des.core import Simulator
from repro.energy.accounting import BatteryMonitor
from repro.energy.battery import Battery
from repro.energy.profile import PAPER_PROFILE, RadioMode
from repro.geo.grid import GridMap
from repro.geo.vector import Vec2
from repro.mobility.static import StaticPosition
from repro.mobility.waypoint import RandomWaypoint
from repro.phy.medium import Medium, MediumConfig
from repro.phy.radio import Radio

AREA = 1000.0


def build_world(n, seed, moving=True, area=AREA):
    sim = Simulator(seed=seed)
    grid = GridMap(area, area, 100.0)
    medium = Medium(sim, grid, MediumConfig())
    rng = random.Random(seed)
    radios = []
    for i in range(n):
        battery = Battery(500.0)
        mon = BatteryMonitor(sim, battery, max_draw_w=1.433)
        if moving:
            mob = RandomWaypoint(
                random.Random(seed * 1000 + i), area, area,
                min_speed=0.5, max_speed=5.0,
            )
        else:
            mob = StaticPosition(
                Vec2(rng.uniform(0, area), rng.uniform(0, area))
            )
        r = Radio(i, mob, PAPER_PROFILE, mon)
        medium.register(r)
        radios.append(r)
    return sim, medium, radios


class Oracle:
    """Brute-force model of the medium's membership: each registered
    radio's cell and when it arrived there, with no bucket index."""

    def __init__(self, medium, radios):
        self.medium = medium
        self.cell = {}
        self.arrived = {}
        self._clock = itertools.count()
        for radio in radios:
            self._arrive(radio)

    def _arrive(self, radio):
        self.cell[radio] = self.medium.grid.cell_of(radio.position())
        self.arrived[radio] = next(self._clock)

    def register(self, radio):
        self.medium.register(radio)
        self._arrive(radio)

    def unregister(self, radio):
        self.medium.unregister(radio)
        del self.cell[radio]
        del self.arrived[radio]

    def update_cell(self, radio):
        self.medium.update_cell(radio)
        if self.medium.grid.cell_of(radio.position()) != self.cell[radio]:
            self._arrive(radio)

    def order(self, radio):
        return self.cell[radio], self.arrived[radio]

    def near(self, pos, radius):
        px, py = pos
        r2 = radius * radius
        hits = []
        for radio in self.cell:
            x, y = radio.position()
            dx = x - px
            dy = y - py
            if dx * dx + dy * dy <= r2:
                hits.append(radio)
        return sorted(hits, key=self.order)

    def in_cell(self, cell):
        return sorted(
            (r for r, c in self.cell.items() if c == cell), key=self.order
        )


def assert_buckets_current(medium, oracle):
    for cell, bucket in medium._buckets.items():
        expect = oracle.in_cell(cell)
        assert list(bucket.radios.values()) == expect
        assert list(bucket.members) == expect


def assert_transmit_matches(medium, oracle, sender):
    missed = medium.stats.frames_missed_asleep
    medium.transmit(sender, "frame", 128)
    tx = medium._active[-1]
    heard = oracle.near(sender.position(), medium.config.range_m)
    assert [rec.receiver for rec in tx.receptions] == [
        r for r in heard
        if r.base_mode is RadioMode.IDLE and not r.transmitting
    ]
    assert medium.stats.frames_missed_asleep - missed == sum(
        r.base_mode is RadioMode.SLEEP for r in heard
    )


@pytest.mark.parametrize(
    "n, area",
    [
        # About 0.3 radios per 100 m cell: most buckets hold one or none.
        (30, AREA),
        # About 7 per cell: every bucket holds several radios and
        # several sleepers, and most lie wholly inside a 250 m disk.
        (60, 300.0),
    ],
    ids=["sparse", "dense"],
)
def test_buckets_match_brute_force_scan_under_churn(n, area):
    """200 random steps of motion + membership churn + sleep/wake flips
    + transmissions: bucket members, neighbor queries, receiver lists
    and missed-asleep counts all equal the brute-force oracle after
    every step."""
    sim, medium, radios = build_world(n, seed=7, area=area)
    oracle = Oracle(medium, radios)
    rng = random.Random(99)
    registered = set(range(len(radios)))
    parked = set()
    for step in range(200):
        sim.run(until=sim.now + rng.uniform(0.05, 2.0))
        for i in sorted(registered):
            oracle.update_cell(radios[i])
        # Sleep/wake churn (keeps OFF out: power_off is one-way).
        for i in sorted(registered):
            if rng.random() < 0.15:
                (radios[i].sleep if radios[i].awake else radios[i].wake)()
        # Membership churn.
        if registered and rng.random() < 0.2:
            i = rng.choice(sorted(registered))
            oracle.unregister(radios[i])
            registered.discard(i)
            parked.add(i)
        if parked and rng.random() < 0.2:
            i = rng.choice(sorted(parked))
            oracle.register(radios[i])
            parked.discard(i)
            registered.add(i)
        assert_buckets_current(medium, oracle)
        # Several queries per step, at host positions and random points.
        for _ in range(3):
            if rng.random() < 0.7 and registered:
                anchor = radios[rng.choice(sorted(registered))]
                pos = anchor.mobility.position(sim.now)
            else:
                pos = Vec2(rng.uniform(0, area), rng.uniform(0, area))
            radius = rng.choice((250.0, 250.0, 250.0, 150.0, 400.0))
            assert medium.radios_near(pos, radius) == oracle.near(pos, radius)
        # Overlapping frames: later senders see earlier ones as
        # transmitting (half-duplex) and skip them as receivers.
        senders = [i for i in sorted(registered) if radios[i].awake]
        for i in rng.sample(senders, min(3, len(senders))):
            assert_transmit_matches(medium, oracle, radios[i])


def test_channel_busy_probe_matches_full_scan():
    """With many frames in flight, carrier sense (which reads positions
    through the inlined mobility fast paths) must agree with an
    exhaustive scan over public positions for every radio."""
    sim, medium, radios = build_world(40, seed=21, moving=True)
    rng = random.Random(5)
    sim.run(until=5.0)
    for i in sorted(rng.sample(range(len(radios)), 12)):
        medium.transmit(radios[i], "cs", 512)
    assert medium._active  # frames still in flight
    sense2 = medium.config.range_m ** 2
    for radio in radios:
        p = radio.mobility.position(sim.now)
        expect = any(
            tx.sender is radio
            or (tx.px - p.x) ** 2 + (tx.py - p.y) ** 2 <= sense2
            for tx in medium._active
        )
        assert medium.channel_busy(radio) == expect
