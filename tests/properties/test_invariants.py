"""Property-based tests (hypothesis) on core data structures."""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.des.core import Simulator
from repro.energy.accounting import BatteryMonitor
from repro.energy.battery import Battery
from repro.energy.profile import level_of, EnergyLevel
from repro.geo.grid import GridMap, max_grid_side
from repro.geo.region import bounding_region
from repro.geo.vector import Vec2
from repro.metrics.timeseries import TimeSeries
from repro.mobility.base import next_cell_crossing
from repro.mobility.waypoint import RandomWaypoint


# ----------------------------------------------------------------------
# Grid partition
# ----------------------------------------------------------------------
@given(
    x=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    y=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    side=st.floats(min_value=10.0, max_value=117.0),
)
def test_every_point_maps_to_exactly_one_valid_cell(x, y, side):
    grid = GridMap(1000.0, 1000.0, side)
    cell = grid.cell_of(Vec2(x, y))
    assert grid.contains_cell(cell)
    # Interior points are inside their cell's bounds.
    x0, y0, x1, y1 = grid.cell_bounds(cell)
    if x < 1000.0 and y < 1000.0:
        assert x0 <= x < x1 + 1e-9
        assert y0 <= y < y1 + 1e-9


@given(
    cx=st.integers(min_value=0, max_value=9),
    cy=st.integers(min_value=0, max_value=9),
)
def test_center_roundtrips_through_cell_of(cx, cy):
    grid = GridMap(1000.0, 1000.0, 100.0)
    assert grid.cell_of(grid.center_of((cx, cy))) == (cx, cy)


@given(
    a=st.tuples(st.integers(0, 9), st.integers(0, 9)),
    b=st.tuples(st.integers(0, 9), st.integers(0, 9)),
    margin=st.integers(0, 3),
)
def test_bounding_region_contains_endpoints_and_is_symmetric(a, b, margin):
    grid = GridMap(1000.0, 1000.0, 100.0)
    r = bounding_region(a, b, margin, grid)
    assert r.contains(a) and r.contains(b)
    assert r == bounding_region(b, a, margin, grid)


@given(r=st.floats(min_value=1.0, max_value=1000.0))
def test_max_grid_side_guarantees_reachability(r):
    d = max_grid_side(r)
    assert 1.5 * d * math.sqrt(2) <= r * (1 + 1e-12)


# ----------------------------------------------------------------------
# Event calendar
# ----------------------------------------------------------------------
@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1, max_size=60,
    )
)
def test_events_always_execute_in_nondecreasing_time_order(times):
    sim = Simulator()
    executed = []
    for t in times:
        sim.at(t, lambda t=t: executed.append(sim.now))
    sim.run()
    assert executed == sorted(executed)
    assert len(executed) == len(times)


# ----------------------------------------------------------------------
# Battery
# ----------------------------------------------------------------------
@given(
    draws=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=1, max_size=40,
    )
)
def test_battery_monotone_nonincreasing_and_nonnegative(draws):
    sim = Simulator()
    battery = Battery(500.0)
    monitor = BatteryMonitor(sim, battery, max_draw_w=5.0)
    t = 0.0
    prev = 500.0
    for watts, dt in draws:
        t += dt
        sim.run(until=t)
        monitor.set_draw(watts)
        rem = battery.remaining_at(t)
        assert 0.0 <= rem <= prev + 1e-9
        prev = rem


@given(
    capacity=st.floats(min_value=1.0, max_value=1e6),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_level_bands_partition_the_ratio_line(capacity, frac):
    level = level_of(frac)
    if frac > 0.6:
        assert level is EnergyLevel.UPPER
    elif frac >= 0.2:
        assert level is EnergyLevel.BOUNDARY
    else:
        assert level is EnergyLevel.LOWER


# ----------------------------------------------------------------------
# Mobility
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    max_speed=st.floats(min_value=0.5, max_value=20.0),
    pause=st.floats(min_value=0.0, max_value=30.0),
)
def test_waypoint_never_leaves_area(seed, max_speed, pause):
    m = RandomWaypoint(random.Random(seed), 800.0, 600.0,
                       0.0, max_speed, pause)
    for t in range(0, 2000, 37):
        p = m.position(float(t))
        assert -1e-9 <= p.x <= 800.0 + 1e-9
        assert -1e-9 <= p.y <= 600.0 + 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_cell_crossings_are_consistent_with_positions(seed):
    """The analytic crossing solver and direct position sampling must
    agree: at crossing time + eps the node is in the reported new cell,
    and crossing times strictly increase."""
    grid = GridMap(800.0, 600.0, 100.0)
    m = RandomWaypoint(random.Random(seed), 800.0, 600.0, 0.5, 10.0, 2.0)
    t = 0.0
    for _ in range(12):
        nxt = next_cell_crossing(m, t, grid, horizon=t + 500.0)
        if nxt is None:
            break
        t_new, cell = nxt
        assert t_new > t
        assert grid.cell_of(m.position(t_new + 1e-7)) == cell
        t = t_new


# ----------------------------------------------------------------------
# Time series
# ----------------------------------------------------------------------
@given(
    samples=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        ),
        min_size=1, max_size=50,
    )
)
def test_timeseries_at_returns_latest_sample_not_after_t(samples):
    samples = sorted(samples, key=lambda s: s[0])
    ts = TimeSeries()
    for t, v in samples:
        ts.append(t, v)
    # Query at each sample time: must see a value from a sample at <= t.
    for t, _ in samples:
        v = ts.at(t)
        assert any(st_ <= t and sv == v for st_, sv in samples)
