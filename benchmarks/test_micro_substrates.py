"""M1: micro-benchmarks of the simulation substrates.

These guard the kernel hot paths the figure benches depend on: event
scheduling throughput, medium broadcast fan-out, battery integration,
and the analytic mobility solver.
"""

import random

from repro.des.core import Simulator
from repro.energy.accounting import BatteryMonitor
from repro.energy.battery import Battery
from repro.energy.profile import PAPER_PROFILE
from repro.geo.grid import GridMap
from repro.geo.vector import Vec2
from repro.mobility.base import next_cell_crossing
from repro.mobility.static import StaticPosition
from repro.mobility.waypoint import RandomWaypoint
from repro.phy.medium import Medium
from repro.phy.radio import Radio


def test_des_event_throughput(benchmark):
    """Schedule + dispatch 50k self-rescheduling events."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 50_000:
                sim.after(0.001, tick)

        sim.after(0.001, tick)
        sim.run()
        return count[0]

    assert benchmark(run) == 50_000


def test_medium_broadcast_fanout(benchmark):
    """One broadcast into a 100-radio neighborhood, 200 times."""
    sim = Simulator()
    grid = GridMap(1000.0, 1000.0, 100.0)
    medium = Medium(sim, grid)
    rng = random.Random(7)
    radios = []
    for i in range(100):
        battery = Battery(1e9)
        mon = BatteryMonitor(sim, battery, max_draw_w=1.433)
        pos = Vec2(rng.uniform(300, 700), rng.uniform(300, 700))
        r = Radio(i, StaticPosition(pos), PAPER_PROFILE, mon)
        medium.register(r)
        radios.append(r)

    def run():
        for _ in range(200):
            medium.transmit(radios[0], "x", 64)
            sim.run()
        return medium.stats.frames_sent

    benchmark(run)


def test_battery_integration_rate(benchmark):
    """1M draw switches on one analytic battery, each through its
    monitor (the path every radio mode flip takes)."""

    def run():
        sim = Simulator()
        b = Battery(1e12)
        set_draw = BatteryMonitor(sim, b, max_draw_w=1.4).set_draw
        advance = sim.run
        t = 0.0
        for i in range(1_000_000):
            t += 0.001
            advance(until=t)
            set_draw(0.8 if i & 1 else 1.4)
        return b.remaining_at(t)

    benchmark(run)


def test_waypoint_crossing_solver(benchmark):
    """Chase a random-waypoint trajectory through 2000 cell crossings."""
    grid = GridMap(1000.0, 1000.0, 100.0)

    def run():
        m = RandomWaypoint(random.Random(3), 1000.0, 1000.0, 1.0, 10.0, 0.0)
        t, n = 0.0, 0
        while n < 2000:
            nxt = next_cell_crossing(m, t, grid)
            assert nxt is not None
            t = nxt[0]
            n += 1
        return t

    benchmark(run)


def test_full_scenario_events_per_second(benchmark):
    """End-to-end simulator throughput on a small live network."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    cfg = ExperimentConfig(
        protocol="ecgrid", n_hosts=12, width_m=350.0, height_m=350.0,
        n_flows=2, sim_time_s=40.0, initial_energy_j=100.0, seed=2,
    )

    def run():
        return run_experiment(cfg).events_executed

    events = benchmark(run)
    assert events > 1000
