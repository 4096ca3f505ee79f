"""Figure 4: fraction of alive hosts vs time — GRID / ECGRID / GAF.

Paper claims (§4A): the GRID network dies first (~590 s at paper
scale, i.e. E0/(idle+gps)); ECGRID and GAF both prolong the network
lifetime, with GAF slightly ahead of ECGRID (HELLO overhead).
"""

import pytest

from repro.api import figure

from conftest import SCALE, SEED, run_once


@pytest.mark.parametrize("speed", [1.0, 10.0], ids=["1mps", "10mps"])
def test_fig4_alive_fraction(benchmark, speed):
    fig = run_once(
        benchmark, figure, "fig4", speed=speed, scale=SCALE, seed=SEED
    )
    print()
    print(fig.to_text())
    runs = {r.config.protocol: r for r in fig.results.values()}

    grid = runs["grid"]
    ecgrid = runs["ecgrid"]
    gaf = runs["gaf"]

    # GRID's network dies within the horizon, at ~E0/0.863 W.
    grid_down = grid.alive_fraction.first_time_below(0.05)
    expected_grid_down = grid.config.initial_energy_j / 0.863
    assert grid_down is not None
    assert grid_down == pytest.approx(expected_grid_down, rel=0.15)

    # The energy-conserving protocols keep hosts alive past GRID's
    # death (read just after GRID went down).
    probe_t = min(grid_down * 1.1, grid.config.sim_time_s)
    assert ecgrid.alive_at(probe_t) > 0.2
    assert gaf.alive_at(probe_t) > 0.2
    assert grid.alive_at(probe_t) < 0.05

    # Network-down ordering: ECGRID and GAF outlast GRID.
    for r in (ecgrid, gaf):
        down = r.alive_fraction.first_time_below(0.05)
        assert down is None or down > grid_down * 1.2

    benchmark.extra_info.update(
        grid_down_s=round(grid_down, 1),
        ecgrid_alive_after_grid_death=round(ecgrid.alive_at(probe_t), 3),
        gaf_alive_after_grid_death=round(gaf.alive_at(probe_t), 3),
        events=sum(r.events_executed for r in runs.values()),
    )
