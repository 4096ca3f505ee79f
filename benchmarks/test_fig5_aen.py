"""Figure 5: mean energy consumption per host (aen) vs time.

Paper claims (§4B): before GRID's death (~590 s), GRID's aen runs
about 33% above ECGRID's and 38% above GAF's, at both speeds.
"""

import pytest

from repro.api import figure

from conftest import SCALE, SEED, run_once


@pytest.mark.parametrize("speed", [1.0, 10.0], ids=["1mps", "10mps"])
def test_fig5_mean_energy(benchmark, speed):
    fig = run_once(
        benchmark, figure, "fig5", speed=speed, scale=SCALE, seed=SEED
    )
    print()
    print(fig.to_text())
    runs = {r.config.protocol: r for r in fig.results.values()}

    grid = runs["grid"]
    # Probe midway through GRID's lifetime (aen still < 1 everywhere).
    grid_down = grid.alive_fraction.first_time_below(0.05)
    assert grid_down is not None
    t = grid_down * 0.6

    aen_grid = grid.aen_at(t)
    aen_ecgrid = runs["ecgrid"].aen_at(t)
    aen_gaf = runs["gaf"].aen_at(t)

    # Ordering: GRID burns fastest; both savers are clearly below.
    assert aen_grid > aen_ecgrid
    assert aen_grid > aen_gaf
    # The paper's magnitude: GRID 33%/38% higher.  Scaled scenarios are
    # sparser (fewer sleepers per grid), so accept any gap >= 10%.
    assert aen_grid / aen_ecgrid > 1.10
    assert aen_grid / aen_gaf > 1.10

    # aen is monotone non-decreasing for every protocol.
    for r in runs.values():
        ys = r.aen.values
        assert all(b >= a - 1e-9 for a, b in zip(ys, ys[1:]))

    benchmark.extra_info.update(
        probe_t=round(t, 1),
        aen_grid=round(aen_grid, 3),
        aen_ecgrid=round(aen_ecgrid, 3),
        aen_gaf=round(aen_gaf, 3),
        grid_over_ecgrid=round(aen_grid / aen_ecgrid, 3),
        grid_over_gaf=round(aen_grid / aen_gaf, 3),
    )
