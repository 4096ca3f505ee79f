"""Seed statistics: curve reducers, scalar summaries, t intervals."""

import pytest

from repro.api import ExperimentConfig, SweepSpec, sweep
from repro.experiments.stats import (
    mean_series,
    stddev_series,
    summarize_scalars,
)

TINY = dict(
    n_hosts=8, width_m=300.0, height_m=300.0, n_flows=2,
    sim_time_s=20.0, initial_energy_j=60.0,
)


def seed_results(config, seeds):
    """``config`` under each seed, through a seed-axis sweep."""
    spec = SweepSpec(name="seeds", base=config, axes={"seed": list(seeds)})
    return sweep(spec).results


def test_mean_series_on_shared_grid():
    a = [(0.0, 1.0), (10.0, 0.5)]
    b = [(0.0, 0.0), (10.0, 1.5)]
    assert mean_series([a, b]) == [(0.0, 0.5), (10.0, 1.0)]


def test_mean_series_uses_union_grid():
    a = [(0.0, 1.0), (10.0, 0.5), (20.0, 0.1)]
    b = [(0.0, 0.0), (10.0, 1.5)]
    # b's last value (1.5) carries forward to x=20.
    assert mean_series([a, b]) == [
        (0.0, 0.5),
        (10.0, 1.0),
        (20.0, pytest.approx((0.1 + 1.5) / 2)),
    ]


def test_mean_series_disjoint_grids_not_empty():
    # Regression: replicates whose sample times never coincide (e.g.
    # per-seed death times) used to reduce to an empty curve.
    a = [(0.0, 1.0), (10.0, 0.0)]
    b = [(5.0, 1.0), (15.0, 0.0)]
    got = mean_series([a, b])
    assert [x for x, _ in got] == [0.0, 5.0, 10.0, 15.0]
    # Before b's first sample the mean runs over a alone.
    assert got[0] == (0.0, 1.0)
    assert got[2] == (10.0, 0.5)
    assert got[3] == (15.0, 0.0)


def test_mean_series_leading_edge_excludes_unstarted():
    # Regression: before a series' first sample, its first value used
    # to back-fill the union grid, biasing the mean on the leading
    # edge.  Carry-forward only runs forward; an unstarted replicate
    # contributes nothing.
    a = [(0.0, 0.0), (10.0, 0.0)]
    b = [(5.0, 4.0)]
    got = mean_series([a, b])
    assert got == [(0.0, 0.0), (5.0, 2.0), (10.0, 2.0)]


def test_stddev_series_leading_edge_is_zero():
    # Only one replicate is defined before b starts: no spread there.
    a = [(0.0, 0.0), (10.0, 0.0)]
    b = [(5.0, 4.0)]
    got = stddev_series([a, b])
    assert got[0] == (0.0, 0.0)
    assert got[1][1] > 0.0


def test_mean_series_empty():
    assert mean_series([]) == []


def test_summarize_scalars():
    cfg = ExperimentConfig(protocol="grid", **TINY)
    results = seed_results(cfg, seeds=[1, 2, 3])
    summary = summarize_scalars(results)
    mean, sd = summary["delivery_rate"]
    assert 0.0 <= mean <= 1.0
    assert sd >= 0.0
    assert set(summary) >= {"aen_end", "alive_end", "first_death_s"}


def test_summarize_scalars_empty_raises():
    with pytest.raises(ValueError, match="at least one result"):
        summarize_scalars([])


def test_summarize_scalars_uses_each_results_own_horizon():
    # Two survivors under different horizons: first_death_s must mix
    # 20 s and 40 s, not inherit results[0]'s horizon for both.
    from dataclasses import replace as dc_replace

    cfg = ExperimentConfig(protocol="grid", **TINY)
    short, = seed_results(cfg, seeds=[1])
    long_cfg = dc_replace(cfg, sim_time_s=40.0)
    long, = seed_results(long_cfg, seeds=[1])
    assert short.first_death_s is None and long.first_death_s is None
    mean, _ = summarize_scalars([short, long])["first_death_s"]
    assert mean == pytest.approx((20.0 + 40.0) / 2)


# ----------------------------------------------------------------------
# Student-t helpers (the adaptive engine's statistical floor)
# ----------------------------------------------------------------------
def test_t_quantile_matches_tables():
    from repro.experiments.stats import t_quantile

    # Two-sided 95% critical values (df=1 and 2 are exact closed
    # forms; the Hill expansion must stay within ~0.005 above that).
    assert t_quantile(0.975, 1) == pytest.approx(12.706, abs=1e-3)
    assert t_quantile(0.975, 2) == pytest.approx(4.303, abs=1e-3)
    assert t_quantile(0.975, 4) == pytest.approx(2.776, abs=5e-3)
    assert t_quantile(0.975, 9) == pytest.approx(2.262, abs=5e-3)
    assert t_quantile(0.975, 30) == pytest.approx(2.042, abs=5e-3)
    assert t_quantile(0.5, 7) == 0.0
    # Symmetry.
    assert t_quantile(0.025, 9) == pytest.approx(-t_quantile(0.975, 9))


def test_t_quantile_rejects_bad_args():
    from repro.experiments.stats import t_quantile

    with pytest.raises(ValueError):
        t_quantile(0.0, 3)
    with pytest.raises(ValueError):
        t_quantile(0.975, 0)


def test_ci_halfwidth():
    from repro.experiments.stats import ci_halfwidth

    assert ci_halfwidth([5.0]) == 0.0
    assert ci_halfwidth([], 0.95) == 0.0
    # n=2, sd=sqrt(2), se=1: half-width = t(0.975, df=1) = 12.706.
    assert ci_halfwidth([1.0, 3.0]) == pytest.approx(12.706, abs=1e-3)
    with pytest.raises(ValueError):
        ci_halfwidth([1.0, 2.0], confidence=1.0)


def test_ci_series_leading_edge_is_zero():
    from repro.experiments.stats import ci_series

    a = [(0.0, 0.0), (10.0, 0.0)]
    b = [(5.0, 4.0)]
    got = ci_series([a, b])
    assert got[0] == (0.0, 0.0)  # one replicate defined: no interval
    assert got[1][1] > 0.0
