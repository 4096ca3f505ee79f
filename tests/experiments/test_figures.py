"""Figure regeneration through ``figure(name)`` on tiny scales.

These validate plumbing (series shapes, labels, readouts); the *science*
(paper-shape claims) lives in the benchmarks and EXPERIMENTS.md.  Every
figure here runs through one cached runner, so figures drawn from the
same grid (Figs. 4/5, Figs. 6/7) simulate it once.
"""

import pytest

from repro.api import (
    AdaptiveRunner,
    ReplicationPolicy,
    ResultCache,
    SweepRunner,
    figure,
)

SCALE = 0.1  # ~10 hosts, ~320 m, 200 s horizon


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    cache = ResultCache(str(tmp_path_factory.mktemp("figure-cache")))
    return SweepRunner(cache=cache)


def test_fig4_series(runner):
    fig = figure("fig4", scale=SCALE, seed=3, runner=runner)
    assert set(fig.series) == {"grid", "ecgrid", "gaf"}
    assert {r.config.protocol for r in fig.results.values()} == {
        "grid", "ecgrid", "gaf",
    }
    for label, series in fig.series.items():
        assert series[0][1] == 1.0  # everyone alive at t=0
        xs = [x for x, _ in series]
        assert xs == sorted(xs)
    assert "alive" in fig.to_text().lower()


def test_fig5_series(runner):
    figure("fig4", scale=SCALE, seed=3, runner=runner)
    misses = runner.cache.misses
    fig = figure("fig5", scale=SCALE, seed=3, runner=runner)
    assert runner.cache.misses == misses  # Fig. 4's runs, reused
    for label, series in fig.series.items():
        ys = [y for _, y in series]
        assert ys[0] == pytest.approx(0.0, abs=1e-6)
        # aen is non-decreasing.
        assert all(b >= a - 1e-9 for a, b in zip(ys, ys[1:]))


def test_fig6_and_fig7_share_sweep(runner):
    fig6 = figure("fig6", scale=SCALE, seed=3, pauses=[0.0, 30.0],
                  runner=runner)
    misses = runner.cache.misses
    fig7 = figure("fig7", scale=SCALE, seed=3, pauses=[0.0, 30.0],
                  runner=runner)
    assert runner.cache.misses == misses
    for fig in (fig6, fig7):
        for label, series in fig.series.items():
            assert [x for x, _ in series] == [0.0, 30.0]
    for label, series in fig7.series.items():
        for _, rate in series:
            assert 0.0 <= rate <= 100.0


def test_fig8_density_labels(runner):
    fig = figure(
        "fig8", scale=SCALE, seed=3, densities=(50, 100),
        protocols=("grid", "ecgrid"), runner=runner,
    )
    assert len(fig.series) == 4
    assert any("grid-n" in label for label in fig.series)


def test_ablation_hello(runner):
    fig = figure("ablation-hello", periods=(2.0, 8.0), scale=SCALE, seed=3,
                 runner=runner)
    assert len(fig.series["aen_end"]) == 2
    hello_counts = dict(fig.series["hello_sent"])
    # Faster HELLO cadence sends more beacons.
    assert hello_counts[2.0] > hello_counts[8.0]


def test_ablation_loadbalance(runner):
    fig = figure("ablation-loadbalance", scale=SCALE, seed=3, runner=runner)
    assert set(fig.series) == {"first_death_s", "alive_end", "aen_end"}
    assert dict(fig.series["first_death_s"]).keys() == {0.0, 1.0}


def test_ablation_gridsize(runner):
    fig = figure("ablation-gridsize", sides=(80.0, 100.0), scale=SCALE,
                 seed=3, runner=runner)
    assert len(fig.series["alive_end"]) == 2


def test_gateway_tenure_figure():
    fig = figure(
        "gateway_tenure", scale=0.06, seed=3,
        protocols=("ecgrid",), qs=(50.0, 90.0),
    )
    assert fig.figure_id == "gateway-tenure"
    assert "ecgrid:tenure_s" in fig.series
    tenures = dict(fig.series["ecgrid:tenure_s"])
    assert set(tenures) == {50.0, 90.0}
    assert all(v >= 0.0 for v in tenures.values())
    assert tenures[90.0] >= tenures[50.0]
    for label, series in fig.series.items():
        assert [x for x, _ in series] == sorted(x for x, _ in series)


def test_gateway_tenure_rejects_adaptive_replication():
    # Its runs are traced outside the sweep engine, so no scheduler can
    # allocate their seeds; asking for one must fail before simulating
    # rather than trace every seed of the max_seeds pool.
    tiny = dict(scale=0.06, seed=3, protocols=("ecgrid",), qs=(50.0,))
    with pytest.raises(ValueError, match="gateway-tenure"):
        figure("gateway-tenure", target_ci=0.5, max_seeds=4, **tiny)
    engine = AdaptiveRunner(ReplicationPolicy(target_ci=0.5, max_seeds=4))
    with pytest.raises(ValueError, match="gateway-tenure"):
        figure("gateway_tenure", runner=engine, **tiny)
    assert engine.reports == []
