"""The sweep engine: spec expansion, the result cache, parallel
execution equality, and the figure registry built on top of them.

Simulation-heavy tests run tiny scenarios (8 hosts, 20 s) so the whole
module stays inside the tier-1 time budget.
"""

import json
import time

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.export import (
    RESULT_SCHEMA,
    figure_to_json,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.figures import FIGURES, figure
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import (
    SweepError,
    SweepRunner,
    SweepSpec,
    resolve_config,
)

TINY = dict(
    n_hosts=8, width_m=300.0, height_m=300.0, n_flows=2,
    sim_time_s=20.0, initial_energy_j=50.0,
)


def tiny_config(**kw) -> ExperimentConfig:
    return ExperimentConfig(**{**TINY, **kw})


def metrics(result) -> dict:
    """Everything a run produced except wall clock."""
    d = result_to_dict(result)
    d.pop("wall_time_s")
    return d


# ----------------------------------------------------------------------
# SweepSpec expansion
# ----------------------------------------------------------------------
def test_expansion_is_cartesian_in_order():
    spec = SweepSpec(
        "t", axes={"protocol": ["grid", "ecgrid"], "seed": [1, 2, 3]}
    )
    points = spec.expand()
    assert len(spec) == len(points) == 6
    assert [p.index for p in points] == list(range(6))
    # Last axis fastest.
    assert [(p.axes["protocol"], p.axes["seed"]) for p in points[:3]] == [
        ("grid", 1), ("grid", 2), ("grid", 3)
    ]
    assert points[3].config.protocol == "ecgrid"
    assert points[3].config.seed == 1
    assert points[0].key() == "protocol=grid;seed=1"


def test_axis_aliases_and_dotted_paths():
    spec = SweepSpec(
        "t",
        axes={
            "speed": [5.0],
            "pause": [30.0],
            "hosts": [40],
            "params.hello_period_s": [4.0],
            "gaf.sleep_time_s": [7.5],
        },
    )
    (point,) = spec.expand()
    cfg = point.config
    assert cfg.max_speed_mps == 5.0
    assert cfg.pause_time_s == 30.0
    assert cfg.n_hosts == 40
    assert cfg.params.hello_period_s == 4.0
    assert cfg.gaf.sleep_time_s == 7.5


def test_scale_applies_after_overrides():
    spec = SweepSpec("t", axes={"hosts": [50]}, scale=0.2)
    (point,) = spec.expand()
    # 50 paper-scale hosts shrunk by the same rule as ExperimentConfig.scaled.
    assert point.config.n_hosts == ExperimentConfig(n_hosts=50).scaled(0.2).n_hosts


def test_unknown_axis_rejected():
    with pytest.raises(ValueError, match="unknown sweep axis"):
        SweepSpec("t", axes={"bogus_field": [1]}).expand()


def test_resolve_config_scale_pseudo_axis():
    cfg = resolve_config(ExperimentConfig(), {"scale": 0.25})
    assert cfg.sim_time_s == 2000.0 * 0.25


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_result():
    return run_experiment(tiny_config(protocol="grid", seed=6))


def test_cache_roundtrip_hit(tmp_path, tiny_result):
    cache = ResultCache(tmp_path)
    cfg = tiny_result.config
    assert cache.get(cfg) is None
    cache.put(cfg, tiny_result)
    assert len(cache) == 1
    loaded = cache.get(cfg)
    assert loaded is not None
    assert metrics(loaded) == metrics(tiny_result)
    # wall_time_s is preserved verbatim, not re-measured on load.
    assert loaded.wall_time_s == tiny_result.wall_time_s
    assert (cache.hits, cache.misses) == (1, 1)


def test_cache_misses_on_any_config_change(tmp_path, tiny_result):
    cache = ResultCache(tmp_path)
    cache.put(tiny_result.config, tiny_result)
    from dataclasses import replace

    changed = [
        replace(tiny_result.config, seed=7),
        replace(tiny_result.config, n_hosts=9),
        resolve_config(tiny_result.config, {"params.hello_period_s": 3.0}),
    ]
    for cfg in changed:
        assert cfg.cache_key() != tiny_result.config.cache_key()
        assert cache.get(cfg) is None


def test_cache_rejects_stale_schema_and_garbage(tmp_path, tiny_result):
    cache = ResultCache(tmp_path)
    cfg = tiny_result.config
    path = cache.put(cfg, tiny_result)
    data = json.loads(path.read_text())
    data["schema"] = RESULT_SCHEMA + 1
    path.write_text(json.dumps(data))
    assert cache.get(cfg) is None
    path.write_text("{ not json")
    assert cache.get(cfg) is None


def test_result_dict_roundtrip_through_json(tiny_result):
    wire = json.dumps(result_to_dict(tiny_result), default=str)
    restored = result_from_dict(json.loads(wire))
    assert result_to_dict(restored) == result_to_dict(tiny_result)


# ----------------------------------------------------------------------
# Runner: serial, parallel, cache integration, retry, wall time
# ----------------------------------------------------------------------
def tiny_spec(seeds=(6, 7)) -> SweepSpec:
    return SweepSpec(
        "tiny",
        base=tiny_config(protocol="grid"),
        axes={"seed": list(seeds)},
    )


def test_parallel_smoke_and_serial_equality():
    """Tier-1 smoke: a 2-point sweep on 2 workers matches serial runs."""
    spec = tiny_spec()
    serial = SweepRunner(workers=0).run(spec)
    parallel = SweepRunner(workers=2).run(spec)
    assert serial.executed == parallel.executed == 2
    assert [metrics(r) for r in serial.results] == \
           [metrics(r) for r in parallel.results]
    # Simulation wall time was measured inside the worker processes.
    for r in parallel.results:
        assert r.wall_time_s > 0.0


def test_cache_short_circuits_second_run(tmp_path):
    spec = tiny_spec()
    cold = SweepRunner(workers=0, cache=ResultCache(tmp_path)).run(spec)
    assert (cold.executed, cold.cached) == (2, 0)
    warm = SweepRunner(workers=0, cache=ResultCache(tmp_path)).run(spec)
    assert (warm.executed, warm.cached) == (0, 2)
    assert [metrics(r) for r in cold.results] == \
           [metrics(r) for r in warm.results]
    # Adding a point only simulates the new point.
    grown = SweepRunner(workers=0, cache=ResultCache(tmp_path)).run(
        tiny_spec(seeds=(6, 7, 8))
    )
    assert (grown.executed, grown.cached) == (1, 2)


def test_progress_callback_in_grid_order(tmp_path):
    seen = []
    runner = SweepRunner(
        workers=0,
        cache=ResultCache(tmp_path),
        progress=lambda done, total, o: seen.append(
            (done, total, o.point.axes["seed"], o.cached)
        ),
    )
    runner.run(tiny_spec())
    assert seen == [(1, 2, 6, False), (2, 2, 7, False)]
    seen.clear()
    runner.run(tiny_spec())
    assert seen == [(1, 2, 6, True), (2, 2, 7, True)]


def test_failing_point_raises_sweep_error_after_retry():
    spec = SweepSpec(
        "bad", base=tiny_config(protocol="grid"), axes={"n_flows": [-1]}
    )
    with pytest.raises(SweepError, match="failed after retry"):
        SweepRunner(workers=0).run(spec)


def test_timeout_retries_inline():
    """An (instantly) timed-out worker falls back to one inline retry."""
    spec = tiny_spec(seeds=(6,))
    run = SweepRunner(workers=1, timeout_s=1e-6).run(spec)
    assert run.retried == 1
    assert metrics(run.results[0]) == \
           metrics(SweepRunner(workers=0).run(spec).results[0])


def test_wall_time_excludes_cache_overhead(tmp_path):
    """wall_time_s is the simulation alone: a cache whose store path
    sleeps must not inflate it."""

    class SlowCache(ResultCache):
        def put(self, config, result):
            time.sleep(0.5)
            return super().put(config, result)

    run = SweepRunner(workers=0, cache=SlowCache(tmp_path)).run(
        SweepSpec("t", base=tiny_config(protocol="grid", sim_time_s=10.0),
                  axes={"seed": [6]})
    )
    (outcome,) = run.outcomes
    assert outcome.result.wall_time_s < 0.4
    # The parent-side elapsed time does see the overhead.
    assert outcome.elapsed_s >= 0.5


# ----------------------------------------------------------------------
# figure(): the registry entry point
# ----------------------------------------------------------------------
def test_figure_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown figure"):
        figure("fig99")


def test_registry_covers_paper_and_ablations():
    assert set(FIGURES) == {
        "fig4", "fig5", "fig6", "fig7", "fig8",
        "ablation-hello", "ablation-loadbalance",
        "ablation-search", "ablation-gridsize",
        "resilience", "gateway-tenure", "election-faceoff",
    }


@pytest.fixture(scope="module")
def fig4_two_seeds():
    return figure(
        "fig4", scale=0.08, seed=3, seeds=2, protocols=("grid", "ecgrid")
    )


def test_figure_multi_seed_aggregation(fig4_two_seeds):
    fig = fig4_two_seeds
    assert fig.seeds == [3, 4]
    assert "mean of 2 seeds" in fig.title
    assert set(fig.series) == {"grid", "ecgrid"}
    for label in fig.series:
        # Mean, band, and raw curves share the x grid.
        xs = [x for x, _ in fig.series[label]]
        assert [x for x, _ in fig.bands[label]] == xs
        assert len(fig.raw[label]) == 2
        # The mean really is the pointwise mean of the raw curves.
        for i, (x, y) in enumerate(fig.series[label]):
            y0 = fig.raw[label][0][i][1]
            y1 = fig.raw[label][1][i][1]
            assert y == pytest.approx((y0 + y1) / 2)
        assert all(sd >= 0.0 for _, sd in fig.bands[label])
    assert len(fig.results) == 4  # 2 protocols x 2 seeds


def test_figure_json_identical_serial_vs_parallel(fig4_two_seeds):
    parallel = figure(
        "fig4", scale=0.08, seed=3, seeds=2, protocols=("grid", "ecgrid"),
        runner=SweepRunner(workers=2),
    )
    assert figure_to_json(parallel) == figure_to_json(fig4_two_seeds)

