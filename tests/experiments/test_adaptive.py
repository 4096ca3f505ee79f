"""Adaptive replication: policy, scheduler, CRN pairing, determinism."""

import json
from dataclasses import asdict

import pytest

from repro.experiments.adaptive import (
    DEFAULT_GATE_SCALARS,
    AdaptiveRunner,
    PrecisionReport,
    ReplicationPolicy,
    adaptive_sweep,
)
from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import SweepRunner, SweepSpec
from repro.records import decode

TINY = dict(
    n_hosts=8, width_m=300.0, height_m=300.0, n_flows=2,
    sim_time_s=20.0, initial_energy_j=60.0,
)


def tiny_spec(seeds=(1,), protocols=("grid", "ecgrid")):
    return SweepSpec(
        name="tiny",
        base=ExperimentConfig(**TINY),
        axes={"protocol": list(protocols), "seed": list(seeds)},
    )


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
def test_policy_look_schedule():
    p = ReplicationPolicy(target_ci=0.1, min_seeds=3, max_seeds=8, batch=2)
    assert p.look_sizes() == [3, 5, 7, 8]
    assert p.looks() == 4
    # Bonferroni spending: each look uses alpha / looks.
    assert p.look_quantile() == pytest.approx(1.0 - 0.05 / 4 / 2)


def test_policy_fixed_design_is_single_look():
    p = ReplicationPolicy(target_ci=0.0, min_seeds=5, max_seeds=5, batch=1)
    assert p.look_sizes() == [5]
    assert p.look_quantile() == pytest.approx(0.975)


def test_policy_validation():
    with pytest.raises(ValueError):
        ReplicationPolicy(target_ci=-0.1)
    with pytest.raises(ValueError):
        ReplicationPolicy(target_ci=0.1, min_seeds=1)
    with pytest.raises(ValueError):
        ReplicationPolicy(target_ci=0.1, min_seeds=4, max_seeds=3)
    with pytest.raises(ValueError):
        ReplicationPolicy(target_ci=0.1, batch=0)
    with pytest.raises(ValueError):
        ReplicationPolicy(target_ci=0.1, confidence=1.0)
    with pytest.raises(ValueError):
        ReplicationPolicy(target_ci=0.1, gate_scalars=("no_such",))
    with pytest.raises(ValueError):
        ReplicationPolicy(target_ci=0.1, gate_scalars=())


def test_policy_roundtrip():
    p = ReplicationPolicy(
        target_ci=0.07, min_seeds=4, max_seeds=9, batch=3,
        confidence=0.9, gate_scalars=("aen_end",),
    )
    assert decode(ReplicationPolicy, json.loads(json.dumps(asdict(p)))) == p
    with pytest.raises(ValueError):
        decode(ReplicationPolicy, {"target_ci": 0.1, "bogus": 1})
    with pytest.raises(ValueError):
        decode(ReplicationPolicy, {"max_seeds": 4})


# ----------------------------------------------------------------------
# Scheduler behaviour
# ----------------------------------------------------------------------
def test_loose_target_stops_at_pilot():
    policy = ReplicationPolicy(target_ci=1e9, min_seeds=2, max_seeds=8)
    run, report = adaptive_sweep(tiny_spec(), policy)
    assert report.all_met
    assert report.looks == 1
    assert report.total_runs == 4  # 2 arms x pilot of 2
    assert all(a["seeds"] == [1, 2] for a in report.arms)
    assert run.precision is report


def test_impossible_target_caps_every_arm():
    policy = ReplicationPolicy(target_ci=0.0, min_seeds=2, max_seeds=4,
                               batch=1)
    run, report = adaptive_sweep(tiny_spec(), policy)
    assert not report.all_met
    assert all(a["capped"] and not a["met"] for a in report.arms)
    assert report.total_runs == 8  # both arms driven to the cap
    assert report.looks == 3  # 2, 3, 4


def test_seed_pool_is_a_shared_prefix():
    # CRN: arms allocate from one pool, so any two arms share their
    # first min(n_a, n_b) seeds; pool extends past the given axis.
    policy = ReplicationPolicy(target_ci=0.0, min_seeds=2, max_seeds=5,
                               batch=2)
    _, report = adaptive_sweep(tiny_spec(seeds=(7,)), policy)
    for arm in report.arms:
        assert arm["seeds"] == [7, 8, 9, 10, 11]


def test_outcomes_arm_major_and_reindexed():
    policy = ReplicationPolicy(target_ci=1e9, min_seeds=2, max_seeds=4)
    run, _ = adaptive_sweep(tiny_spec(), policy)
    assert [o.point.index for o in run.outcomes] == list(range(4))
    coords = [
        (o.point.axes["protocol"], o.point.axes["seed"])
        for o in run.outcomes
    ]
    assert coords == [
        ("grid", 1), ("grid", 2), ("ecgrid", 1), ("ecgrid", 2),
    ]
    # Each outcome really ran its coordinates.
    for o in run.outcomes:
        assert o.result.config.seed == o.point.axes["seed"]
        assert o.result.config.protocol == o.point.axes["protocol"]


def test_round_hook_streams_allocation():
    rounds = []
    policy = ReplicationPolicy(target_ci=0.0, min_seeds=2, max_seeds=3,
                               batch=1)
    engine = AdaptiveRunner(policy, SweepRunner(workers=0),
                            on_round=rounds.append)
    engine.run(tiny_spec())
    assert [r["look"] for r in rounds] == [1, 2]
    assert rounds[0]["seeds"] == {"protocol=grid": 2, "protocol=ecgrid": 2}
    assert rounds[-1]["capped"] == ["protocol=grid", "protocol=ecgrid"]


def test_crn_deltas_pair_protocol_arms():
    policy = ReplicationPolicy(target_ci=1e9, min_seeds=3, max_seeds=4)
    _, report = adaptive_sweep(
        tiny_spec(protocols=("grid", "ecgrid", "gaf")), policy
    )
    pairs = {tuple(d["arms"]) for d in report.deltas}
    assert pairs == {
        ("protocol=grid", "protocol=ecgrid"),
        ("protocol=grid", "protocol=gaf"),
        ("protocol=ecgrid", "protocol=gaf"),
    }
    for delta in report.deltas:
        assert delta["pairs"] == 3
        assert set(delta["scalars"]) == set(DEFAULT_GATE_SCALARS)
        for s in delta["scalars"].values():
            assert s["halfwidth"] >= 0.0


def test_spec_without_seed_axis_passes_through():
    spec = SweepSpec(
        name="noseed",
        base=ExperimentConfig(**TINY),
        axes={"protocol": ["grid"]},
    )
    engine = AdaptiveRunner(ReplicationPolicy(target_ci=0.1))
    run = engine.run(spec)
    assert engine.last_report is None
    assert run.precision is None
    assert len(run.outcomes) == 1
    with pytest.raises(ValueError, match="no 'seed' axis"):
        adaptive_sweep(spec, ReplicationPolicy(target_ci=0.1))


def test_merged_report_prefixes_keys_and_needs_every_arm_met():
    _, met = adaptive_sweep(
        tiny_spec(), ReplicationPolicy(target_ci=1e9, min_seeds=2, max_seeds=3)
    )
    _, capped = adaptive_sweep(
        tiny_spec(), ReplicationPolicy(target_ci=0.0, min_seeds=2, max_seeds=3)
    )
    assert met.all_met and not capped.all_met
    merged = PrecisionReport.merge([("a", met), ("b", capped)])
    assert [arm["key"] for arm in merged.arms] == [
        "a;protocol=grid", "a;protocol=ecgrid",
        "b;protocol=grid", "b;protocol=ecgrid",
    ]
    assert merged.deltas[1]["arms"] == ["b;protocol=grid", "b;protocol=ecgrid"]
    assert merged.total_runs == met.total_runs + capped.total_runs
    assert merged.looks == max(met.looks, capped.looks)
    assert not merged.all_met
    assert PrecisionReport.merge([("a", met)]).all_met


def test_report_roundtrip_and_summary():
    policy = ReplicationPolicy(target_ci=1e9, min_seeds=2, max_seeds=4)
    _, report = adaptive_sweep(tiny_spec(), policy)
    assert report.executed == 4 and report.cached == 0
    exported = json.loads(json.dumps(report.to_dict()))
    assert decode(ReplicationPolicy, exported["policy"]) == policy
    assert exported["total_runs"] == report.total_runs
    # Cache traffic is not exported.
    assert "executed" not in exported and "cached" not in exported
    text = report.summary()
    assert "protocol=grid" in text and "met" in text
    assert "4 simulated, 0 cached" in text


# ----------------------------------------------------------------------
# Determinism / resume-from-cache (satellite: tier 1 property test)
# ----------------------------------------------------------------------
def test_adaptive_determinism_and_cache_resume(tmp_path):
    # Same target/cap: a warm-cache re-run must allocate the identical
    # seed sequence without simulating anything, and the exported
    # envelope must be byte-identical to the cold run's.
    from repro.serve.protocol import sweep_envelope

    policy = ReplicationPolicy(target_ci=0.05, min_seeds=2, max_seeds=5,
                               batch=2)
    spec = tiny_spec(protocols=("grid", "ecgrid", "gaf"))

    def execute():
        runner = SweepRunner(workers=0, cache=ResultCache(str(tmp_path)))
        engine = AdaptiveRunner(policy, runner)
        run = engine.run(spec)
        return run, engine.last_report

    cold_run, cold = execute()
    warm_run, warm = execute()
    assert cold.executed == cold.total_runs and cold.cached == 0
    assert warm.executed == 0 and warm.cached == warm.total_runs
    assert [a["seeds"] for a in cold.arms] == [
        a["seeds"] for a in warm.arms
    ]
    cold_bytes = json.dumps(sweep_envelope(cold_run), sort_keys=True)
    warm_bytes = json.dumps(sweep_envelope(warm_run), sort_keys=True)
    # The envelope's own executed/cached counters are runtime
    # accounting; everything else — including the precision report —
    # must match byte for byte.
    cold_env = json.loads(cold_bytes)
    warm_env = json.loads(warm_bytes)
    for env in (cold_env, warm_env):
        env.pop("executed"), env.pop("cached")
        for outcome in env["outcomes"]:
            outcome.pop("cached")
    assert json.dumps(cold_env, sort_keys=True) == json.dumps(
        warm_env, sort_keys=True
    )
    assert cold_env["precision"] == warm_env["precision"]


def test_adaptive_figure_export_byte_identical_on_rerun(tmp_path):
    # figure() under target_ci: cold and warm runs export identical
    # bytes (the precision dict is a pure function of the grid).
    from repro.experiments.export import figure_to_json
    from repro.experiments.figures import figure

    def make():
        runner = SweepRunner(workers=0, cache=ResultCache(str(tmp_path)))
        return figure(
            "fig4", speed=1.0, scale=0.08, seed=1,
            target_ci=1e9, max_seeds=4, min_seeds=2, runner=runner,
        )

    cold = figure_to_json(make())
    warm = figure_to_json(make())
    assert cold == warm
    record = json.loads(cold)
    assert record["precision"]["policy"]["target_ci"] == 1e9
    assert record["seeds"] == [1, 2]
    assert set(record["ci"]) == set(record["series"])
