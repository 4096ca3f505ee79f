"""Election faceoff figure, the config axis behind it, and the
partition scores' ride through export/cache/serve identity."""

import json

from repro.experiments.config import ExperimentConfig
from repro.experiments.export import (
    figure_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.figures import ELECTION_COMPARED, figure
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import resolve_config
from repro.protocols.base import ProtocolParams

import pytest

TINY = dict(
    n_hosts=8, sim_time_s=40.0, width_m=300.0, height_m=300.0,
    n_flows=2, sample_interval_s=5.0,
)


# ----------------------------------------------------------------------
# The config axis: cache identity, validation, sweep alias
# ----------------------------------------------------------------------
def test_policy_keys_the_result_cache():
    """Distinct policies (and scored vs unscored runs) must never alias
    in the result cache — or in the serve path's work identity, which
    hashes the same ``cache_key()``."""
    keys = {
        ExperimentConfig(
            params=ProtocolParams(election_policy=name)
        ).cache_key()
        for name in ELECTION_COMPARED
    }
    assert len(keys) == len(ELECTION_COMPARED)
    assert (
        ExperimentConfig(evaluate_partition=True).cache_key()
        != ExperimentConfig().cache_key()
    )


def test_validate_rejects_unknown_policy():
    cfg = ExperimentConfig(
        params=ProtocolParams(election_policy="round-robin")
    )
    with pytest.raises(ValueError, match="election policy"):
        cfg.validate()


def test_sweep_alias_election():
    cfg = resolve_config(ExperimentConfig(), {"election": "dwell"})
    assert cfg.params.election_policy == "dwell"


# ----------------------------------------------------------------------
# evaluate_partition: scores ride the result record
# ----------------------------------------------------------------------
def test_scored_run_roundtrips_through_export():
    cfg = ExperimentConfig(seed=3, evaluate_partition=True, **TINY)
    result = run_experiment(cfg)
    assert result.partition, "scored run produced no partition scores"
    assert result.partition["n_tenures"] >= 1
    record = result_to_dict(result)
    assert record["partition"] == result.partition
    back = result_from_dict(json.loads(json.dumps(record, default=str)))
    assert back.partition == result.partition


def test_unscored_record_has_no_partition_key():
    cfg = ExperimentConfig(seed=3, **TINY)
    result = run_experiment(cfg)
    assert result.partition == {}
    assert "partition" not in result_to_dict(result)


def test_attached_tracer_still_wins_over_private_one():
    """A caller's tracer is used for scoring rather than replaced."""
    from repro.obs import Tracer

    tracer = Tracer(categories=("gateway",))
    cfg = ExperimentConfig(seed=3, evaluate_partition=True, **TINY)
    result = run_experiment(cfg, tracer=tracer)
    assert result.partition
    assert sum(tracer.counts().values()) > 0


# ----------------------------------------------------------------------
# The faceoff figure
# ----------------------------------------------------------------------
def test_election_faceoff_ranks_policies_across_scenarios():
    fig = figure("election-faceoff", speed=1.0, scale=0.06, seed=3)
    assert fig.figure_id == "election-faceoff"

    policies = {label.split(":", 1)[0] for label in fig.series}
    metrics = {label.split(":", 1)[1] for label in fig.series}
    assert policies == set(ELECTION_COMPARED)
    assert len(policies) >= 4
    assert metrics == {
        "load_cv", "load_gini", "churn_per_100s", "gap_fraction",
        "lifetime_frac",
    }
    # Three scenario shapes on the x axis for every series.
    for label, points in fig.series.items():
        assert [x for x, _ in points] == [0.0, 1.0, 2.0], label

    # The versioned export carries the evaluator's scores per arm.
    assert fig.results
    for key, result in fig.results.items():
        assert result.partition, key
    record = figure_to_dict(fig)
    assert record["kind"] == "figure"
    assert set(record["series"]) == set(fig.series)
    json.dumps(record)  # JSON-clean


def test_election_faceoff_narrowed_arms():
    fig = figure(
        "election-faceoff", speed=1.0, scale=0.06, seed=3,
        policies=("paper", "random"),
        scenarios=(("cruise", {}),),
    )
    policies = {label.split(":", 1)[0] for label in fig.series}
    assert policies == {"paper", "random"}
    for points in fig.series.values():
        assert len(points) == 1


def test_scenarios_named_alike_are_refused():
    """Two scenarios with one name would share result keys and
    precision arms; the plan refuses them before anything runs."""
    from repro.experiments.figures import figure_plan

    with pytest.raises(ValueError, match="distinct"):
        figure_plan(
            "election-faceoff", scale=0.06, seeds=[3],
            scenarios=(("a", {}), ("a", {"max_speed_mps": 8.0})),
        )


def test_adaptive_faceoff_report_covers_every_scenario():
    """Each scenario is its own adaptive sweep; the figure's report
    merges them all, not just the last one."""
    fig = figure(
        "election-faceoff", scale=0.06, seed=3, target_ci=0.05,
        min_seeds=2, max_seeds=4, policies=("paper", "grid"),
    )
    report = fig.precision.to_dict()
    assert len(report["arms"]) == 6  # 2 policies x 3 scenarios
    assert report["total_runs"] == len(fig.results) == 22
    assert "(adaptive: 22 runs," in fig.title
    assert {arm["key"].split(";")[0] for arm in report["arms"]} == {
        "scenario=cruise", "scenario=sprint", "scenario=parked",
    }
    assert report["all_met"] == all(arm["met"] for arm in report["arms"])
    assert fig.seeds == sorted(
        {s for arm in report["arms"] for s in arm["seeds"]}
    )
