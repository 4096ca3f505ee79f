"""Partition-quality evaluator: the score math on synthetic streams."""

import math

from repro.metrics.partition import (
    PartitionReport,
    coefficient_of_variation,
    gini,
    partition_quality,
)
from repro.obs.trace import TraceEvent

_seq = iter(range(10_000))


def ev(name, t, node=None, **fields):
    category = name.split(".", 1)[0]
    return TraceEvent(next(_seq), t, name, category, node, fields)


# ----------------------------------------------------------------------
# Dispersion statistics
# ----------------------------------------------------------------------
def test_cv_degenerate_inputs():
    assert coefficient_of_variation([]) == 0.0
    assert coefficient_of_variation([0.0, 0.0]) == 0.0
    assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0


def test_cv_known_value():
    # mean 3, population variance ((2)^2 + 0 + (2)^2)/3 = 8/3.
    got = coefficient_of_variation([1.0, 3.0, 5.0])
    assert math.isclose(got, math.sqrt(8.0 / 3.0) / 3.0)


def test_gini_degenerate_inputs():
    assert gini([]) == 0.0
    assert gini([0.0, 0.0]) == 0.0
    assert gini([4.0, 4.0, 4.0]) == 0.0


def test_gini_extremes_and_known_value():
    # One host holds everything: (n-1)/n for n samples.
    assert math.isclose(gini([0.0, 0.0, 0.0, 12.0]), 0.75)
    # Textbook case: shares 1..4 -> G = 0.25.
    assert math.isclose(gini([1.0, 2.0, 3.0, 4.0]), 0.25)


def test_gini_is_scale_invariant():
    base = [1.0, 2.0, 7.0]
    assert math.isclose(gini(base), gini([10 * v for v in base]))


# ----------------------------------------------------------------------
# partition_quality on synthetic tenure histories
# ----------------------------------------------------------------------
def test_single_full_horizon_gateway():
    events = [ev("gateway.elect", 0.0, node=1, cell=(0, 0))]
    rep = partition_quality(events, horizon=100.0)
    assert rep.n_tenures == 1
    assert rep.n_gateways == 1
    assert rep.covered_cells == 1
    assert rep.load_cv == 0.0
    assert rep.load_gini == 0.0
    assert rep.churn_per_100s == 1.0  # 1 tenure / 1 cell / 100 s * 100
    assert rep.gap_fraction == 0.0
    assert rep.gap_count == 0
    assert rep.max_gap_s == 0.0


def test_handoffs_and_gaps_are_scored():
    # Cell (0,0): node 1 serves [0,40], node 2 serves [50,100] -> one
    # 10 s gap, two tenures, even 40/50 split is slightly unfair.
    events = [
        ev("gateway.elect", 0.0, node=1, cell=(0, 0)),
        ev("gateway.demote", 40.0, node=1, cell=(0, 0)),
        ev("gateway.elect", 50.0, node=2, cell=(0, 0)),
    ]
    rep = partition_quality(events, horizon=100.0)
    assert rep.n_tenures == 2
    assert rep.n_gateways == 2
    assert rep.covered_cells == 1
    assert rep.churn_per_100s == 2.0
    assert math.isclose(rep.gap_fraction, 0.10)
    assert rep.gap_count == 1
    assert math.isclose(rep.mean_gap_s, 10.0)
    assert math.isclose(rep.max_gap_s, 10.0)
    assert rep.load_cv > 0.0
    assert rep.load_gini > 0.0


def test_fault_stream_is_merged_by_time():
    """Category streams arrive concatenated (gateway first, fault
    second); the evaluator must still close the crashed gateway's
    tenure at the crash instant."""
    gateway_stream = [
        ev("gateway.elect", 10.0, node=5, cell=(1, 1)),
        ev("gateway.elect", 60.0, node=6, cell=(1, 1)),
    ]
    fault_stream = [ev("fault.crash", 30.0, node=5, applied=True)]
    rep = partition_quality(gateway_stream + fault_stream, horizon=100.0)
    assert rep.n_tenures == 2
    # Gaps: [0,10] before the first election, [30,60] after the crash.
    assert rep.gap_count == 2
    assert math.isclose(rep.max_gap_s, 30.0)
    assert math.isclose(rep.gap_fraction, 0.40)


def test_explicit_cells_widen_the_baseline():
    events = [ev("gateway.elect", 0.0, node=1, cell=(0, 0))]
    rep = partition_quality(
        events, horizon=50.0, cells=[(0, 0), (2, 2)]
    )
    assert rep.covered_cells == 2
    # (2,2) is one full-horizon gap out of 2 cells * 50 s.
    assert math.isclose(rep.gap_fraction, 0.5)
    assert math.isclose(rep.max_gap_s, 50.0)


def test_empty_stream_scores_zero():
    rep = partition_quality([], horizon=100.0)
    assert rep == PartitionReport(
        n_tenures=0, n_gateways=0, load_cv=0.0, load_gini=0.0,
        churn_per_100s=0.0, gap_fraction=0.0, gap_count=0,
        mean_gap_s=0.0, max_gap_s=0.0, covered_cells=0,
    )


def test_to_dict_is_flat_floats():
    rep = partition_quality(
        [ev("gateway.elect", 0.0, node=1, cell=(0, 0))], horizon=10.0
    )
    d = rep.to_dict()
    # One 10 s tenure and no gap: only the tenure percentiles appear.
    assert set(d) == {
        "n_tenures", "n_gateways", "load_cv", "load_gini",
        "churn_per_100s", "gap_fraction", "gap_count", "mean_gap_s",
        "max_gap_s", "covered_cells",
        "tenure_p10_s", "tenure_p25_s", "tenure_p50_s", "tenure_p75_s",
        "tenure_p90_s",
    }
    assert d["tenure_p50_s"] == 10.0
    assert all(isinstance(v, float) for v in d.values())


def test_length_distributions_are_nearest_rank_percentiles():
    # Tenures 40 and 50 s and one 10 s gap in cell (0, 0).
    events = [
        ev("gateway.elect", 0.0, node=1, cell=(0, 0)),
        ev("gateway.demote", 40.0, node=1, cell=(0, 0)),
        ev("gateway.elect", 50.0, node=2, cell=(0, 0)),
    ]
    d = partition_quality(events, horizon=100.0).to_dict()
    assert [d[f"tenure_p{q}_s"] for q in (10, 25, 50, 75, 90)] == [
        40.0, 40.0, 40.0, 50.0, 50.0,
    ]
    assert [d[f"gap_p{q}_s"] for q in (10, 25, 50, 75, 90)] == [10.0] * 5


def test_scores_do_not_depend_on_the_callers_tracer(tmp_path):
    """A tracer recording other categories (or evicting early
    elections) must not change the scores, nor the cached record that
    later untraced runs are answered from."""
    from repro.api import ExperimentConfig, ResultCache, run
    from repro.obs import Tracer

    cfg = ExperimentConfig(
        seed=3, evaluate_partition=True, n_hosts=8, sim_time_s=40.0,
        width_m=300.0, height_m=300.0, n_flows=2, sample_interval_s=5.0,
    )
    plain = run(cfg).partition
    assert plain["n_tenures"] >= 1
    cache = ResultCache(str(tmp_path))
    paged = run(cfg, cache=cache, tracer=Tracer(categories=("page",)))
    assert paged.partition == plain
    assert run(cfg, tracer=Tracer(ring=1)).partition == plain
    cached = run(cfg, cache=cache)
    assert cache.hits == 1
    assert cached.partition == plain
