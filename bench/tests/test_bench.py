"""Checks of the benchmark's own machinery, on toy inputs.

Run from the repository root with ``PYTHONPATH=src python -m pytest
bench/tests -q``; it is not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import repro.api as api  # noqa: E402
from repro.api import ExperimentConfig, SweepRunner, result_to_dict  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from layers import Layers, boundary_methods, layer_metrics  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TOY = ExperimentConfig(protocol="ecgrid", n_hosts=8, width_m=300.0, height_m=300.0,
                       n_flows=2, sim_time_s=40.0, initial_energy_j=50.0)


def traced_snapshot():
    layers = Layers()
    with layers:
        result = api.run_experiment(TOY)
    return layers, result


def test_metric_names_are_declared_and_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


def test_outputs_carry_exactly_the_declared_metrics():
    layers, _ = traced_snapshot()
    produced = set(layer_metrics(layers.snapshot()))
    produced |= set(run.serve_layer_shares(
        [{"latency_s": 1.0, "submit_s": 0.1, "queue_s": 0.1, "run_s": 0.5, "fetch_s": 0.1,
          "deduped": False, "cache_hit": True}], [{"failed": 0}]))
    produced |= set(workloads.SWEEP_EXTRAS) | {"bench.trace_overhead_frac"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}

    child = {"spawn": 0.0, "killed": False, "records": [
        {"type": "setup", "t": 0.5},
        *({"type": "op", "ok": True, "kind": "hit" if i % 2 else "miss", "latency_s": 0.1 * i,
           "runs_s": [] if i % 2 else [0.09 * i], "arrived": 0.5 + i} for i in range(1, 31)),
        {"type": "done", "peak_rss_mb": 50.0},
    ]}
    metrics = run.end_to_end([child])
    assert set(metrics) >= {m["name"] for m in SPEC["end_to_end"]}
    assert all(metrics[m["name"]] > 0 for m in SPEC["end_to_end"])

    for trace in (False, True):
        result = {"trace": trace, "correct": True, "attempted": 1, "failed": 0,
                  "metrics": {m["name"]: 1.0 for m in SPEC["end_to_end"] + SPEC["per_layer"]}}
        line = run.result_line(result, SPEC)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert list(line["metrics"]) == [m["name"] for m in declared]


def test_wrappers_restore_every_attribute():
    runner = api.run_experiment.__globals__

    def state():
        methods = {n: vars(c)[m] for n, (c, m) in boundary_methods().items()}
        return (methods, runner["build_network"], runner["result_from_network"],
                vars(api)["run_experiment"], SweepRunner.run_points.__globals__["run_experiment"])

    before = state()
    with Layers():
        assert state() != before
    assert state() == before


def test_traced_and_untraced_digests_are_equal():
    plain = result_to_dict(api.run_experiment(TOY))
    layers, traced = traced_snapshot()
    assert workloads.digest(result_to_dict(traced)) == workloads.digest(plain)
    assert traced.events_executed == plain["events_executed"]
    metrics = layer_metrics(layers.snapshot())
    assert metrics["des.events"] == plain["events_executed"]
    assert metrics["phy.frames_sent"] == plain["medium"]["frames_sent"]
    assert metrics["run.count"] == 1


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert run.percentile(values, 50) == 5
    assert run.percentile(values, 51) == 6
    assert run.percentile(values, 100) == 10
    assert run.percentile([3.0], 1) == 3.0


@pytest.mark.parametrize("n, expected", [
    (10, None),
    (19, None),
    (20, (50.0, 10)),
    (100, (90.0, 90)),
    (1000, (99.0, 990)),
])
def test_tail_keeps_ten_samples_beyond(n, expected):
    values = list(range(n, 0, -1))
    assert run.tail(values) == expected
    if expected is not None:
        assert sum(v > expected[1] for v in values) == 10


@pytest.mark.parametrize("hit_share, dup_share", [
    (workloads.SERVE_HIT_SHARE, workloads.DUP_SHARE),
    (0.0, 0.0),
])
def test_job_plan_is_deterministic(hit_share, dup_share):
    def plan_of(seed, repeat):
        return workloads.job_plan(seed, repeat, hit_share, dup_share)

    plan = plan_of(7, 1)
    assert plan == plan_of(7, 1)
    assert plan != plan_of(8, 1)
    assert plan[0] == plan_of(7, 2)[0]
    other = {e["input"] for e in plan_of(7, 2)[1:] if "input" in e}
    assert not other & {e["input"] for e in plan if "input" in e}
    # Every block after entry 0 holds exactly the configured shares.
    size = workloads.BLOCK
    for start in range(1, len(plan) - size + 1, size):
        kinds = [e["kind"] for e in plan[start:start + size]]
        assert kinds.count("hit") == round(size * hit_share)
        assert kinds.count("dup") == round(size * dup_share)
    for i, entry in enumerate(plan):
        if entry["kind"] == "hit":
            assert entry["ref"] < i and plan[entry["ref"]]["kind"] != "hit"
    configs = [workloads.serve_config(7, e) for e in plan if "input" in e]
    assert configs == [workloads.serve_config(7, e) for e in plan_of(7, 1) if "input" in e]
    assert configs[0] == workloads.serve_config(7, plan_of(7, 2)[0])
