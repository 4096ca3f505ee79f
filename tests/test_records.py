"""Every record the program reads, checked field by field: a JSON round
trip through ``decode`` returns an equal record, and each top-level
field rejects every JSON type its annotation does not admit."""

import collections.abc
import dataclasses
import json
import typing
from dataclasses import asdict, fields, replace
from typing import Any, Literal, Union

import pytest

from repro.experiments.adaptive import ReplicationPolicy
from repro.experiments.config import ExperimentConfig
from repro.experiments.export import result_from_dict, result_to_dict
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.faults.plan import (
    BatteryDrain,
    MediumLossWindow,
    NodeCrash,
    NodeRecover,
    PageLoss,
    Partition,
    event_from_dict,
    standard_fault_plan,
)
from repro.metrics.timeseries import TimeSeries
from repro.protocols.base import ProtocolParams
from repro.protocols.gaf import GafParams
from repro.records import check, decode
from repro.serve.protocol import (
    ErrorView,
    FigurePayload,
    JobProgress,
    JobView,
    SubmitRequest,
)

#: One value of each JSON type.
SAMPLES = {
    "null": None,
    "bool": True,
    "int": 7,
    "float": 2.5,
    "string": "x",
    "list": [],
    "object": {},
}


def admitted(tp: Any) -> set:
    """The JSON types an annotation admits (the reference the decoder
    is held to)."""
    if tp is Any:
        return set(SAMPLES)
    if tp is type(None):
        return {"null"}
    if tp is bool:
        return {"bool"}
    if tp is int:
        return {"int"}
    if tp is float:
        return {"int", "float"}
    if tp is str or typing.get_origin(tp) is Literal:
        return {"string"}
    origin = typing.get_origin(tp)
    if origin is Union:
        return set().union(*(admitted(a) for a in typing.get_args(tp)))
    if origin in (tuple, list, collections.abc.Sequence) or tp is TimeSeries:
        return {"list"}
    if origin in (dict, collections.abc.Mapping):
        return {"object"}
    if dataclasses.is_dataclass(tp):
        return {"object"}
    raise AssertionError(f"no reference for annotation {tp!r}")


def populated_config() -> ExperimentConfig:
    return ExperimentConfig(
        protocol="gaf",
        width_m=400.0,
        height_m=300.0,
        n_hosts=12,
        n_endpoints=4,
        loss_model="gray_zone",
        seed=5,
        evaluate_partition=True,
        faults=standard_fault_plan(
            0.5, sim_time_s=40.0, width_m=400.0, height_m=300.0,
            n_hosts=12, initial_energy_j=50.0,
        ),
        params=ProtocolParams(
            hello_period_s=1.5, search_policy="global",
            dwell_mode="heuristic", load_balance=False,
            election_policy="dwell",
        ),
        gaf=GafParams(active_time_s=30.0, sleep_time_s=12.0),
    )


EVENTS = (
    NodeCrash(at_s=10.0, node_id=3),
    NodeRecover(at_s=50.0, node_id=3, energy_frac=0.25),
    PageLoss(start_s=5.0, end_s=15.0, drop_prob=0.7),
    MediumLossWindow(start_s=20.0, end_s=30.0, drop_prob=0.4,
                     region=(0.0, 0.0, 500.0, 500.0)),
    Partition(start_s=40.0, end_s=60.0, axis="y", boundary_m=250.0),
    BatteryDrain(at_s=12.0, node_id=7, joules=100.0),
)


@pytest.fixture(scope="module")
def scored_result() -> ExperimentResult:
    cfg = ExperimentConfig(
        n_hosts=10, width_m=300.0, height_m=300.0, n_flows=2,
        sim_time_s=30.0, initial_energy_j=20.0, seed=2,
        evaluate_partition=True,
    )
    cfg.faults = standard_fault_plan(
        0.5, sim_time_s=30.0, width_m=300.0, height_m=300.0, n_hosts=10,
        initial_energy_j=20.0,
    )
    result = run_experiment(cfg)
    assert result.partition and result.recovery
    return result


def cases(result: ExperimentResult):
    """``(cls, record, json_form, read)`` for each record class."""
    records = [
        populated_config(),
        ReplicationPolicy(
            target_ci=0.07, min_seeds=4, max_seeds=9, batch=3,
            confidence=0.9, gate_scalars=("aen_end",),
        ),
        SubmitRequest(
            kind="run", payload={"n_hosts": 10, "seed": 3}, tenant="alice",
            trace=True, trace_filter=("gateway", "page"),
        ),
        FigurePayload(
            name="fig6", speed=2.0, scale=0.1, seed=3, seeds=2,
            axes={"pauses": [0.0, 10.0]},
        ),
        JobView(
            job_id="abc123", kind="sweep", state="failed", tenant="alice",
            created_s=123.5, started_s=124.0, finished_s=130.0,
            progress=JobProgress(done=2, total=8, cached=1),
            cache_hit=True, deduped=True, error="boom",
        ),
        ErrorView(status=429, error="Too Many Requests", detail="quota"),
    ]
    out = [
        (type(r), r, asdict(r), lambda d, cls=type(r): decode(cls, d))
        for r in records
    ]
    out += [(type(ev), ev, asdict(ev), event_from_dict) for ev in EVENTS]
    out.append(
        (ExperimentResult, result, result_to_dict(result), result_from_dict)
    )
    return out


def json_copy(data):
    return json.loads(json.dumps(data))


def test_every_record_round_trips_through_json(scored_result):
    for cls, record, data, read in cases(scored_result):
        back = read(json_copy(data))
        assert type(back) is cls
        if cls is ExperimentResult:  # its time series compare by identity
            assert json_copy(result_to_dict(back)) == json_copy(data)
        else:
            assert back == record, cls.__name__


def test_every_field_rejects_each_json_type_it_does_not_admit(
    scored_result,
):
    probed = 0
    for cls, _, data, read in cases(scored_result):
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            if not f.init:
                continue
            for kind in sorted(set(SAMPLES) - admitted(hints[f.name])):
                bad = {**json_copy(data), f.name: SAMPLES[kind]}
                with pytest.raises(ValueError) as exc:
                    read(bad)
                assert str(exc.value).startswith(f"{f.name}: "), (
                    cls.__name__, f.name, kind,
                )
                probed += 1
    assert probed > 200


def test_closed_choices_reject_other_strings(scored_result):
    for cls, _, data, read in cases(scored_result):
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            if typing.get_origin(hints[f.name]) is Literal:
                with pytest.raises(ValueError, match=f.name):
                    read({**json_copy(data), f.name: "no-such-choice"})
    for nested in ("search_policy", "dwell_mode"):
        with pytest.raises(ValueError, match=f"params.{nested}"):
            decode(ExperimentConfig, {"params": {nested: "Exact"}})


def test_unknown_and_missing_fields_are_errors(scored_result):
    for cls, _, data, read in cases(scored_result):
        with pytest.raises(ValueError, match="bogus: unknown field"):
            read({**json_copy(data), "bogus": 1})
        for f in fields(cls):
            required = (
                f.init
                and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING
            )
            if required:
                partial = {
                    k: v for k, v in json_copy(data).items() if k != f.name
                }
                with pytest.raises(ValueError, match=f.name):
                    read(partial)


def test_nested_errors_name_the_path():
    plan = populated_config().to_dict()["faults"]
    i = next(i for i, e in enumerate(plan["events"]) if "at_s" in e)
    plan["events"][i]["at_s"] = "soon"
    with pytest.raises(ValueError) as exc:
        decode(ExperimentConfig, {"faults": plan})
    assert str(exc.value).startswith(
        f"faults.events[{i}].at_s: expected a number"
    )
    with pytest.raises(ValueError, match=r"gaf\.active_time_s"):
        decode(ExperimentConfig, {"gaf": {"active_time_s": True}})


def test_ints_stay_ints_and_floats_must_be_finite():
    cfg = decode(ExperimentConfig, {"width_m": 500, "n_hosts": 12})
    assert cfg.width_m == 500 and type(cfg.width_m) is int
    assert cfg.to_dict() == ExperimentConfig(width_m=500, n_hosts=12).to_dict()
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="sim_time_s must be finite"):
            decode(ExperimentConfig, {"sim_time_s": bad})


def test_check_reaches_values_set_after_construction():
    cfg = populated_config()
    check(cfg)
    with pytest.raises(ValueError, match="n_hosts"):
        check(replace(cfg, n_hosts="12"))
    with pytest.raises(ValueError, match=r"params\.load_balance"):
        check(replace(cfg, params=replace(cfg.params, load_balance="no")))
    with pytest.raises(ValueError, match=r"faults\.events\[0\]\.axis"):
        check(replace(cfg, faults=replace(
            cfg.faults,
            events=(replace(cfg.faults.events[0], axis="z"),),
        )))
