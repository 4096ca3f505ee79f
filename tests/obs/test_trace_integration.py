"""Tracing threaded through a real scenario: the run is bit-for-bit
unchanged by observation, the streams carry the documented fields, the
JSONL export round-trips, and the auditors stay clean on healthy runs."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs import Tracer, load_jsonl, standard_auditors


def small_config(**overrides):
    base = dict(
        protocol="ecgrid",
        n_hosts=16,
        width_m=400.0,
        height_m=400.0,
        max_speed_mps=2.0,
        n_flows=3,
        sim_time_s=30.0,
        seed=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def digest(result):
    """Every deterministic figure-of-merit of a run."""
    return (
        result.sent, result.delivered, result.dropped,
        result.drop_reasons, result.counters, result.medium,
        result.events_executed, result.mean_latency_s, result.mean_hops,
    )


@pytest.fixture(scope="module")
def traced_run():
    tracer = Tracer()
    auditors = standard_auditors()
    for a in auditors:
        tracer.subscribe(a)
    result = run_experiment(small_config(), tracer=tracer)
    for a in auditors:
        a.finish(t_end=30.0)
    return tracer, auditors, result


def test_tracing_does_not_perturb_the_run(traced_run):
    _, _, traced = traced_run
    untraced = run_experiment(small_config())
    assert digest(traced) == digest(untraced)


def test_the_streams_carry_the_documented_fields(traced_run):
    tracer, _, result = traced_run
    counts = tracer.counts()
    assert counts.get("gateway"), "no gateway events on an ecgrid run"
    assert counts.get("packet"), "no packet accounting events"
    elects = [e for e in tracer.events("gateway") if e.name == "gateway.elect"]
    assert elects
    for e in elects:
        assert isinstance(e.fields["cell"], tuple)
        assert e.node is not None
    sent = [e for e in tracer.events("packet") if e.name == "packet.sent"]
    assert len(sent) == result.sent
    assert all("uid" in e.fields for e in sent)


def test_auditors_stay_clean_on_a_healthy_run(traced_run):
    _, auditors, _ = traced_run
    for auditor in auditors:
        assert auditor.clean, [str(v) for v in auditor.violations]


def test_category_filter_restricts_the_streams():
    tracer = Tracer(categories=("gateway", "page"))
    run_experiment(small_config(sim_time_s=15.0), tracer=tracer)
    assert set(tracer.counts()) <= {"gateway", "page"}
    assert tracer.count("packet") == 0


def test_real_trace_round_trips_through_jsonl(tmp_path, traced_run):
    tracer, _, _ = traced_run
    path = str(tmp_path / "run.jsonl")
    written = tracer.export_jsonl(path)
    header, events = load_jsonl(path)
    assert written == len(events) == sum(tracer.counts().values())
    assert header["counts"] == tracer.counts()
    assert events == tracer.events()


@pytest.mark.parametrize("protocol", ["grid", "gaf"])
def test_every_demote_names_the_cell_its_election_named(protocol):
    """A moving gateway takes its new cell before it steps down (GRID
    after the RETIRE wait, GAF at once); its ``gateway.demote`` must
    still name the cell its tenure held, which is the cell of its last
    ``gateway.elect``.  Golden scenario shape, seed 1."""
    config = ExperimentConfig(
        protocol=protocol, n_hosts=24, width_m=500.0, height_m=500.0,
        sim_time_s=80.0, n_flows=4, max_speed_mps=2.0,
        initial_energy_j=40.0, seed=1,
    )
    tracer = Tracer(categories=("gateway",))
    run_experiment(config, tracer=tracer)
    elected = {}
    demotes = mismatched = 0
    for event in tracer.events("gateway"):
        if event.name == "gateway.elect":
            elected[event.node] = event.fields["cell"]
        elif event.name == "gateway.demote":
            demotes += 1
            if event.fields["cell"] != elected[event.node]:
                mismatched += 1
    assert demotes > 20
    assert mismatched == 0, f"{mismatched} of {demotes} demotes"
