"""Wire protocol: round-trips, validation, and the shared schema."""

import json
from dataclasses import asdict

import pytest

from repro.serve.events import parse_sse, sse_frame
from repro.serve.jobs import JobTable
from repro.serve.protocol import (
    API_VERSION,
    JOB_KINDS,
    JOB_STATES,
    RESULT_SCHEMA,
    TERMINAL_STATES,
    ErrorView,
    JobProgress,
    JobView,
    ProtocolError,
    SubmitRequest,
    config_from_payload,
    figure_kwargs_from_payload,
    parse_body,
    read_body,
    spec_from_payload,
)


# ----------------------------------------------------------------------
# SubmitRequest
# ----------------------------------------------------------------------
def test_submit_request_json_round_trip():
    req = SubmitRequest(
        kind="run",
        payload={"n_hosts": 10, "seed": 3},
        tenant="alice",
        trace=True,
        trace_filter=("gateway", "page"),
    )
    back = read_body(SubmitRequest, json.loads(json.dumps(asdict(req))))
    assert back == req
    assert back.api_version == API_VERSION


def test_submit_request_defaults():
    req = read_body(SubmitRequest, {"kind": "sweep", "payload": {}})
    assert req.tenant == "public"
    assert req.trace is False
    assert req.trace_filter is None


@pytest.mark.parametrize(
    "body",
    [
        {"payload": {}},                                  # missing kind
        {"kind": "run"},                                  # missing payload
        {"kind": "banana", "payload": {}},                # unknown kind
        {"kind": "run", "payload": []},                   # non-object payload
        {"kind": "sweep", "payload": {}, "trace": True},  # trace off-run
        {"kind": "run", "payload": {}, "bogus": 1},       # unknown field
        {"kind": "run", "payload": {}, "api_version": 99},
        {"kind": "run", "payload": {}, "tenant": ""},
    ],
)
def test_submit_request_rejects(body):
    with pytest.raises(ProtocolError):
        read_body(SubmitRequest, body).validate()


def test_unknown_trace_category_is_rejected_at_submit():
    # Used to be accepted, then fail inside the worker's Tracer.
    for names in (["bogus"], ["gateway", "sim"]):
        with pytest.raises(ProtocolError) as exc:
            read_body(SubmitRequest, {
                "kind": "run", "payload": {}, "trace": True,
                "trace_filter": names,
            }).validate()
        assert exc.value.status == 400
        assert "choose from" in exc.value.detail
        assert "'gateway', 'page'" in exc.value.detail


def test_submit_request_bad_json_is_protocol_error():
    with pytest.raises(ProtocolError):
        parse_body(b"{{{nope")


# ----------------------------------------------------------------------
# Views
# ----------------------------------------------------------------------
def test_job_view_round_trip():
    view = JobView(
        job_id="abc123",
        kind="sweep",
        state="running",
        tenant="alice",
        created_s=123.5,
        started_s=124.0,
        progress=JobProgress(done=2, total=8, cached=1),
    )
    back = read_body(JobView, json.loads(json.dumps(asdict(view))))
    assert back == view


def test_job_view_rejects_unknown_state():
    data = asdict(JobView(
        job_id="x", kind="run", state="done", tenant="t", created_s=0.0
    ))
    data["state"] = "exploded"
    with pytest.raises(ProtocolError):
        read_body(JobView, data)


def test_error_view_round_trip():
    err = ErrorView(status=429, error="Too Many Requests", detail="quota")
    assert read_body(ErrorView, asdict(err)) == err


def test_state_tables_consistent():
    assert set(TERMINAL_STATES) < set(JOB_STATES)
    assert set(JOB_KINDS) == {"run", "sweep", "figure"}


# ----------------------------------------------------------------------
# The shared result schema
# ----------------------------------------------------------------------
def test_export_and_protocol_share_one_schema():
    from repro.api import RESULT_SCHEMA as facade_schema
    from repro.experiments.export import RESULT_SCHEMA as export_schema

    assert export_schema is RESULT_SCHEMA
    assert facade_schema is RESULT_SCHEMA
    assert RESULT_SCHEMA == 3


# ----------------------------------------------------------------------
# Payload resolution
# ----------------------------------------------------------------------
def test_config_from_payload_validates():
    config = config_from_payload({"n_hosts": 12, "seed": 7})
    assert config.n_hosts == 12
    with pytest.raises(ProtocolError):
        config_from_payload({"protocol": "banana"})
    with pytest.raises(ProtocolError):
        config_from_payload({"sim_time_s": -5.0})


def test_non_finite_payloads_are_rejected_at_submit():
    # JSON's Infinity literal and an overflowing 1e400 both parse to
    # inf; either horizon would hold an executor thread for good.
    req = read_body(SubmitRequest, json.loads(
        '{"kind": "run", "payload": {"protocol": "ecgrid", "n_hosts": 4,'
        ' "sim_time_s": Infinity}}'
    ))
    with pytest.raises(ProtocolError) as run_exc:
        config_from_payload(req.payload)
    assert run_exc.value.status == 400
    sweep = json.loads('{"axes": {"time": [60, 1e400]}}')
    with pytest.raises(ProtocolError) as sweep_exc:
        spec_from_payload(sweep)
    assert sweep_exc.value.status == 400


def test_spec_payload_round_trip():
    payload = {
        "name": "density",
        "base": {"max_speed_mps": 1.0, "seed": 3},
        "axes": {"protocol": ["grid", "ecgrid"], "hosts": [50, 100]},
        "scale": 0.25,
    }
    spec = spec_from_payload(payload)
    assert len(spec.expand()) == 4
    back = asdict(spec)
    assert back["name"] == "density"
    assert back["axes"]["protocol"] == ["grid", "ecgrid"]
    assert back["scale"] == 0.25
    # the round-trip is stable (dedup keys depend on it)
    assert asdict(spec_from_payload(back)) == back


def test_spec_from_payload_rejects_bad_axes():
    with pytest.raises(ProtocolError):
        spec_from_payload({"axes": {"protocol": "grid"}})  # not a list
    with pytest.raises(ProtocolError):
        spec_from_payload({"axes": {"no_such_axis": [1, 2]}})


def test_figure_kwargs_from_payload():
    kwargs = figure_kwargs_from_payload(
        {"name": "fig4", "scale": 0.1, "seeds": 2}
    )
    assert kwargs["name"] == "fig4"
    assert kwargs["scale"] == 0.1
    assert kwargs["seeds"] == 2
    table = JobTable(cache=None, concurrency=1)
    try:
        for bad in (
            {"name": "fig99"},
            {"name": "fig4", "wat": 1},
            # Each of these must fail at submit, not in a worker.
            {"name": "fig4", "axes": {"bogus": [1]}},
            {"name": "fig4", "axes": {"protocols": "ecgrid"}},
            {"name": "fig4", "seeds": 0},
            {"name": "fig4", "scale": 2.0},
            {"name": "fig4", "speed": float("nan")},
        ):
            with pytest.raises(ProtocolError) as exc:
                figure_kwargs_from_payload(bad)
            assert exc.value.status == 400, bad
            with pytest.raises(ProtocolError):
                table.submit(SubmitRequest(kind="figure", payload=bad))
        assert table._jobs == {}
    finally:
        table.shutdown()


RUN = {"protocol": "ecgrid", "n_hosts": 8, "sim_time_s": 10.0}


def _faulted(**event):
    return {**RUN, "faults": {"events": [event]}}


@pytest.mark.parametrize(
    "kind, payload, field",
    [
        # Each used to fail in a worker, or to run another configuration
        # than the one named, and cache its result under the bad key.
        ("run", {**RUN, "n_hosts": "12"}, "n_hosts"),
        ("run", {**RUN, "n_hosts": 12.0}, "n_hosts"),
        ("run", {**RUN, "n_hosts": True}, "n_hosts"),
        ("run", {**RUN, "params": {"hello_period_s": "x"}},
         "params.hello_period_s"),
        ("run", _faulted(kind="node_crash", at_s="soon", node_id=1),
         "faults.events[0].at_s"),
        ("run", _faulted(kind="partition", axis="z"),
         "faults.events[0].axis"),
        ("run", {**RUN, "seed": None}, "seed"),
        ("run", {**RUN, "loss_model": "unit-disk"}, "loss_model"),
        ("run", {**RUN, "params": {"search_policy": "bbox-margin"}},
         "params.search_policy"),
        ("run", {**RUN, "params": {"dwell_mode": "Exact"}},
         "params.dwell_mode"),
        ("sweep", {"base": RUN, "axes": {"params.load_balance": ["no"]}},
         "params.load_balance"),
        ("sweep", {"base": RUN, "axes": {"seed": [None]}}, "seed"),
        ("sweep", {"base": RUN, "scale": "0.5"}, "scale"),
        ("figure", {"name": "ablation-search", "scale": 0.05,
                    "axes": {"policies": [5]}}, "params.search_policy"),
        ("figure", {"name": "ablation-gridsize", "scale": 0.05,
                    "axes": {"sides": [None]}}, "cell_side_m"),
        ("figure", {"name": "fig4", "scale": 0.05, "seeds": 2.9}, "seeds"),
        ("figure", {"name": "fig4", "scale": 0.05, "seed": True}, "seed"),
        ("figure", {"name": "fig4", "scale": "0.05"}, "scale"),
        # Well typed but out of range: each used to pass submit, then
        # fail in a worker or, for the last two, run to ``done``.
        ("run", {**RUN, "cell_side_m": 0}, "cell_side_m"),
        ("run", {**RUN, "width_m": 0}, "width_m"),
        ("run", {**RUN, "n_hosts": 0}, "n_hosts"),
        ("run", {**RUN, "max_speed_mps": -2}, "max_speed_mps"),
        ("run", {**RUN, "min_speed_mps": 3.0, "max_speed_mps": 2.0},
         "min_speed_mps"),
        ("run", {**RUN, "pause_time_s": -1}, "pause_time_s"),
        ("run", {**RUN, "initial_energy_j": -1}, "initial_energy_j"),
        ("run", {**RUN, "packet_bytes": -1}, "packet_bytes"),
        ("run", {**RUN, "n_endpoints": -3}, "n_endpoints"),
        # Flows with fewer than two hosts to run between: each used to
        # pass submit, then fail in the worker's flow draw.
        ("run", {"protocol": "gaf", "n_endpoints": 1, "n_hosts": 8,
                 "width_m": 300.0, "height_m": 300.0, "sim_time_s": 10.0},
         "n_endpoints"),
        ("run", {"protocol": "ecgrid", "n_hosts": 1, "width_m": 300.0,
                 "height_m": 300.0, "sim_time_s": 10.0}, "n_hosts"),
    ],
)
def test_mistyped_payloads_answer_400_at_submit(kind, payload, field):
    table = JobTable(cache=None, concurrency=1)
    try:
        with pytest.raises(ProtocolError) as exc:
            table.submit(SubmitRequest(kind=kind, payload=payload))
        assert exc.value.status == 400
        assert f"{field}: " in exc.value.detail
        assert table._jobs == {}
    finally:
        table.shutdown()


# ----------------------------------------------------------------------
# SSE framing
# ----------------------------------------------------------------------
def test_sse_frame_layout():
    frame = sse_frame("progress", {"done": 1, "total": 4}, id=7)
    text = frame.decode("utf-8")
    assert text.startswith("id: 7\nevent: progress\ndata: ")
    assert text.endswith("\n\n")


def test_sse_round_trip_multiple_frames():
    blob = (
        sse_frame("state", {"state": "queued"}, id=1)
        + sse_frame("progress", {"done": 1}, id=2)
        + sse_frame("end", {"state": "done"}, id=3)
    ).decode("utf-8")
    frames = parse_sse(blob)
    assert [f[0] for f in frames] == ["state", "progress", "end"]
    assert [f[2] for f in frames] == [1, 2, 3]
    assert frames[1][1] == {"done": 1}
