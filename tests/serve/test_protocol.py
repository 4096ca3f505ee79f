"""Wire protocol: round-trips, validation, and the shared schema."""

import json

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
    spec_from_payload,
    spec_to_payload,
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
    back = SubmitRequest.from_json(req.to_json())
    assert back == req
    assert back.api_version == API_VERSION


def test_submit_request_defaults():
    req = SubmitRequest.from_dict({"kind": "sweep", "payload": {}})
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
        SubmitRequest.from_dict(body)


def test_unknown_trace_category_is_rejected_at_submit():
    # Used to be accepted, then fail inside the worker's Tracer.
    for names in (["bogus"], ["gateway", "sim"]):
        with pytest.raises(ProtocolError) as exc:
            SubmitRequest.from_dict({
                "kind": "run", "payload": {}, "trace": True,
                "trace_filter": names,
            })
        assert exc.value.status == 400
        assert "choose from" in exc.value.detail
        assert "'gateway', 'page'" in exc.value.detail


def test_submit_request_bad_json_is_protocol_error():
    with pytest.raises(ProtocolError):
        SubmitRequest.from_json("{{{nope")


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
    back = JobView.from_dict(json.loads(json.dumps(view.to_dict())))
    assert back == view


def test_job_view_rejects_unknown_state():
    data = JobView(
        job_id="x", kind="run", state="done", tenant="t", created_s=0.0
    ).to_dict()
    data["state"] = "exploded"
    with pytest.raises(ProtocolError):
        JobView.from_dict(data)


def test_error_view_round_trip():
    err = ErrorView(status=429, error="Too Many Requests", detail="quota")
    assert ErrorView.from_dict(err.to_dict()) == err


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
    req = SubmitRequest.from_json(
        '{"kind": "run", "payload": {"protocol": "ecgrid", "n_hosts": 4,'
        ' "sim_time_s": Infinity}}'
    )
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
    back = spec_to_payload(spec)
    assert back["name"] == "density"
    assert back["axes"]["protocol"] == ["grid", "ecgrid"]
    assert back["scale"] == 0.25
    # the round-trip is stable (dedup keys depend on it)
    assert spec_to_payload(spec_from_payload(back)) == back


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
