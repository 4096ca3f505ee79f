"""Adaptive replication through the job table: policy parsing, the
round-by-round SSE frames, dedup identity, and served precision."""

import time

import pytest

from repro.serve.jobs import JobTable
from repro.serve.protocol import (
    TERMINAL_STATES,
    ProtocolError,
    SubmitRequest,
    sweep_envelope,
)

TINY = {
    "protocol": "grid", "n_hosts": 8, "width_m": 300.0, "height_m": 300.0,
    "n_flows": 2, "sim_time_s": 20.0, "initial_energy_j": 50.0,
}


def sweep_payload(adaptive=None):
    payload = {
        "name": "faceoff",
        "base": dict(TINY),
        "axes": {"protocol": ["grid", "ecgrid"], "seed": [1]},
    }
    if adaptive is not None:
        payload["adaptive"] = adaptive
    return payload


def wait_terminal(table, job_id, timeout=120.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        view = table.view(job_id)
        if view.state in TERMINAL_STATES:
            return view
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never finished: {table.view(job_id)}")


def test_adaptive_sweep_job_streams_rounds_and_serves_precision():
    table = JobTable(cache=None, concurrency=1)
    try:
        view = table.submit(SubmitRequest(
            kind="sweep",
            payload=sweep_payload(adaptive={
                "target_ci": 0.0, "min_seeds": 2, "max_seeds": 3,
                "batch": 1,
            }),
        ))
        done = wait_terminal(table, view.job_id)
        assert done.state == "done", done.error
        run = table.result_of(view.job_id)
        assert run.precision is not None
        assert run.precision["total_runs"] == 6  # 2 arms x cap of 3
        assert not run.precision["all_met"]
        envelope = sweep_envelope(run)
        assert envelope["precision"] == run.precision
        # Every look published one progress frame with the allocation.
        frames = [
            payload
            for kind, payload, _seq in table.broker.history(view.job_id)
            if kind == "progress" and "adaptive" in payload
        ]
        assert [f["adaptive"]["look"] for f in frames] == [1, 2]
        assert frames[-1]["adaptive"]["capped"] == [
            "protocol=grid", "protocol=ecgrid",
        ]
        assert frames[-1]["adaptive"]["seeds"] == {
            "protocol=grid": 3, "protocol=ecgrid": 3,
        }
    finally:
        table.shutdown()


def test_adaptive_figure_job_owns_the_engine():
    table = JobTable(cache=None, concurrency=1)
    try:
        view = table.submit(SubmitRequest(
            kind="figure",
            payload={
                "name": "fig4", "scale": 0.08,
                "target_ci": 1e9, "min_seeds": 2, "max_seeds": 4,
            },
        ))
        job = table._jobs[view.job_id]
        # The policy moved from the figure kwargs to the job, so
        # figure() uses the table's wrapped runner (round hook on).
        assert job.policy is not None
        assert job.policy.max_seeds == 4
        assert "target_ci" not in job.work
        done = wait_terminal(table, view.job_id)
        assert done.state == "done", done.error
        fig = table.result_of(view.job_id)
        assert fig.precision is not None
        assert fig.precision["all_met"]
        assert fig.seeds == [1, 2]
        frames = [
            payload
            for kind, payload, _seq in table.broker.history(view.job_id)
            if kind == "progress" and "adaptive" in payload
        ]
        assert len(frames) >= 1
    finally:
        table.shutdown()


def test_adaptive_and_fixed_work_never_share_a_key():
    table = JobTable(cache=None, concurrency=1)
    try:
        fixed = SubmitRequest(kind="sweep", payload=sweep_payload())
        loose = SubmitRequest(
            kind="sweep",
            payload=sweep_payload(adaptive={"target_ci": 0.5}),
        )
        tight = SubmitRequest(
            kind="sweep",
            payload=sweep_payload(adaptive={"target_ci": 0.1}),
        )

        def key(request):
            work = table._parse_work(request)
            policy = table._parse_policy(request, work)
            return table._work_key(request, work, policy)

        keys = {key(fixed), key(loose), key(tight)}
        assert len(keys) == 3  # different stopping rules never dedup
        assert key(loose) == key(SubmitRequest(
            kind="sweep",
            payload=sweep_payload(adaptive={"target_ci": 0.5}),
        ))
    finally:
        table.shutdown()


def test_bad_adaptive_payloads_are_protocol_errors():
    table = JobTable(cache=None, concurrency=1)
    try:
        with pytest.raises(ProtocolError, match="target_ci"):
            table.submit(SubmitRequest(
                kind="sweep",
                payload=sweep_payload(adaptive={"max_seeds": 4}),
            ))
        with pytest.raises(ProtocolError, match="unknown"):
            table.submit(SubmitRequest(
                kind="sweep",
                payload=sweep_payload(
                    adaptive={"target_ci": 0.1, "bogus": 1}
                ),
            ))
        with pytest.raises(ProtocolError, match="target_ci"):
            table.submit(SubmitRequest(
                kind="figure",
                payload={"name": "fig4", "max_seeds": 4},
            ))
    finally:
        table.shutdown()


def test_adaptive_gateway_tenure_submit_is_rejected():
    # gateway-tenure traces its runs outside the sweep engine, so it
    # has no adaptive mode: the submit answers 400 instead of queueing
    # a job that would trace every seed of the max_seeds pool.
    table = JobTable(cache=None, concurrency=1)
    try:
        with pytest.raises(ProtocolError, match="gateway-tenure") as exc:
            table.submit(SubmitRequest(
                kind="figure",
                payload={
                    "name": "gateway-tenure", "scale": 0.06, "seed": 3,
                    "target_ci": 0.5, "max_seeds": 4,
                    "axes": {"protocols": ["ecgrid"], "qs": [50.0]},
                },
            ))
        assert exc.value.status == 400
        assert table._jobs == {}
    finally:
        table.shutdown()
