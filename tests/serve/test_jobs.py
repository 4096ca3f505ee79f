"""Job table semantics, driven directly (no HTTP in between).

The controlled-timing tests pin ``api_run`` to a gate the test opens,
so "while a job is running/queued" is a fact, not a race.
"""

import threading
import time

import pytest

import repro.serve.jobs as jobs_mod
from repro.api import ResultCache
from repro.serve.jobs import JobTable, NotFinished, QuotaExceeded, UnknownJob
from repro.serve.protocol import (
    TERMINAL_STATES,
    ProtocolError,
    SubmitRequest,
)

TINY = {
    "protocol": "grid", "n_hosts": 8, "width_m": 300.0, "height_m": 300.0,
    "n_flows": 2, "sim_time_s": 20.0, "initial_energy_j": 50.0, "seed": 6,
}


def submit_run(table, payload=TINY, **kw):
    return table.submit(SubmitRequest(kind="run", payload=payload, **kw))


def wait_terminal(table, job_id, timeout=120.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        view = table.view(job_id)
        if view.state in TERMINAL_STATES:
            return view
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never finished: {table.view(job_id)}")


@pytest.fixture
def gated(monkeypatch):
    """Replace the simulation with a gate; yields (started, release)."""
    started = threading.Event()
    release = threading.Event()

    def fake_run(config, cache=None, tracer=None):
        started.set()
        assert release.wait(60.0), "test never released the gate"
        return {"sentinel": config.seed}

    monkeypatch.setattr(jobs_mod, "api_run", fake_run)
    yield started, release
    release.set()


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_run_job_lifecycle_and_result():
    table = JobTable(cache=None, concurrency=1)
    try:
        view = submit_run(table)
        assert view.state in ("queued", "running")
        done = wait_terminal(table, view.job_id)
        assert done.state == "done"
        assert done.error is None
        assert done.progress.done == 1
        result = table.result_of(view.job_id)
        assert result.config.n_hosts == 8
        assert result.sent > 0
        # the stream recorded the whole lifecycle and closed
        kinds = [f[0] for f in table.get(view.job_id).stream.history()]
        assert kinds[0] == "state" and kinds[-1] == "end"
    finally:
        table.shutdown()


class _InlineExecutor:
    """Runs each job to its end inside ``submit``."""

    def submit(self, fn, *args):
        fn(*args)

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_submit_answers_the_state_it_left_the_job_in():
    """The submit view is taken before the executor sees the job, so
    even an executor that finishes the job inside ``submit`` answers
    ``queued``, not whatever state the job reached meanwhile."""
    table = JobTable(cache=None, concurrency=1)
    table._executor.shutdown(wait=True)
    table._executor = _InlineExecutor()
    try:
        view = submit_run(table)
        assert view.state == "queued"
        assert table.view(view.job_id).state == "done"
    finally:
        table.shutdown()


def test_result_before_done_is_409(gated):
    started, release = gated
    table = JobTable(cache=None, concurrency=1)
    try:
        view = submit_run(table)
        started.wait(30.0)
        with pytest.raises(NotFinished) as exc:
            table.result_of(view.job_id)
        assert exc.value.status == 409
        release.set()
        wait_terminal(table, view.job_id)
        assert table.result_of(view.job_id) == {"sentinel": 6}
    finally:
        table.shutdown()


def test_failed_job_reports_error(monkeypatch):
    def boom(config, cache=None, tracer=None):
        raise RuntimeError("reactor meltdown")

    monkeypatch.setattr(jobs_mod, "api_run", boom)
    table = JobTable(cache=None, concurrency=1)
    try:
        view = submit_run(table)
        done = wait_terminal(table, view.job_id)
        assert done.state == "failed"
        assert "RuntimeError: reactor meltdown" in done.error
        with pytest.raises(NotFinished):
            table.result_of(view.job_id)
    finally:
        table.shutdown()


def test_unknown_job_is_404():
    table = JobTable(cache=None)
    try:
        with pytest.raises(UnknownJob) as exc:
            table.view("nope")
        assert exc.value.status == 404
    finally:
        table.shutdown()


def test_submit_after_shutdown_is_503():
    table = JobTable(cache=None)
    table.shutdown()
    with pytest.raises(ProtocolError) as exc:
        submit_run(table)
    assert exc.value.status == 503


# ----------------------------------------------------------------------
# Cache-hit fast path
# ----------------------------------------------------------------------
def test_cache_hit_answers_at_submit(tmp_path):
    table = JobTable(cache=ResultCache(str(tmp_path)), concurrency=1)
    try:
        first = submit_run(table)
        assert first.cache_hit is False
        wait_terminal(table, first.job_id)

        second = submit_run(table)
        assert second.state == "done"
        assert second.cache_hit is True
        assert second.job_id != first.job_id
        assert second.progress.cached == 1
        # fast-path result is servable immediately
        assert table.result_of(second.job_id).sent > 0
    finally:
        table.shutdown()


# ----------------------------------------------------------------------
# Dedup
# ----------------------------------------------------------------------
def test_identical_inflight_submit_dedups(gated):
    started, release = gated
    table = JobTable(cache=None, concurrency=1)
    try:
        first = submit_run(table)
        started.wait(30.0)
        twin = submit_run(table)
        assert twin.deduped is True
        assert twin.job_id == first.job_id
        # different work is NOT deduped
        other = submit_run(table, payload={**TINY, "seed": 7})
        assert other.job_id != first.job_id
        release.set()
        wait_terminal(table, first.job_id)
        wait_terminal(table, other.job_id)
        # once finished, an identical submit is a fresh job again
        fresh = submit_run(table)
        assert fresh.deduped is False
        assert fresh.job_id != first.job_id
        wait_terminal(table, fresh.job_id)
    finally:
        table.shutdown()


def test_traced_submit_never_dedups_against_untraced(gated):
    started, release = gated
    table = JobTable(cache=None, concurrency=2)
    try:
        plain = submit_run(table)
        traced = submit_run(table, trace=True)
        assert traced.deduped is False
        assert traced.job_id != plain.job_id
        release.set()
    finally:
        table.shutdown()


# ----------------------------------------------------------------------
# Quotas
# ----------------------------------------------------------------------
def test_per_tenant_quota_429(gated):
    started, release = gated
    table = JobTable(cache=None, concurrency=1, max_active_per_tenant=2)
    try:
        submit_run(table, payload={**TINY, "seed": 1}, tenant="alice")
        submit_run(table, payload={**TINY, "seed": 2}, tenant="alice")
        with pytest.raises(QuotaExceeded) as exc:
            submit_run(table, payload={**TINY, "seed": 3}, tenant="alice")
        assert exc.value.status == 429
        # a different tenant is unaffected
        bob = submit_run(table, payload={**TINY, "seed": 4}, tenant="bob")
        assert bob.state in ("queued", "running")
        release.set()
    finally:
        table.shutdown()


def test_quota_frees_up_after_finish(gated):
    started, release = gated
    table = JobTable(cache=None, concurrency=1, max_active_per_tenant=1)
    try:
        first = submit_run(table, tenant="alice")
        with pytest.raises(QuotaExceeded):
            submit_run(table, payload={**TINY, "seed": 9}, tenant="alice")
        release.set()
        wait_terminal(table, first.job_id)
        again = submit_run(table, payload={**TINY, "seed": 9}, tenant="alice")
        assert again.state in ("queued", "running")
        wait_terminal(table, again.job_id)
    finally:
        table.shutdown()


def test_failed_and_queued_cancelled_jobs_free_their_slot(monkeypatch):
    release = threading.Event()

    def fake_run(config, cache=None, tracer=None):
        assert release.wait(60.0), "test never released the gate"
        if config.seed == 1:
            raise RuntimeError("reactor meltdown")
        return {"sentinel": config.seed}

    monkeypatch.setattr(jobs_mod, "api_run", fake_run)
    table = JobTable(cache=None, concurrency=1, max_active_per_tenant=2)
    try:
        failing = submit_run(table, payload={**TINY, "seed": 1}, tenant="alice")
        queued = submit_run(table, payload={**TINY, "seed": 2}, tenant="alice")
        with pytest.raises(QuotaExceeded):
            submit_run(table, payload={**TINY, "seed": 3}, tenant="alice")
        # cancelled while queued: the single worker is held by ``failing``
        assert table.cancel(queued.job_id).state == "cancelled"
        third = submit_run(table, payload={**TINY, "seed": 3}, tenant="alice")
        with pytest.raises(QuotaExceeded):
            submit_run(table, payload={**TINY, "seed": 4}, tenant="alice")
        release.set()
        assert wait_terminal(table, failing.job_id).state == "failed"
        wait_terminal(table, third.job_id)
        # both slots free again, and each ended job freed exactly one
        for seed in (4, 5):
            submit_run(table, payload={**TINY, "seed": seed}, tenant="alice")
        with pytest.raises(QuotaExceeded):
            submit_run(table, payload={**TINY, "seed": 6}, tenant="alice")
    finally:
        release.set()
        table.shutdown()


def test_cache_hit_job_never_holds_a_slot(tmp_path, monkeypatch):
    table = JobTable(
        cache=ResultCache(str(tmp_path)), concurrency=1,
        max_active_per_tenant=1,
    )
    try:
        first = submit_run(table, tenant="alice")
        assert wait_terminal(table, first.job_id).state == "done"
        release = threading.Event()

        def fake_run(config, cache=None, tracer=None):
            assert release.wait(60.0), "test never released the gate"
            return {"sentinel": config.seed}

        monkeypatch.setattr(jobs_mod, "api_run", fake_run)
        for _ in range(3):
            hit = submit_run(table, tenant="alice")
            assert hit.cache_hit and hit.state == "done"
        held = submit_run(table, payload={**TINY, "seed": 9}, tenant="alice")
        assert held.state in ("queued", "running")
        with pytest.raises(QuotaExceeded):
            submit_run(table, payload={**TINY, "seed": 10}, tenant="alice")
        release.set()
        wait_terminal(table, held.job_id)
    finally:
        table.shutdown()


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
def test_cancel_queued_job_never_runs(gated):
    started, release = gated
    calls = []
    table = JobTable(cache=None, concurrency=1)
    try:
        blocker = submit_run(table, payload={**TINY, "seed": 1})
        started.wait(30.0)
        queued = submit_run(table, payload={**TINY, "seed": 2})
        view = table.cancel(queued.job_id)
        assert view.state == "cancelled"
        release.set()
        wait_terminal(table, blocker.job_id)
        # the cancelled job stays cancelled (the executor skipped it)
        assert table.view(queued.job_id).state == "cancelled"
        # cancel is idempotent on finished jobs
        assert table.cancel(queued.job_id).state == "cancelled"
    finally:
        table.shutdown()


def test_cancel_running_sweep_aborts_between_points():
    table = JobTable(cache=None, concurrency=1)
    try:
        view = table.submit(SubmitRequest(
            kind="sweep",
            payload={
                "name": "cancel-me",
                "base": TINY,
                "axes": {"seed": [1, 2, 3, 4, 5, 6]},
            },
        ))
        # wait for at least one point to land, then pull the plug
        deadline = time.time() + 120.0
        while time.time() < deadline:
            if table.view(view.job_id).progress.done >= 1:
                break
            time.sleep(0.005)
        table.cancel(view.job_id)
        done = wait_terminal(table, view.job_id)
        assert done.state == "cancelled"
        with pytest.raises(NotFinished):
            table.result_of(view.job_id)
    finally:
        table.shutdown()


# ----------------------------------------------------------------------
# Sweep execution + stats
# ----------------------------------------------------------------------
def test_sweep_job_runs_grid_and_reports_progress():
    table = JobTable(cache=None, concurrency=1)
    try:
        view = table.submit(SubmitRequest(
            kind="sweep",
            payload={
                "name": "faceoff",
                "base": TINY,
                "axes": {"protocol": ["grid", "ecgrid"]},
            },
        ))
        done = wait_terminal(table, view.job_id)
        assert done.state == "done"
        assert done.progress.done == done.progress.total == 2
        run = table.result_of(view.job_id)
        assert run.executed == 2
        assert len(run.outcomes) == 2
        kinds = [f[0] for f in table.get(view.job_id).stream.history()]
        assert kinds.count("progress") == 2
        stats = table.stats()
        assert stats["done"] == 1 and stats["total"] == 1
    finally:
        table.shutdown()


def test_traced_run_streams_trace_frames():
    table = JobTable(cache=None, concurrency=1)
    try:
        view = table.submit(SubmitRequest(
            kind="run",
            payload=TINY,
            trace=True,
            trace_filter=("gateway",),
        ))
        done = wait_terminal(table, view.job_id)
        assert done.state == "done"
        frames = table.get(view.job_id).stream.history()
        traces = [f for f in frames if f[0] == "trace"]
        assert traces, "traced run produced no trace frames"
        assert all(
            f[1]["name"].partition(".")[0] == "gateway" for f in traces
        )
    finally:
        table.shutdown()


def test_identical_traced_runs_stream_identical_trace_frames():
    # Packet uids are numbered per network: a second identical run in
    # the same process used to trace uids where the first left off.
    table = JobTable(cache=None, concurrency=1)
    try:
        streams = []
        for _ in range(2):
            view = table.submit(SubmitRequest(
                kind="run", payload=TINY, trace=True, trace_filter=("packet",),
            ))
            assert wait_terminal(table, view.job_id).state == "done"
            streams.append([
                f[1] for f in table.get(view.job_id).stream.history()
                if f[0] == "trace"
            ])
        assert any("uid" in f["fields"] for f in streams[0])
        assert streams[0] == streams[1]
    finally:
        table.shutdown()
