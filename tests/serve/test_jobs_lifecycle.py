"""Cancel/finalize race regressions, driven as explicit interleavings.

Each test emulates one legal thread interleaving of ``cancel()``
against the worker (``_work`` → ``_transition``/``_finalize``) by
calling the table's internals in the racy order directly — so the
"race" is a fact of the test, not a timing accident.
"""

import pytest

from repro.serve.jobs import JobTable
from repro.serve.protocol import SubmitRequest

TINY = {
    "protocol": "grid", "n_hosts": 8, "width_m": 300.0, "height_m": 300.0,
    "n_flows": 2, "sim_time_s": 20.0, "initial_energy_j": 50.0, "seed": 6,
}


class _InertExecutor:
    """Swallows submissions so the test drives the worker by hand."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, *args):
        self.submitted.append((fn, args))

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture
def table():
    t = JobTable(cache=None, concurrency=1)
    t._executor.shutdown(wait=True)
    t._executor = _InertExecutor()
    yield t
    t.shutdown()


def submit_queued(table):
    view = table.submit(SubmitRequest(kind="run", payload=TINY))
    job = table.get(view.job_id)
    assert job.state == "queued"
    return job


def test_cancel_landing_before_finalize_wins(table, monkeypatch):
    """cancel() completing between the worker's post-run cancel check
    and ``_finalize("done")`` must still yield ``cancelled``.

    Pre-fix, the worker checked ``job.cancel`` *before* taking the
    state lock, so this interleaving reported ``done`` with a live
    result even though cancel() had been accepted.
    """
    job = submit_queued(table)
    monkeypatch.setattr(
        JobTable, "_execute_run", lambda self, j: {"sentinel": 1}
    )

    real_finalize = JobTable._finalize

    def racing_finalize(self, j, state, *args, **kwargs):
        # The cancel thread runs to completion right before _finalize
        # acquires the lock.
        if state == "done":
            monkeypatch.setattr(JobTable, "_finalize", real_finalize)
            self.cancel(j.job_id)
        return real_finalize(self, j, state, *args, **kwargs)

    monkeypatch.setattr(JobTable, "_finalize", racing_finalize)
    table._work(job)

    assert job.state == "cancelled"
    assert job.result is None  # the computed result was discarded
    # exactly one terminal transition reached the stream
    kinds = [f[0] for f in job.stream.history()]
    assert kinds.count("end") == 1
    states = [
        f[1]["state"]
        for f in job.stream.history()
        if f[0] == "state"
    ]
    assert states[-1] == "cancelled"
    assert "done" not in states


def test_cancelled_queued_job_is_never_picked_up(table):
    """A cancel() that claimed a queued job must keep the worker from
    starting it, even if the worker's ``_transition`` runs between
    cancel's lock release and its ``_finalize`` call.

    Pre-fix, ``_transition`` only checked ``state == "queued"``, so
    this interleaving ran the whole simulation for a job the caller
    was told is cancelled, and published a stray ``running`` frame
    after the stream had already ended.
    """
    job = submit_queued(table)
    # cancel()'s lock section has completed (event set, finalize_now
    # decided) but its _finalize call has not run yet...
    job.cancel.set()
    # ...when the executor hands the job to the worker:
    assert table._transition(job, "running") is False
    assert job.state == "queued"  # untouched; cancel still owns it
    # cancel's deferred finalize then lands normally
    table._finalize(job, "cancelled")
    assert job.state == "cancelled"
    states = [
        f[1]["state"]
        for f in job.stream.history()
        if f[0] == "state"
    ]
    assert "running" not in states


def test_finalize_is_first_writer_wins(table):
    job = submit_queued(table)
    table._finalize(job, "cancelled")
    frames_after_first = len(job.stream.history())
    finished = job.finished_s

    # a late worker finalize must not overwrite the terminal state,
    # attach a result, or publish anything further
    table._finalize(job, "done", result={"sentinel": 2})
    assert job.state == "cancelled"
    assert job.result is None
    assert job.finished_s == finished
    assert len(job.stream.history()) == frames_after_first

    # nor may a late failure overwrite the error field
    table._finalize(job, "failed", error="boom")
    assert job.state == "cancelled"
    assert job.error is None
