"""The job table: states, per-tenant quotas, dedup, and execution.

A submitted job moves through ``queued`` → ``running`` → ``done`` /
``failed`` / ``cancelled``.  Execution is blocking simulation work, so
jobs run on a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
(the executor's FIFO queue *is* the job queue); sweep jobs additionally
fan their grid points onto the existing
:class:`~repro.api.SweepRunner` process pool when the server is
configured with ``sweep_workers > 0``.

Three service behaviours the HTTP layer relies on live here:

- **cache-hit fast path** — a ``run`` submit whose exact config is in
  the :class:`~repro.api.ResultCache` is answered ``done`` at submit
  time, without touching the executor;
- **in-flight dedup** — a submit whose work key (config hash, salted
  with the code-version fingerprint) matches a queued/running job
  returns that job's id instead of enqueueing a duplicate;
- **per-tenant quotas** — each tenant may hold at most
  ``max_active_per_tenant`` queued+running jobs; excess submits raise
  :class:`QuotaExceeded` (HTTP 429).

Cancellation is cooperative: a queued job is finalized immediately and
never runs; a running sweep/figure job aborts between grid points (the
progress callback raises :class:`JobCancelled`); a running single
experiment cannot be interrupted mid-simulation — it finishes, its
result is discarded, and the job reports ``cancelled``.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.api import (
    AdaptiveRunner,
    ReplicationPolicy,
    ResultCache,
    SweepRunner,
    cache_version,
)
from repro.api import figure as api_figure
from repro.api import run as api_run
from repro.serve.events import JobStream, TraceRelay
from repro.serve.protocol import (
    TERMINAL_STATES,
    JobProgress,
    JobView,
    ProtocolError,
    SubmitRequest,
    adaptive_from_payload,
    config_from_payload,
    figure_kwargs_from_payload,
    figure_policy_fields,
    spec_from_payload,
)


class QuotaExceeded(ProtocolError):
    """Tenant has too many queued/running jobs (HTTP 429)."""

    def __init__(self, detail: str) -> None:
        super().__init__(detail, status=429)


class UnknownJob(ProtocolError):
    """No job with that id (HTTP 404)."""

    def __init__(self, job_id: str) -> None:
        super().__init__(f"unknown job {job_id!r}", status=404)


class NotFinished(ProtocolError):
    """Result requested before the job reached ``done`` (HTTP 409)."""

    def __init__(self, job_id: str, state: str) -> None:
        super().__init__(
            f"job {job_id!r} is {state}, not done; poll status or "
            f"stream /events",
            status=409,
        )


class JobCancelled(Exception):
    """Raised inside a worker to abort a sweep between grid points."""


@dataclass
class Job:
    """One submitted job and everything its endpoints serve."""

    job_id: str
    kind: str
    tenant: str
    request: SubmitRequest
    #: Parsed work: ExperimentConfig (run), SweepSpec (sweep), or the
    #: figure() keyword dict (figure).
    work: Any
    #: Dedup identity: equal keys describe identical work on identical
    #: code (see :meth:`JobTable._work_key`).
    key: str
    #: Adaptive replication policy (sweep/figure jobs), or None for
    #: fixed grids.
    policy: Optional[ReplicationPolicy] = None
    state: str = "queued"
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    progress: JobProgress = field(default_factory=JobProgress)
    cache_hit: bool = False
    error: Optional[str] = None
    result: Any = None
    cancel: threading.Event = field(default_factory=threading.Event)
    #: Every frame the job's ``/events`` endpoint serves.
    stream: JobStream = field(init=False)

    def __post_init__(self) -> None:
        self.stream = JobStream(self.job_id)

    def view(self, deduped: bool = False) -> JobView:
        return JobView(
            job_id=self.job_id,
            kind=self.kind,
            state=self.state,
            tenant=self.tenant,
            created_s=self.created_s,
            started_s=self.started_s,
            finished_s=self.finished_s,
            progress=self.progress,
            cache_hit=self.cache_hit,
            deduped=deduped,
            error=self.error,
        )


class JobTable:
    """Owns every job and its execution; each job owns its event stream.

    Parameters
    ----------
    cache:
        Shared :class:`ResultCache` — the submit fast path and every
        sweep point read/write it.  ``None`` disables caching.
    sweep_workers:
        Process-pool width for sweep/figure grid points (0 = each
        point runs inline on the job's executor thread).
    concurrency:
        How many jobs simulate at once (executor threads).
    max_active_per_tenant:
        Queued+running ceiling per tenant before 429.
    timeout_s:
        Per-point budget forwarded to :class:`SweepRunner`.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        sweep_workers: int = 0,
        concurrency: int = 2,
        max_active_per_tenant: int = 4,
        timeout_s: Optional[float] = None,
    ) -> None:
        self.cache = cache
        self.sweep_workers = sweep_workers
        self.max_active_per_tenant = max_active_per_tenant
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, str] = {}
        #: Tenant -> its queued and running jobs: raised when a job is
        #: enqueued, lowered once, when ``_finalize`` ends it.
        self._active: Dict[str, int] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, concurrency), thread_name_prefix="ecgrid-job"
        )
        self._closed = False

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: SubmitRequest) -> JobView:
        """Validate, dedup, quota-check, and enqueue one job.

        Returns the job's view immediately: ``deduped=True`` when an
        identical in-flight job answered, ``state="done"`` +
        ``cache_hit=True`` when the result cache answered.
        """
        request.validate()
        work = self._parse_work(request)
        policy = self._parse_policy(request)
        key = self._work_key(request, work, policy)
        with self._lock:
            if self._closed:
                raise ProtocolError("server is shutting down", status=503)
            in_flight = self._inflight.get(key)
            if in_flight is not None:
                return self._jobs[in_flight].view(deduped=True)
            active = self._active.get(request.tenant, 0)
            if active >= self.max_active_per_tenant:
                raise QuotaExceeded(
                    f"tenant {request.tenant!r} already has {active} active "
                    f"job(s) (limit {self.max_active_per_tenant}); retry "
                    f"after one finishes"
                )
            job = Job(
                job_id=uuid.uuid4().hex[:16],
                kind=request.kind,
                tenant=request.tenant,
                request=request,
                work=work,
                key=key,
                policy=policy,
            )
            self._jobs[job.job_id] = job
            # Cache-hit fast path: an exact-config run answers at
            # submit time, no executor round-trip.  (Traced submits
            # always execute — the caller wants the event stream.)
            if (
                job.kind == "run"
                and self.cache is not None
                and not request.trace
            ):
                hit = self.cache.get(work)
                if hit is not None:
                    job.result = hit
                    job.cache_hit = True
                    job.progress = JobProgress(done=1, total=1, cached=1)
                    job.started_s = job.finished_s = time.time()
                    job.state = "done"
            if job.state == "queued":
                self._inflight[key] = job.job_id
                self._active[job.tenant] = active + 1
        job.stream.publish("state", {"job_id": job.job_id, "state": job.state})
        # The view is taken before the executor sees the job, so a submit
        # answers the state it left the job in, however the threads run.
        view = job.view()
        if job.state == "done":
            job.stream.publish("end", asdict(view))
            job.stream.close()
        else:
            self._executor.submit(self._work, job)
        return view

    def _parse_work(self, request: SubmitRequest) -> Any:
        if request.kind == "run":
            return config_from_payload(request.payload)
        if request.kind == "sweep":
            payload = {
                k: v for k, v in request.payload.items() if k != "adaptive"
            }
            return spec_from_payload(payload)
        return figure_kwargs_from_payload(request.payload)

    def _parse_policy(
        self, request: SubmitRequest
    ) -> Optional[ReplicationPolicy]:
        """The job's adaptive policy, if the payload asked for one: a
        sweep's ``adaptive`` block or a figure's inline policy fields.
        The job's :class:`AdaptiveRunner` (round hook attached) applies
        it, so the parsed work never carries it."""
        if request.kind == "sweep":
            block = request.payload.get("adaptive")
            return None if block is None else adaptive_from_payload(block)
        if request.kind == "figure":
            fields = figure_policy_fields(request.payload)
            return adaptive_from_payload(fields) if fields else None
        return None

    def _work_key(
        self,
        request: SubmitRequest,
        work: Any,
        policy: Optional[ReplicationPolicy] = None,
    ) -> str:
        """Dedup identity of the requested work.

        ``run`` jobs reuse the result cache's config hash (already
        salted with the code-version fingerprint); grid kinds hash
        their canonical resolved payload plus
        :func:`~repro.api.cache_version`, so work against different
        code never dedups.  The tracing flags fold in too: a traced
        submit never piggybacks on an untraced twin (it would get no
        events).
        """
        if request.kind == "run":
            ident: Dict[str, Any] = {"kind": "run", "config": work.cache_key()}
        elif request.kind == "sweep":
            ident = {
                "kind": "sweep",
                "payload": asdict(work),
                "version": cache_version(),
            }
        else:
            ident = {
                "kind": "figure",
                "payload": dict(work),
                "version": cache_version(),
            }
        ident["trace"] = request.trace
        ident["trace_filter"] = request.trace_filter
        # Adaptive work never dedups against fixed-grid work (or
        # against a different stopping rule) on the same grid.
        ident["adaptive"] = asdict(policy) if policy else None
        blob = json.dumps(
            ident, sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]

    # ------------------------------------------------------------------
    # Execution (executor threads)
    # ------------------------------------------------------------------
    def _work(self, job: Job) -> None:
        if not self._transition(job, "running"):
            return  # cancelled while queued
        try:
            if job.kind == "run":
                result = self._execute_run(job)
            elif job.kind == "sweep":
                result = self._execute_sweep(job)
            else:
                result = self._execute_figure(job)
        except JobCancelled:
            self._finalize(job, "cancelled")
        except Exception as exc:  # failed jobs report, never crash a thread
            self._finalize(job, "failed", error=f"{type(exc).__name__}: {exc}")
        else:
            # A lone run can't stop mid-simulation; a cancel that landed
            # while it computed is honoured inside _finalize, under the
            # same lock that decides the terminal state — checking
            # job.cancel here and finalizing afterwards would leave a
            # window where cancel() lands between the check and the
            # state write and the job still reports ``done``.
            self._finalize(job, "done", result=result)

    def _execute_run(self, job: Job) -> Any:
        tracer = None
        if job.request.trace:
            from repro.obs import Tracer

            tracer = Tracer(categories=job.request.trace_filter)
            tracer.subscribe(
                TraceRelay(job.stream, tracer.enabled_categories())
            )
        result = api_run(job.work, cache=self.cache, tracer=tracer)
        job.progress = JobProgress(done=1, total=1)
        return result

    def _progress_fn(self, job: Job):
        counts = {"cached": 0}

        def progress(done: int, total: int, outcome: Any) -> None:
            if job.cancel.is_set():
                raise JobCancelled(job.job_id)
            counts["cached"] += 1 if outcome.cached else 0
            job.progress = JobProgress(
                done=done, total=total, cached=counts["cached"]
            )
            job.stream.publish(
                "progress", {"job_id": job.job_id, **asdict(job.progress)}
            )

        return progress

    def _round_fn(self, job: Job):
        """Adaptive round hook: streams each look's allocation as an
        SSE ``progress`` frame (seeds per arm, met/capped verdicts)."""

        def on_round(info: Any) -> None:
            job.stream.publish(
                "progress",
                {
                    "job_id": job.job_id,
                    **asdict(job.progress),
                    "adaptive": {
                        "look": info["look"],
                        "seeds": dict(info["seeds"]),
                        "met": list(info["met"]),
                        "capped": list(info["capped"]),
                    },
                },
            )

        return on_round

    def _runner(self, job: Job) -> "SweepRunner | AdaptiveRunner":
        runner = SweepRunner(
            workers=self.sweep_workers,
            cache=self.cache,
            timeout_s=self.timeout_s,
            progress=self._progress_fn(job),
        )
        if job.policy is not None:
            return AdaptiveRunner(
                job.policy, runner, on_round=self._round_fn(job)
            )
        return runner

    def _execute_sweep(self, job: Job) -> Any:
        return self._runner(job).run(job.work)

    def _execute_figure(self, job: Job) -> Any:
        kwargs = dict(job.work)
        name = kwargs.pop("name")
        return api_figure(name, runner=self._runner(job), **kwargs)

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def _transition(self, job: Job, state: str) -> bool:
        with self._lock:
            if job.state != "queued":
                return False
            if job.cancel.is_set():
                # cancel() already claimed this queued job; its
                # _finalize("cancelled") may still be waiting on this
                # lock.  Starting now would run work the caller was told
                # is cancelled and publish a stray "running" frame after
                # the stream's "end".
                return False
            job.state = state
            job.started_s = time.time()
        job.stream.publish("state", {"job_id": job.job_id, "state": state})
        return True

    def _finalize(
        self,
        job: Job,
        state: str,
        result: Any = None,
        error: Optional[str] = None,
    ) -> None:
        """Move ``job`` to a terminal state, first-writer-wins.

        The terminal check, the cancel-overrides-done resolution, and
        the result/error attachment all happen under one lock hold: a
        losing writer changes nothing (not even ``error``), and a
        ``done`` that raced a cancel() lands as ``cancelled`` with the
        result discarded.  Idempotent — a second call for an already
        terminal job returns without publishing anything.
        """
        with self._lock:
            if job.state in TERMINAL_STATES:
                return
            if state == "done" and job.cancel.is_set():
                state = "cancelled"
                result = None
            job.state = state
            if state == "done":
                job.result = result
            elif state == "failed":
                job.error = error
            job.finished_s = time.time()
            if self._inflight.get(job.key) == job.job_id:
                del self._inflight[job.key]
            left = self._active[job.tenant] - 1
            if left:
                self._active[job.tenant] = left
            else:
                del self._active[job.tenant]
        job.stream.publish("state", {"job_id": job.job_id, "state": state})
        job.stream.publish("end", asdict(job.view()))
        job.stream.close()

    # ------------------------------------------------------------------
    # Queries and control
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        return job

    def view(self, job_id: str) -> JobView:
        return self.get(job_id).view()

    def list_views(self, tenant: Optional[str] = None) -> List[JobView]:
        with self._lock:
            jobs = list(self._jobs.values())
        return [
            j.view() for j in jobs if tenant is None or j.tenant == tenant
        ]

    def result_of(self, job_id: str) -> Any:
        """The finished job's raw result object (run/sweep/figure)."""
        job = self.get(job_id)
        if job.state != "done":
            raise NotFinished(job_id, job.state)
        return job.result

    def cancel(self, job_id: str) -> JobView:
        """Request cancellation; see the module docstring for the
        per-state semantics.  Idempotent on finished jobs."""
        job = self.get(job_id)
        with self._lock:
            if job.state in TERMINAL_STATES:
                return job.view()
            job.cancel.set()
            finalize_now = job.state == "queued"
        if finalize_now:
            self._finalize(job, "cancelled")
        return job.view()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            counts = {state: 0 for state in ("queued", "running", "done",
                                             "failed", "cancelled")}
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
        counts["total"] = len(self._jobs)
        return counts

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs and release the executor (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=wait, cancel_futures=not wait)
