"""The job server's typed wire protocol.

Everything that crosses the HTTP boundary is a dataclass here with an
explicit ``api_version``, and its field annotations are its schema.
Responses are encoded with :func:`dataclasses.asdict`; request bodies
and payloads are read with :func:`repro.records.decode` (through
:func:`read_body`, after the version check), so unknown or missing
fields, wrong types, unknown choices and version skew all fail loudly
with a :class:`ProtocolError` carrying the HTTP status to answer with.

The server's HTTP responses are the records the CLI's file export
(:mod:`repro.experiments.export`) writes, stamped with the same
:data:`RESULT_SCHEMA`, which is defined there and imported here —
there is exactly one schema to migrate when the layout changes (see
``docs/sweeps.md``).

The experiment layer is reached only through the :mod:`repro.api`
facade.  Its figure registry and adaptive policy are imported where a
payload needs them, since each loads its own module on first use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import (
    Any,
    Dict,
    Literal,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    get_args,
)

from repro.api import (
    RESULT_SCHEMA,
    ExperimentConfig,
    FaultPlan,
    SweepSpec,
    result_to_dict,
)
from repro.obs.trace import CATEGORIES
from repro.records import check, decode

#: Version of the HTTP API surface (the ``/v1`` path prefix and every
#: request/response layout in this module).  Bump only on breaking
#: changes; additive response fields do not bump it.
API_VERSION = 1

JobKind = Literal["run", "sweep", "figure"]
JobState = Literal["queued", "running", "done", "failed", "cancelled"]

#: Submittable job kinds.
JOB_KINDS = get_args(JobKind)

#: Job lifecycle states.
JOB_STATES = get_args(JobState)

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")

R = TypeVar("R")


class ProtocolError(ValueError):
    """A malformed or unsupported request; ``status`` is the HTTP
    answer (400 unless the constructor says otherwise)."""

    def __init__(self, detail: str, status: int = 400) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


def parse_body(body: bytes) -> Any:
    """The JSON value of a request body (an empty body reads as ``{}``)."""
    try:
        return json.loads(body.decode("utf-8") or "{}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"invalid JSON body: {exc}") from exc


def read_body(cls: Type[R], data: Any) -> R:
    """The ``cls`` record a parsed JSON body describes: the
    ``api_version`` check, then :func:`~repro.records.decode`."""
    what = cls.__name__
    if not isinstance(data, Mapping):
        raise ProtocolError(f"{what} body must be a JSON object")
    version = data.get("api_version", API_VERSION)
    if version != API_VERSION:
        raise ProtocolError(
            f"{what}: unsupported api_version {version!r} "
            f"(this server speaks {API_VERSION})"
        )
    try:
        return decode(cls, data)
    except ValueError as exc:
        raise ProtocolError(f"{what}: {exc}") from exc


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SubmitRequest:
    """``POST /v1/jobs`` body.

    ``payload`` depends on ``kind``:

    - ``run`` — an ``ExperimentConfig`` dict
      (:meth:`ExperimentConfig.to_dict` shape);
    - ``sweep`` — ``{"name", "base", "axes", "scale"}`` describing a
      :class:`~repro.experiments.sweep.SweepSpec` (``base`` is a config
      dict; ``axes`` maps axis names to value lists); an optional
      ``"adaptive"`` block (:func:`adaptive_from_payload`) switches the
      seed axis to adaptive replication;
    - ``figure`` — a :class:`FigurePayload`, plus optional inline
      adaptive policy fields (:func:`figure_policy_fields`).

    ``trace=True`` (``run`` jobs only) attaches a tracer and streams
    its events over the job's SSE channel; ``trace_filter`` narrows the
    recorded categories to names from
    :data:`~repro.obs.trace.CATEGORIES`.
    """

    kind: JobKind
    payload: Mapping[str, Any]
    tenant: str = "public"
    trace: bool = False
    trace_filter: Optional[Tuple[str, ...]] = None
    api_version: int = API_VERSION

    def validate(self) -> None:
        try:
            check(self)
        except ValueError as exc:
            raise ProtocolError(f"submit: {exc}") from exc
        if self.trace and self.kind != "run":
            raise ProtocolError(
                "trace streaming is only supported for kind='run' jobs "
                "(sweep points execute in worker processes)"
            )
        if not self.tenant:
            raise ProtocolError("tenant must be a non-empty string")
        unknown = [c for c in self.trace_filter or () if c not in CATEGORIES]
        if unknown:
            raise ProtocolError(
                f"unknown trace categories {unknown}; "
                f"choose from {list(CATEGORIES)}"
            )


@dataclass(frozen=True)
class FigurePayload:
    """A ``figure`` job's payload, less its adaptive policy fields: the
    arguments of :func:`repro.api.figure`, with the figure-specific
    axes (``protocols``, ``sides``, ...) as value lists under ``axes``."""

    name: str
    speed: float = 1.0
    scale: float = 1.0
    seed: int = 1
    seeds: int = 1
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobProgress:
    """Point-level progress of a sweep/figure job (0/0 for run jobs
    until they finish)."""

    done: int = 0
    total: int = 0
    cached: int = 0


@dataclass(frozen=True)
class JobView:
    """``GET /v1/jobs/<id>`` body (and the ``job`` member of submit
    responses).  Times are server wall-clock seconds since the epoch;
    unset ones are ``None``."""

    job_id: str
    kind: JobKind
    state: JobState
    tenant: str
    created_s: float
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    progress: JobProgress = field(default_factory=JobProgress)
    #: True when the submit was answered entirely from the result cache.
    cache_hit: bool = False
    #: True when the submit matched an identical in-flight job and this
    #: view describes that job rather than a new one.
    deduped: bool = False
    error: Optional[str] = None
    api_version: int = API_VERSION


@dataclass(frozen=True)
class ErrorView:
    """Every non-2xx response body."""

    status: int
    error: str
    detail: str = ""
    api_version: int = API_VERSION


# ----------------------------------------------------------------------
# Payload resolution
# ----------------------------------------------------------------------
def config_from_payload(payload: Mapping[str, Any]) -> Any:
    """An :class:`ExperimentConfig` from a ``run`` payload (validated)."""
    try:
        config = ExperimentConfig.from_dict(payload)
        config.validate()
    except (TypeError, ValueError, KeyError) as exc:
        raise ProtocolError(f"bad experiment config: {exc}") from exc
    return config


def _validate_grid(spec: Any) -> None:
    """Validate every expanded config of ``spec``, so unknown axis
    names and bad values fail at submit, not in a worker."""
    for point in spec.expand():
        point.config.validate()


def spec_from_payload(payload: Mapping[str, Any]) -> Any:
    """A :class:`SweepSpec` from a ``sweep`` payload (validated)."""
    try:
        spec = decode(SweepSpec, {"name": "sweep", **payload})
        plans = spec.axes.get("faults")
        if plans is not None:
            spec.axes["faults"] = [
                FaultPlan.from_dict(v) if isinstance(v, Mapping) else v
                for v in plans
            ]
        _validate_grid(spec)
    except (TypeError, ValueError, KeyError) as exc:
        raise ProtocolError(f"bad sweep spec: {exc}") from exc
    return spec


def figure_policy_fields(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The adaptive policy a ``figure`` payload carries inline: its
    :class:`~repro.experiments.adaptive.ReplicationPolicy` fields."""
    from repro.api import ReplicationPolicy

    names = {f.name for f in fields(ReplicationPolicy)}
    return {k: v for k, v in payload.items() if k in names}


def figure_kwargs_from_payload(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Validated keyword arguments for :func:`repro.api.figure`, less
    the adaptive policy fields: the figure's plan is built and every
    sweep it declares is validated, as a sweep payload's is."""
    from repro.api import figure_plan

    policy = figure_policy_fields(payload)
    try:
        request = decode(FigurePayload, {
            k: v for k, v in payload.items() if k not in policy
        })
        kwargs = {
            f.name: getattr(request, f.name)
            for f in fields(request)
            if f.name != "axes"
        }
        seeds = range(request.seed, request.seed + request.seeds)
        plan = figure_plan(
            request.name, request.speed, request.scale, seeds, **request.axes
        )
        for spec in plan.sweeps:
            _validate_grid(spec)
    except (TypeError, ValueError, KeyError) as exc:
        raise ProtocolError(f"bad figure: {exc}") from exc
    return {**kwargs, **request.axes}


def adaptive_from_payload(payload: Mapping[str, Any]) -> Any:
    """A validated :class:`~repro.experiments.adaptive.ReplicationPolicy`
    from the ``adaptive`` block of a sweep payload (or the adaptive
    fields of a figure payload)."""
    from repro.api import ReplicationPolicy

    try:
        return decode(ReplicationPolicy, payload)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad adaptive policy: {exc}") from exc


def sweep_envelope(run: Any) -> Dict[str, Any]:
    """The schema-versioned HTTP record of a finished sweep: one
    ``result`` record per outcome, tagged with its axis coordinates.

    Sweeps executed under adaptive replication additionally carry a
    ``"precision"`` key (:meth:`PrecisionReport.to_dict
    <repro.experiments.adaptive.PrecisionReport.to_dict>`) —
    additive and conditional, so fixed-grid envelopes are unchanged.
    """
    envelope = {
        "schema": RESULT_SCHEMA,
        "kind": "sweep",
        "name": run.spec.name,
        "scale": run.spec.scale,
        "executed": run.executed,
        "cached": run.cached,
        "outcomes": [
            {
                "axes": dict(o.point.axes),
                "cached": o.cached,
                "retried": o.retried,
                "result": result_to_dict(o.result),
            }
            for o in run.outcomes
        ],
    }
    if run.precision is not None:
        envelope["precision"] = run.precision.to_dict()
    return envelope
