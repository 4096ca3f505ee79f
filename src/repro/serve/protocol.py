"""The job server's typed wire protocol — and the one result schema.

Everything that crosses the HTTP boundary is a dataclass here with an
explicit ``api_version``, and every dataclass round-trips through
``to_dict``/``from_dict`` (tested in ``tests/serve/test_protocol.py``).
Unknown fields, wrong kinds, and version skew fail loudly with a
:class:`ProtocolError` carrying the HTTP status to answer with.

This module is also the single home of :data:`RESULT_SCHEMA`, the
version stamp of result/figure export records.  The CLI's file export
(:mod:`repro.experiments.export`) and the server's HTTP responses emit
the *same* records with the same stamp — there is exactly one schema to
migrate when the layout changes (see ``docs/sweeps.md``).

Module-level imports are stdlib-only on purpose: the experiment layer
imports its schema constant from here, so pulling in the server stack
(or the experiment stack) at import time would be a cycle.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Version of the HTTP API surface (the ``/v1`` path prefix and every
#: request/response layout in this module).  Bump only on breaking
#: changes; additive response fields do not bump it.
API_VERSION = 1

#: Version of the exported result/figure dict layout — shared by the
#: on-disk cache, CLI ``--json`` export, and HTTP result responses.
#: Bump on any change to the keys or their meaning; cached results with
#: a stale schema are treated as misses.
#:
#: 2: added per-reason drop accounting (``dropped``, ``drop_reasons``)
#:    and fault-recovery scalars (``recovery``).
#: 3: unified result and figure records under one discriminated schema:
#:    every record now carries ``"kind"`` (``"result"`` / ``"figure"`` /
#:    ``"sweep"``) next to ``"schema"``, so a reader can dispatch
#:    without guessing from the key set.  Values are unchanged.
#:
#:    Additive (no bump): figure/sweep records produced under adaptive
#:    replication carry optional ``"ci"`` / ``"precision"`` keys;
#:    fixed-grid records are byte-identical to plain v3 and readers
#:    must treat both keys as optional (see docs/sweeps.md).
RESULT_SCHEMA = 3

#: Submittable job kinds.
JOB_KINDS = ("run", "sweep", "figure")

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")


class ProtocolError(ValueError):
    """A malformed or unsupported request; ``status`` is the HTTP
    answer (400 unless the constructor says otherwise)."""

    def __init__(self, detail: str, status: int = 400) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


def _require_version(data: Mapping[str, Any], what: str) -> None:
    version = data.get("api_version", API_VERSION)
    if version != API_VERSION:
        raise ProtocolError(
            f"{what}: unsupported api_version {version!r} "
            f"(this server speaks {API_VERSION})"
        )


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
    - ``figure`` — ``{"name", "speed", "scale", "seed", "seeds",
      "axes"}`` for the figure registry, plus optional adaptive fields
      (``target_ci``, ``max_seeds``, ``min_seeds``, ``batch``,
      ``confidence``).

    ``trace=True`` (``run`` jobs only) attaches a tracer and streams
    its events over the job's SSE channel; ``trace_filter`` narrows the
    recorded categories.
    """

    kind: str
    payload: Mapping[str, Any]
    tenant: str = "public"
    trace: bool = False
    trace_filter: Optional[Tuple[str, ...]] = None
    api_version: int = API_VERSION

    _FIELDS = (
        "kind", "payload", "tenant", "trace", "trace_filter", "api_version",
    )

    def validate(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ProtocolError(
                f"unknown job kind {self.kind!r}; choose from {JOB_KINDS}"
            )
        if not isinstance(self.payload, Mapping):
            raise ProtocolError("payload must be a JSON object")
        if self.trace and self.kind != "run":
            raise ProtocolError(
                "trace streaming is only supported for kind='run' jobs "
                "(sweep points execute in worker processes)"
            )
        if not self.tenant or not isinstance(self.tenant, str):
            raise ProtocolError("tenant must be a non-empty string")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "api_version": self.api_version,
            "kind": self.kind,
            "payload": dict(self.payload),
            "tenant": self.tenant,
            "trace": self.trace,
            "trace_filter": (
                list(self.trace_filter) if self.trace_filter else None
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SubmitRequest":
        if not isinstance(data, Mapping):
            raise ProtocolError("request body must be a JSON object")
        unknown = set(data) - set(cls._FIELDS)
        if unknown:
            raise ProtocolError(
                f"unknown request field(s) {sorted(unknown)}; "
                f"expected a subset of {list(cls._FIELDS)}"
            )
        _require_version(data, "submit")
        if "kind" not in data:
            raise ProtocolError("submit: missing required field 'kind'")
        if "payload" not in data:
            raise ProtocolError("submit: missing required field 'payload'")
        trace_filter = data.get("trace_filter")
        request = cls(
            kind=data["kind"],
            payload=data["payload"],
            tenant=data.get("tenant", "public"),
            trace=bool(data.get("trace", False)),
            trace_filter=tuple(trace_filter) if trace_filter else None,
            api_version=data.get("api_version", API_VERSION),
        )
        request.validate()
        return request

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "SubmitRequest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"invalid JSON body: {exc}") from exc
        return cls.from_dict(data)


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

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobProgress":
        return cls(
            done=int(data.get("done", 0)),
            total=int(data.get("total", 0)),
            cached=int(data.get("cached", 0)),
        )


@dataclass(frozen=True)
class JobView:
    """``GET /v1/jobs/<id>`` body (and the ``job`` member of submit
    responses).  Times are server wall-clock seconds since the epoch;
    unset ones are ``None``."""

    job_id: str
    kind: str
    state: str
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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "api_version": self.api_version,
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "tenant": self.tenant,
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "progress": self.progress.to_dict(),
            "cache_hit": self.cache_hit,
            "deduped": self.deduped,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobView":
        _require_version(data, "job view")
        if data.get("state") not in JOB_STATES:
            raise ProtocolError(
                f"job view: unknown state {data.get('state')!r}"
            )
        return cls(
            job_id=data["job_id"],
            kind=data["kind"],
            state=data["state"],
            tenant=data["tenant"],
            created_s=data["created_s"],
            started_s=data.get("started_s"),
            finished_s=data.get("finished_s"),
            progress=JobProgress.from_dict(data.get("progress", {})),
            cache_hit=bool(data.get("cache_hit", False)),
            deduped=bool(data.get("deduped", False)),
            error=data.get("error"),
            api_version=data.get("api_version", API_VERSION),
        )


@dataclass(frozen=True)
class ErrorView:
    """Every non-2xx response body."""

    status: int
    error: str
    detail: str = ""
    api_version: int = API_VERSION

    def to_dict(self) -> Dict[str, Any]:
        return {
            "api_version": self.api_version,
            "status": self.status,
            "error": self.error,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ErrorView":
        _require_version(data, "error view")
        return cls(
            status=int(data["status"]),
            error=data["error"],
            detail=data.get("detail", ""),
            api_version=data.get("api_version", API_VERSION),
        )


# ----------------------------------------------------------------------
# Payload resolution (lazy experiment-layer imports; see module note)
# ----------------------------------------------------------------------
def config_from_payload(payload: Mapping[str, Any]) -> Any:
    """An :class:`ExperimentConfig` from a ``run`` payload (validated)."""
    from repro.api import ExperimentConfig

    try:
        config = ExperimentConfig.from_dict(payload)
        config.validate()
    except (TypeError, ValueError, KeyError) as exc:
        raise ProtocolError(f"bad experiment config: {exc}") from exc
    return config


def spec_from_payload(payload: Mapping[str, Any]) -> Any:
    """A :class:`SweepSpec` from a ``sweep`` payload (validated)."""
    from repro.api import ExperimentConfig, FaultPlan, SweepSpec

    axes = payload.get("axes", {})
    if not isinstance(axes, Mapping) or not all(
        isinstance(v, Sequence) and not isinstance(v, (str, bytes))
        for v in axes.values()
    ):
        raise ProtocolError("sweep axes must map names to value lists")
    try:
        resolved: Dict[str, List[Any]] = {}
        for name, values in axes.items():
            if name == "faults":
                values = [
                    FaultPlan.from_dict(v) if isinstance(v, Mapping) else v
                    for v in values
                ]
            resolved[name] = list(values)
        spec = SweepSpec(
            name=payload.get("name", "sweep"),
            base=ExperimentConfig.from_dict(payload.get("base", {})),
            axes=resolved,
            scale=float(payload.get("scale", 1.0)),
        )
        spec.expand()  # surfaces unknown axis names / bad values now
    except (TypeError, ValueError, KeyError) as exc:
        raise ProtocolError(f"bad sweep spec: {exc}") from exc
    return spec


def spec_to_payload(spec: Any) -> Dict[str, Any]:
    """Inverse of :func:`spec_from_payload` (fault plans re-serialize)."""
    axes: Dict[str, List[Any]] = {}
    for name, values in spec.axes.items():
        axes[name] = [
            v.to_dict() if hasattr(v, "to_dict") and name == "faults" else v
            for v in values
        ]
    return {
        "name": spec.name,
        "base": spec.base.to_dict(),
        "axes": axes,
        "scale": spec.scale,
    }


def figure_kwargs_from_payload(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Validated keyword arguments for :func:`repro.api.figure`."""
    from repro.api import FIGURES, NON_ADAPTIVE_FIGURES

    name = payload.get("name")
    if not name:
        raise ProtocolError("figure payload needs a 'name'")
    key = str(name).replace("_", "-")
    if key not in FIGURES:
        raise ProtocolError(
            f"unknown figure {name!r}; choose from {sorted(FIGURES)}"
        )
    known = {
        "name", "speed", "scale", "seed", "seeds", "axes",
        "target_ci", "max_seeds", "min_seeds", "batch", "confidence",
    }
    unknown = set(payload) - known
    if unknown:
        raise ProtocolError(
            f"unknown figure field(s) {sorted(unknown)}; "
            f"expected a subset of {sorted(known)}"
        )
    axes = payload.get("axes", {})
    if not isinstance(axes, Mapping):
        raise ProtocolError("figure 'axes' must be a JSON object")
    kwargs = {
        "name": str(name),
        "speed": float(payload.get("speed", 1.0)),
        "scale": float(payload.get("scale", 1.0)),
        "seed": int(payload.get("seed", 1)),
        "seeds": int(payload.get("seeds", 1)),
        **{k: v for k, v in axes.items()},
    }
    adaptive_fields = {
        "target_ci", "max_seeds", "min_seeds", "batch", "confidence",
    } & set(payload)
    if adaptive_fields:
        if "target_ci" not in payload:
            raise ProtocolError(
                f"figure field(s) {sorted(adaptive_fields)} need "
                f"'target_ci' (adaptive replication; see docs/sweeps.md)"
            )
        if key in NON_ADAPTIVE_FIGURES:
            raise ProtocolError(
                f"figure {key!r} runs outside the sweep engine and has no "
                f"adaptive replication; drop 'target_ci' and use 'seeds'"
            )
        policy = adaptive_from_payload(
            {k: payload[k] for k in adaptive_fields}
        )
        kwargs.update(policy.to_dict())
        del kwargs["gate_scalars"]
    return kwargs


def adaptive_from_payload(payload: Mapping[str, Any]) -> Any:
    """A validated :class:`~repro.experiments.adaptive.ReplicationPolicy`
    from the ``adaptive`` block of a sweep payload (or the adaptive
    fields of a figure payload)."""
    from repro.api import ReplicationPolicy

    if not isinstance(payload, Mapping):
        raise ProtocolError("'adaptive' must be a JSON object")
    try:
        return ReplicationPolicy.from_dict(payload)
    except (TypeError, ValueError, KeyError) as exc:
        raise ProtocolError(f"bad adaptive policy: {exc}") from exc


def sweep_envelope(run: Any) -> Dict[str, Any]:
    """The schema-versioned HTTP record of a finished sweep: one
    ``result`` record per outcome, tagged with its axis coordinates.

    Sweeps executed under adaptive replication additionally carry a
    ``"precision"`` key (the
    :class:`~repro.experiments.adaptive.PrecisionReport` dict) —
    additive and conditional, so fixed-grid envelopes are unchanged.
    """
    from repro.api import result_to_dict

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
    if getattr(run, "precision", None) is not None:
        envelope["precision"] = dict(run.precision)
    return envelope
