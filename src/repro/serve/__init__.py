"""Simulation-as-a-service: an asyncio job server over the sweep engine.

``ecgrid serve`` exposes the experiment layer behind one stable,
versioned HTTP surface (see ``docs/serving.md``):

- :mod:`repro.serve.protocol` — typed request/response dataclasses,
  stamped with the experiment layer's export schema
  (``RESULT_SCHEMA``);
- :mod:`repro.serve.jobs` — the job table (states, per-tenant quotas,
  dedup of identical in-flight cache keys, cache-hit fast path);
- :mod:`repro.serve.events` — server-sent-events framing plus the
  per-job stream that carries its state, progress and trace events;
- :mod:`repro.serve.app` — HTTP routes and server lifecycle.

Exports resolve lazily, so importing one module of the package (the
wire protocol, say) does not load the asyncio server machinery.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    # protocol
    "API_VERSION": "repro.serve.protocol",
    "RESULT_SCHEMA": "repro.serve.protocol",
    "JOB_KINDS": "repro.serve.protocol",
    "JOB_STATES": "repro.serve.protocol",
    "ProtocolError": "repro.serve.protocol",
    "SubmitRequest": "repro.serve.protocol",
    "JobProgress": "repro.serve.protocol",
    "JobView": "repro.serve.protocol",
    "ErrorView": "repro.serve.protocol",
    # jobs
    "Job": "repro.serve.jobs",
    "JobTable": "repro.serve.jobs",
    "JobCancelled": "repro.serve.jobs",
    "QuotaExceeded": "repro.serve.jobs",
    "UnknownJob": "repro.serve.jobs",
    # events
    "JobStream": "repro.serve.events",
    "TraceRelay": "repro.serve.events",
    "sse_frame": "repro.serve.events",
    "parse_sse": "repro.serve.events",
    # app
    "JobServer": "repro.serve.app",
    "ServerConfig": "repro.serve.app",
    "serve": "repro.serve.app",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
