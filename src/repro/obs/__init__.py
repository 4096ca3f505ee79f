"""Observability: structured tracing, counter registry, invariant
auditors (see ``docs/observability.md``)."""

from repro._lazy import lazy_exports

#: Exported name -> the module that defines it.  Each resolves on first
#: use (PEP 562): a run loads the tracer through ``repro.obs.trace``,
#: and the auditors and trace reductions only when someone asks.
_EXPORTS = {
    "Auditor": "repro.obs.audit",
    "AuditViolation": "repro.obs.audit",
    "BufferFlushAuditor": "repro.obs.audit",
    "ConservationAuditor": "repro.obs.audit",
    "GatewayUniquenessAuditor": "repro.obs.audit",
    "SleepingTransmitAuditor": "repro.obs.audit",
    "audit_report": "repro.obs.audit",
    "standard_auditors": "repro.obs.audit",
    "CounterRegistry": "repro.obs.counters",
    "gateway_tenures": "repro.obs.report",
    "no_gateway_intervals": "repro.obs.report",
    "percentiles": "repro.obs.report",
    "CATEGORIES": "repro.obs.trace",
    "NULL_TRACER": "repro.obs.trace",
    "TRACE_JSONL_SCHEMA": "repro.obs.trace",
    "NullTracer": "repro.obs.trace",
    "TraceEvent": "repro.obs.trace",
    "Tracer": "repro.obs.trace",
    "load_jsonl": "repro.obs.trace",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
