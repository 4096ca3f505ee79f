"""Measurement: packet bookkeeping, energy sampling, event counters."""

from repro._lazy import lazy_exports

#: Exported name -> the module that defines it, resolved on first use
#: (PEP 562), so a run does not load the frame sniffer.
_EXPORTS = {
    "TimeSeries": "repro.metrics.timeseries",
    "PacketLog": "repro.metrics.collectors",
    "EnergySampler": "repro.metrics.collectors",
    "Counters": "repro.metrics.collectors",
    "ModeTracker": "repro.metrics.modes",
    "Sniffer": "repro.metrics.sniffer",
    "SniffedFrame": "repro.metrics.sniffer",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
