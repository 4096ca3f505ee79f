"""Golden-trace recording: the determinism contract, made executable.

A :class:`TraceRecorder` hashes the exact dispatch sequence of a run —
``(time, priority, seq, callback-qualname)`` per executed event — and
:func:`state_digest_record` reduces the end state (medium stats,
counters, packet log, per-node batteries) to a canonical record.  Two
kernels are *equivalent* iff both digests match on the same scenario.

``tests/data/golden_kernel.json`` pins the digests produced by the
pre-optimization seed kernel; ``tests/perf/test_golden_trace.py``
asserts the optimized kernel still reproduces them bit-for-bit, which
is what keeps every :meth:`ExperimentConfig.cache_key` result valid
across kernel work.  The hashing scheme is schema-versioned — bump
:data:`TRACE_SCHEMA` if the format ever changes, and regenerate.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Tuple

from repro.perf.profile import callback_name

#: Version of the trace/state hashing scheme below.
TRACE_SCHEMA = 1


class TraceRecorder:
    """Streams the dispatch sequence into a SHA-256.

    Attach with ``sim.instrument(recorder)``.  The digest is a pure
    function of the dispatch order (times are hashed via ``repr``, so
    they are bit-exact), never of wall-clock timing.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.events = 0

    def on_dispatch(self, event: Any, elapsed: float, queue_len: int) -> None:
        self._hash.update(
            f"{event.time!r}|{event.priority}|{event.seq}|"
            f"{callback_name(event.fn)}\n".encode()
        )
        self.events += 1

    def digest(self) -> str:
        return self._hash.hexdigest()


def state_digest_record(network: Any) -> Dict[str, Any]:
    """Canonical end-of-run state record for equivalence checking."""
    sim = network.sim
    med = network.medium.stats
    log = network.packet_log
    return {
        "events_executed": sim.events_executed,
        "now": repr(sim.now),
        "medium": {
            "frames_sent": med.frames_sent,
            "frames_delivered": med.frames_delivered,
            "frames_corrupted": med.frames_corrupted,
            "frames_missed_asleep": med.frames_missed_asleep,
            "bytes_sent": med.bytes_sent,
        },
        "counters": dict(sorted(network.counters.snapshot().items())),
        "packets": {
            "sent": log.sent_count,
            "delivered": log.delivered_count,
            "duplicates": log.duplicates,
            "mean_latency": repr(log.mean_latency()),
            "mean_hops": repr(log.mean_hops()),
        },
        "nodes": [
            [n.id, n.alive, repr(n.battery.remaining_at(sim.now))]
            for n in network.nodes
        ],
    }


def state_digest(network: Any) -> str:
    record = state_digest_record(network)
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()
    ).hexdigest()


def golden_run(config: Any) -> Tuple[str, str, Dict[str, Any]]:
    """Run one scenario with tracing; return (trace, state, record).

    Semantics match ``Network.run(until=config.sim_time_s)`` exactly:
    only events dispatched by the run loop are hashed (the sampler's
    final out-of-loop sample contributes to the *state* digest only).
    """
    from repro.experiments.runner import build_network

    network = build_network(config)
    recorder = TraceRecorder()
    network.run(until=config.sim_time_s, instruments=(recorder,))
    record = state_digest_record(network)
    state = state_digest(network)
    network.close()
    return recorder.digest(), state, record
