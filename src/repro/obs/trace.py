"""Structured protocol-event tracing.

A :class:`Tracer` collects typed events (``gateway.elect``,
``page.sent``, ``rreq.flood``, ``cell.enter``, ``drop.*`` ...) from
every layer of the stack into ring-buffered per-category streams, and
can export them as schema-versioned JSONL (round-tripped by
:func:`load_jsonl`).

The design contract is **zero cost when off**: every emission site in
hot code is guarded by a per-category boolean attribute on the tracer
(``tr = self.tracer; if tr.gateway: tr.emit(...)``), and the default
tracer everywhere is the module-level :data:`NULL_TRACER`, whose flags
are all False — a disabled site costs one attribute load and one branch
and never builds an event.  With no tracer attached a run's dispatch
order, RNG streams, counters and metrics are bit-for-bit identical to
an untraced run; the golden-trace harness in ``tests/perf`` pins that.

Emitting never schedules simulator events, draws randomness, or touches
the shared counters, so even with tracing *on* the simulation remains
bit-for-bit identical — tracing only observes.

Online invariant checking subscribes through :meth:`Tracer.subscribe`
(see :mod:`repro.obs.audit`): subscribers receive every event of their
categories synchronously at emission time.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Version of the JSONL export layout.
TRACE_JSONL_SCHEMA = 1

#: Every event category, in stream order.  An event's category is the
#: first dotted component of its name (``gateway.elect`` -> ``gateway``).
#:
#: - ``gateway``: elections, demotions, retirements, conflicts
#: - ``page``: RAS paging and gateway paging-buffer state
#: - ``rreq``: route-discovery floods
#: - ``cell``: grid-cell crossings
#: - ``drop``: per-packet protocol discards (``drop.<reason>``)
#: - ``packet``: end-to-end packet accounting (sent/delivered/dropped)
#: - ``radio``: physical transmissions (for the sleep-safety auditor)
#: - ``fault``: injected fault activations
#:
#: A tracer records every category unless told otherwise.  Kernel
#: dispatch counts and timings come from ``ecgrid run --profile``
#: (:class:`repro.perf.profile.KernelProfiler`), not from a category.
CATEGORIES = (
    "gateway", "page", "rreq", "cell", "drop", "packet", "radio",
    "fault",
)


class TraceEvent:
    """One traced occurrence: a global sequence number, a simulation
    time, a dotted name, the emitting node (or None for network-level
    events) and free-form ``fields``."""

    __slots__ = ("seq", "t", "name", "category", "node", "fields")

    def __init__(
        self,
        seq: int,
        t: float,
        name: str,
        category: str,
        node: Optional[int],
        fields: Dict[str, Any],
    ) -> None:
        self.seq = seq
        self.t = t
        self.name = name
        self.category = category
        self.node = node
        self.fields = fields

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "t": self.t,
            "name": self.name,
            "node": self.node,
            "fields": self.fields,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        name = data["name"]
        return cls(
            data["seq"],
            data["t"],
            name,
            name.partition(".")[0],
            data.get("node"),
            _tuplify(data.get("fields", {})),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (
            self.seq == other.seq
            and self.t == other.t
            and self.name == other.name
            and self.node == other.node
            and self.fields == other.fields
        )

    def __repr__(self) -> str:  # pragma: no cover
        extra = "".join(f" {k}={v!r}" for k, v in self.fields.items())
        return f"<{self.name} #{self.seq} t={self.t:.6f} node={self.node}{extra}>"


def _tuplify(value: Any) -> Any:
    """JSON has no tuples; restore lists to tuples so a loaded event
    compares equal to the in-memory one (grid cells are tuples)."""
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    if isinstance(value, dict):
        return {k: _tuplify(v) for k, v in value.items()}
    return value


class NullTracer:
    """The disabled tracer: every category flag is False and
    :meth:`emit` does nothing.  Installed as the class-level default on
    every traced component, so untraced runs never pay more than a
    boolean test per guarded site."""

    active = False
    gateway = page = rreq = cell = drop = packet = radio = fault = False

    def emit(self, name: str, node: Optional[int] = None,
             t: Optional[float] = None, **fields: Any) -> None:
        return None

    def bind(self, sim: Any) -> None:
        return None

    def subscribe(self, auditor: Any) -> None:
        raise RuntimeError(
            "cannot subscribe to the null tracer; attach a real Tracer "
            "to the network first (Network.attach_tracer)"
        )


#: The shared disabled tracer (stateless; one instance serves everyone).
NULL_TRACER = NullTracer()


class Tracer:
    """Collects :class:`TraceEvent` streams, one ring buffer per
    category.

    ``categories`` selects which categories record (default: all);
    ``ring`` bounds each stream's length (oldest events are evicted,
    counted in :attr:`evicted`).  Per-category boolean attributes
    (``tracer.gateway`` ...) are the emission guards hot call sites
    test.
    """

    def __init__(
        self,
        categories: Optional[Sequence[str]] = None,
        ring: int = 65536,
    ) -> None:
        if categories is None:
            categories = CATEGORIES
        unknown = set(categories) - set(CATEGORIES)
        if unknown:
            raise ValueError(
                f"unknown trace categories {sorted(unknown)}; "
                f"choose from {CATEGORIES}"
            )
        self.active = True
        self.ring = ring
        self.evicted: Dict[str, int] = {c: 0 for c in CATEGORIES}
        self._streams: Dict[str, deque] = {
            c: deque(maxlen=ring) for c in CATEGORIES
        }
        self._subscribers: Dict[str, List[Any]] = {c: [] for c in CATEGORIES}
        self._seq = 0
        self._sim: Optional[Any] = None
        for c in CATEGORIES:
            setattr(self, c, c in categories)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def bind(self, sim: Any) -> None:
        """Attach the simulator whose clock timestamps emissions
        (``None`` detaches it, as :meth:`Network.close` does)."""
        self._sim = sim

    def enable(self, *categories: str) -> None:
        for c in categories:
            if c not in CATEGORIES:
                raise ValueError(f"unknown trace category {c!r}")
            setattr(self, c, True)

    def disable(self, *categories: str) -> None:
        for c in categories:
            if c not in CATEGORIES:
                raise ValueError(f"unknown trace category {c!r}")
            setattr(self, c, False)

    def enabled_categories(self) -> Tuple[str, ...]:
        return tuple(c for c in CATEGORIES if getattr(self, c))

    def subscribe(self, auditor: Any) -> None:
        """Route events of ``auditor.categories`` to
        ``auditor.on_event`` (synchronously, at emission).  Enables the
        categories the auditor needs."""
        for c in auditor.categories:
            if c not in CATEGORIES:
                raise ValueError(f"unknown trace category {c!r}")
            setattr(self, c, True)
            subs = self._subscribers[c]
            if auditor not in subs:
                subs.append(auditor)

    def unsubscribe(self, auditor: Any) -> None:
        """Stop routing events to ``auditor``; the categories it
        enabled stay enabled."""
        for c in auditor.categories:
            if auditor in self._subscribers[c]:
                self._subscribers[c].remove(auditor)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, name: str, node: Optional[int] = None,
             t: Optional[float] = None, **fields: Any) -> Optional[TraceEvent]:
        """Record one event.  The category is ``name`` up to the first
        dot; emissions to disabled categories are dropped (call sites
        should guard on the category flag and never get here, but
        unguarded sites stay correct)."""
        category = name.partition(".")[0]
        stream = self._streams.get(category)
        if stream is None:
            raise ValueError(f"event {name!r} has no known category")
        if not getattr(self, category):
            return None
        if t is None:
            t = self._sim.now if self._sim is not None else 0.0
        self._seq += 1
        event = TraceEvent(self._seq, t, name, category, node, fields)
        if len(stream) == stream.maxlen:
            self.evicted[category] += 1
        stream.append(event)
        for sub in self._subscribers[category]:
            sub.on_event(event)
        return event

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    def events(self, *categories: str) -> List[TraceEvent]:
        """Events of the given categories (default: all), merged in
        emission order."""
        if not categories:
            categories = CATEGORIES
        streams = [self._streams[c] for c in categories]
        merged = [e for s in streams for e in s]
        merged.sort(key=lambda e: e.seq)
        return merged

    def count(self, category: str) -> int:
        return len(self._streams[category])

    def counts(self) -> Dict[str, int]:
        return {c: len(s) for c, s in self._streams.items() if s}

    # ------------------------------------------------------------------
    # JSONL export / import
    # ------------------------------------------------------------------
    def export_jsonl(self, path: str) -> int:
        """Write a header line plus one JSON object per event; returns
        the number of events written.  Load with :func:`load_jsonl`."""
        events = self.events()
        header = {
            "schema": TRACE_JSONL_SCHEMA,
            "kind": "ecgrid-trace",
            "categories": list(self.enabled_categories()),
            "counts": self.counts(),
            "evicted": {c: n for c, n in self.evicted.items() if n},
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for event in events:
                fh.write(json.dumps(event.to_dict()) + "\n")
        return len(events)


def load_jsonl(path: str) -> Tuple[Dict[str, Any], List[TraceEvent]]:
    """Load a trace written by :meth:`Tracer.export_jsonl`.

    Returns ``(header, events)``; raises ``ValueError`` on a missing or
    mismatched schema so stale files fail loudly.
    """
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty trace file")
        header = json.loads(first)
        if header.get("kind") != "ecgrid-trace":
            raise ValueError(f"{path}: not an ecgrid trace file")
        if header.get("schema") != TRACE_JSONL_SCHEMA:
            raise ValueError(
                f"{path}: trace schema {header.get('schema')!r} "
                f"!= {TRACE_JSONL_SCHEMA}"
            )
        events = [TraceEvent.from_dict(json.loads(line)) for line in fh if line.strip()]
    return header, events
