"""Online invariant auditors over the trace bus.

Auditors subscribe to a :class:`~repro.obs.trace.Tracer`
(``tracer.subscribe(auditor)``) and check protocol invariants *as the
run executes*, so a violation carries the exact simulation time and
node instead of surfacing later as silent metric skew.  They complement
the sampling :class:`~repro.experiments.validate.InvariantChecker`:
that one polls network state every few seconds; these see every event.

Shipped auditors (:func:`standard_auditors`):

- :class:`GatewayUniquenessAuditor` — at most one gateway per grid
  cell, modulo a short grace period for the protocol-legal handoff
  window (conflict resolution takes up to a HELLO exchange), and a
  demote names the cell its gateway was elected in;
- :class:`BufferFlushAuditor` — a non-empty gateway paging buffer
  always has a flush in flight (the PR-3 stuck-buffer bug class);
- :class:`SleepingTransmitAuditor` — a sleeping radio never transmits;
- :class:`ConservationAuditor` — end-to-end packet accounting:
  ``delivered + dropped <= sent``, no stray uids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs.trace import TraceEvent


@dataclass(frozen=True)
class AuditViolation:
    """One detected invariant breach, with its exact event time."""

    t: float
    auditor: str
    kind: str
    node: Optional[int]
    detail: str

    def __str__(self) -> str:
        who = "-" if self.node is None else str(self.node)
        return (
            f"[{self.auditor}] t={self.t:.6f} node={who} "
            f"{self.kind}: {self.detail}"
        )


class Auditor:
    """Base class: subscribes to ``categories``, accumulates
    :class:`AuditViolation` records in :attr:`violations`."""

    #: Trace categories this auditor consumes (``Tracer.subscribe``
    #: force-enables them).
    categories: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.violations: List[AuditViolation] = []

    @property
    def name(self) -> str:
        return type(self).__name__

    def flag(self, t: float, kind: str, node: Optional[int], detail: str) -> None:
        self.violations.append(
            AuditViolation(t, self.name, kind, node, detail)
        )

    def on_event(self, event: TraceEvent) -> None:  # pragma: no cover
        raise NotImplementedError

    def finish(self, t_end: float) -> None:
        """Close out at end-of-run (flag still-open conditions)."""

    @property
    def clean(self) -> bool:
        return not self.violations


class GatewayUniquenessAuditor(Auditor):
    """At most one gateway per grid cell.

    Elections and handoffs legally overlap for a short window (the loser
    of a conflict discovers the winner via HELLO, up to a HELLO period
    later), so duplicate occupancy is only a violation once it outlives
    ``grace_s``.  A ``gateway.demote`` whose ``cell`` is not the cell
    the node was elected in is flagged at once (``demote_cell``); a
    demote without a ``cell`` field is not checked.
    """

    categories = ("gateway",)

    def __init__(self, grace_s: float = 3.0) -> None:
        super().__init__()
        self.grace_s = grace_s
        #: cell -> set of node ids currently holding GATEWAY there.
        self._cells: Dict[Tuple[int, int], Set[int]] = {}
        #: node -> its gateway cell (from the elect event).
        self._node_cell: Dict[int, Tuple[int, int]] = {}
        #: cell -> time the cell became multiply occupied.
        self._dup_since: Dict[Tuple[int, int], float] = {}

    def on_event(self, event: TraceEvent) -> None:
        node = event.node
        if event.name == "gateway.elect":
            cell = event.fields.get("cell")
            if cell is None or node is None:
                return
            old = self._node_cell.get(node)
            if old is not None and old != cell:
                self._leave(old, node, event.t)
            self._node_cell[node] = cell
            occupants = self._cells.setdefault(cell, set())
            occupants.add(node)
            if len(occupants) > 1 and cell not in self._dup_since:
                self._dup_since[cell] = event.t
        elif event.name == "gateway.demote":
            if node is None:
                return
            cell = self._node_cell.pop(node, None)
            if cell is None:
                return
            named = event.fields.get("cell")
            if named is not None and named != cell:
                self.flag(
                    event.t, "demote_cell", node,
                    f"demote names cell {named}, but the node was "
                    f"elected in cell {cell}",
                )
            self._leave(cell, node, event.t)

    def _leave(self, cell: Tuple[int, int], node: int, t: float) -> None:
        occupants = self._cells.get(cell)
        if occupants is None:
            return
        occupants.discard(node)
        if len(occupants) <= 1 and cell in self._dup_since:
            since = self._dup_since.pop(cell)
            self._check(cell, since, t, occupants | {node})

    def _check(
        self, cell: Tuple[int, int], since: float, until: float,
        nodes: Set[int],
    ) -> None:
        duration = until - since
        if duration > self.grace_s:
            self.flag(
                since,
                "duplicate_gateways",
                min(nodes) if nodes else None,
                f"cell {cell} held gateways {sorted(nodes)} "
                f"concurrently for {duration:.3f}s (> {self.grace_s}s grace)",
            )

    def finish(self, t_end: float) -> None:
        for cell, since in list(self._dup_since.items()):
            self._check(cell, since, t_end, self._cells.get(cell, set()))
        self._dup_since.clear()


class BufferFlushAuditor(Auditor):
    """Whenever a gateway's per-host paging buffer is non-empty, a
    flush must be in flight — the seed-era stuck-buffer bug's exact
    signature (see ``tests/core/test_page_buffer_regression.py``).

    The routing engine emits a ``page.buffer`` state snapshot
    (``dest``, ``qlen``, ``pending``) at every point where the
    buffer/flush state settles; a snapshot with packets buffered and no
    flush pending is an immediate violation.
    """

    categories = ("page",)

    def on_event(self, event: TraceEvent) -> None:
        if event.name != "page.buffer":
            return
        qlen = event.fields.get("qlen", 0)
        pending = event.fields.get("pending", True)
        if qlen > 0 and not pending:
            self.flag(
                event.t,
                "stuck_buffer",
                event.node,
                f"dest {event.fields.get('dest')}: {qlen} packet(s) "
                f"buffered with no flush in flight",
            )


class SleepingTransmitAuditor(Auditor):
    """A radio whose transceiver is powered down must never transmit.

    The MAC emits ``radio.tx`` with the transmitter's awake state at
    the moment the frame hits the medium.
    """

    categories = ("radio",)

    def on_event(self, event: TraceEvent) -> None:
        if event.name != "radio.tx":
            return
        if not event.fields.get("awake", True):
            self.flag(
                event.t,
                "sleeping_transmit",
                event.node,
                f"transmitted {event.fields.get('bytes', '?')} bytes "
                f"while the radio was not awake",
            )


class ConservationAuditor(Auditor):
    """End-to-end packet conservation: every delivered or dropped uid
    was sent, and ``delivered + dropped <= sent`` at all times (the
    packet log's first-drop-wins / delivery-outranks-drop rules make
    the two sets disjoint)."""

    categories = ("packet",)

    def __init__(self) -> None:
        super().__init__()
        self.sent: Set[int] = set()
        self.delivered: Set[int] = set()
        self.dropped: Set[int] = set()

    def on_event(self, event: TraceEvent) -> None:
        uid = event.fields.get("uid")
        if uid is None:
            return
        if event.name == "packet.sent":
            self.sent.add(uid)
        elif event.name == "packet.delivered":
            if uid not in self.sent:
                self.flag(
                    event.t, "delivered_unsent", event.node,
                    f"uid {uid} delivered but never logged as sent",
                )
            if uid in self.delivered:
                self.flag(
                    event.t, "double_delivery", event.node,
                    f"uid {uid} recorded delivered twice",
                )
            self.delivered.add(uid)
            self.dropped.discard(uid)
        elif event.name == "packet.dropped":
            if uid not in self.sent:
                self.flag(
                    event.t, "dropped_unsent", event.node,
                    f"uid {uid} dropped but never logged as sent",
                )
            if uid in self.delivered:
                self.flag(
                    event.t, "drop_after_delivery", event.node,
                    f"uid {uid} dropped after delivery",
                )
            if uid in self.dropped:
                self.flag(
                    event.t, "double_drop", event.node,
                    f"uid {uid} dropped twice",
                )
            self.dropped.add(uid)

    def finish(self, t_end: float) -> None:
        resolved = len(self.delivered) + len(self.dropped)
        if resolved > len(self.sent):
            self.flag(
                t_end, "conservation", None,
                f"delivered({len(self.delivered)}) + "
                f"dropped({len(self.dropped)}) > sent({len(self.sent)})",
            )


def standard_auditors() -> List[Auditor]:
    """One fresh instance of every shipped auditor."""
    return [
        GatewayUniquenessAuditor(),
        BufferFlushAuditor(),
        SleepingTransmitAuditor(),
        ConservationAuditor(),
    ]


def audit_report(auditors: List[Auditor]) -> str:
    """Human-readable summary of a finished audit pass."""
    lines = []
    total = 0
    for auditor in auditors:
        lines.append(f"{auditor.name}: {len(auditor.violations)} violation(s)")
        for v in auditor.violations:
            lines.append(f"  {v}")
        total += len(auditor.violations)
    lines.insert(0, f"audit: {total} violation(s)")
    return "\n".join(lines)
