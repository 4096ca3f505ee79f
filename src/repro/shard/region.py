"""Region-local DES state for space-parallel sharding.

A :class:`Region` owns one vertical band of the plane: the calendar
(its own :class:`~repro.des.core.Simulator`), the medium's cell index
and active/tx lists, the RNG streams, and battery settlement for every
host currently located in the band.  Regions
never share mutable state; everything that crosses a band edge —
transmissions whose disk overlaps a neighbor, RAS pages, and hosts
that walked across — travels as plain-data records through a
:class:`RegionBus` once per synchronization window.

Ghost replicas
--------------
Every region builds the *full* scenario from the shared seed (per-name
SHA-256 RNG streams make mobility paths, flow schedules and endpoints
identical in all regions), then dormantizes the hosts it does not own:
radio off, battery monitor cancelled, unregistered from the medium and
the RAS, never started.  A ghost therefore costs no events, draws no
energy, and cannot die — but its deterministic mobility remains
evaluable, which is what lets a region compute any foreign host's
exact position without talking to its owner.

Boundary approximations (the statistical-equivalence contract)
--------------------------------------------------------------
- Frames and pages cross a band edge with one window of extra latency
  (a record produced in window *k* replays in window *k+1* at its
  original timestamp plus one window).
- A unicast DATA frame addressed to a foreign-owned host cannot be
  ACKed by its real receiver within the MAC timeout, so the sender's
  region synthesizes the ACK optimistically when the ghost's
  deterministic position is in range ("optimistic boundary ACK").
  The data frame still ships to the owner region, where the real
  receive happens; the receiver's real ACK replays a window later and
  is ignored as stale.
- Frames a host's MAC still queued when it hands off to a neighbor
  region are dropped (reason ``shard_handoff``) — handoffs are a
  reboot, exactly like :meth:`repro.net.node.Node.revive`.

1-shard runs install none of the taps and dormantize nothing, so they
stay bit-for-bit identical to the plain kernel (the golden-trace
harness pins this).
"""

from __future__ import annotations

import itertools
import pickle
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import repro.net.packet as packet_mod
from repro.geo.vector import Vec2
from repro.mac.frames import ACK_WIRE_BYTES, AckFrame, Frame, FrameKind
from repro.net.packet import BROADCAST

#: Per-worker uid namespace width: region ``i`` draws packet uids from
#: ``1 + i * UID_STRIDE``; no scenario issues 10**9 packets.
UID_STRIDE = 10**9


# ----------------------------------------------------------------------
# Partition geometry
# ----------------------------------------------------------------------
class ShardMap:
    """Partition of the plane into ``n`` bands of whole grid columns.

    Band ``i`` covers columns ``edges_cols[i]`` (inclusive) through
    ``edges_cols[i+1]`` (exclusive).  Whole columns keep the band edge
    aligned with the routing grid, so a gateway's cell never straddles
    two regions.
    """

    def __init__(self, grid_cols: int, cell_side: float, n_shards: int) -> None:
        n = max(1, min(int(n_shards), grid_cols))
        self.n = n
        self.cell_side = cell_side
        self.edges_cols = [round(i * grid_cols / n) for i in range(n + 1)]
        #: Band boundaries in meters; the last edge is +inf so the
        #: clamped right border of the plane belongs to the last band.
        self.edges_x = [c * cell_side for c in self.edges_cols]
        self.edges_x[-1] = float("inf")

    def owner_of_x(self, x: float) -> int:
        i = bisect_right(self.edges_x, x) - 1
        return min(max(i, 0), self.n - 1)

    def bands_overlapping(self, x0: float, x1: float) -> List[int]:
        """Bands whose x-interval intersects ``[x0, x1]``."""
        lo = self.owner_of_x(x0)
        hi = self.owner_of_x(x1)
        return list(range(lo, hi + 1))


# ----------------------------------------------------------------------
# Bus records (must stay plain data: they cross process boundaries)
# ----------------------------------------------------------------------
@dataclass
class FrameRec:
    """One transmission whose disk reaches a neighbor band.  The
    payload is pickled at production time so regions never share live
    frame/packet objects, even on the in-process transport."""

    t: float
    x: float
    y: float
    payload_bytes: bytes
    wire_bytes: int
    sender_id: int


@dataclass
class PageRec:
    """One RAS page near a band edge (kind ``"host"`` or ``"grid"``)."""

    t: float
    x: float
    y: float
    kind: str
    target: object


@dataclass
class HandoffRec:
    """A host that walked into another band: its battery settlement
    and the emission cursors of the flows it sources."""

    t: float
    node_id: int
    #: Joules left at release; None for infinite-energy endpoints.
    remaining_j: Optional[float]
    #: ``(flow_id, next_emit_at, seqno, packets_issued)`` per flow.
    flows: List[Tuple[int, float, int, int]]


@dataclass
class RegionReport:
    """End-of-run export of one region, merged by the runner."""

    index: int
    sent: Dict[int, float]
    delivered: Dict[int, Tuple[float, float, int]]
    dropped: Dict[int, Tuple[float, str]]
    duplicates: int
    #: ``(t, alive, total, remaining_j, capacity_j)`` over owned
    #: finite-battery hosts, one row per window boundary.
    samples: List[Tuple[float, int, int, float, float]]
    counters: Dict[str, int]
    medium: Dict[str, int]
    events_executed: int
    first_death_s: Optional[float]
    #: Records that failed to pickle at the bus boundary (dropped).
    bus_unpicklable: int = 0


class RegionBus:
    """Per-window outboxes, one per foreign band.

    The region's boundary taps append records here during a window;
    :meth:`drain` hands them (pickle-round-tripped, so value semantics
    hold even in-process) to the transport at the barrier.
    """

    def __init__(self, index: int, n: int) -> None:
        self.index = index
        self._out: Dict[int, List[object]] = {
            b: [] for b in range(n) if b != index
        }
        self.unpicklable = 0

    def post(self, band: int, rec: object) -> None:
        self._out[band].append(rec)

    def post_overlapping(self, bands: List[int], rec: object) -> None:
        for b in bands:
            if b != self.index:
                self._out[b].append(rec)

    def drain(self) -> Dict[int, List[object]]:
        out, self._out = self._out, {b: [] for b in self._out}
        return out


# ----------------------------------------------------------------------
@contextmanager
def _uid_scope(counter):
    """Route ``DataPacket`` uid allocation through this region's
    namespaced counter (no-op for 1-shard runs, preserving the global
    sequence bit-for-bit)."""
    if counter is None:
        yield
        return
    prev = packet_mod._packet_uid
    packet_mod._packet_uid = counter
    try:
        yield
    finally:
        packet_mod._packet_uid = prev


class Region:
    """One band's simulation: a full ghost-replica network whose
    non-owned hosts are dormant, driven window-by-window."""

    def __init__(
        self,
        config,
        index: int,
        shard_map: ShardMap,
        window_s: float,
    ) -> None:
        from repro.experiments.runner import build_network

        self.config = config
        self.index = index
        self.map = shard_map
        self.window_s = window_s
        sharded = shard_map.n > 1
        self._uid_counter = (
            itertools.count(1 + index * UID_STRIDE) if sharded else None
        )
        with _uid_scope(self._uid_counter):
            self.net = build_network(config)
        self.bus = RegionBus(index, shard_map.n)
        self._range_m = self.net.medium.config.range_m
        self._flows_by_id = {f.flow_id: f for f in self.net.flows}

        #: Hosts this region simulates (dead hosts stay owned by the
        #: region they died in; their settled battery feeds its aen).
        self.owned = {
            node.id
            for node in self.net.nodes
            if shard_map.owner_of_x(node.mobility.position(0.0).x) == index
        }
        if sharded:
            for node in self.net.nodes:
                if node.id not in self.owned:
                    self._dormantize(node)
            self.net.medium.boundary_tap = self._on_local_tx
            self.net.ras.boundary_tap = self._on_local_page
        self.samples: List[Tuple[float, int, int, float, float]] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Sampler first, then owned nodes in id order — the exact
        order of :meth:`Network.start`, so 1-shard dispatch is
        byte-identical."""
        net = self.net
        net._started = True
        net.sampler.start()
        for node in net.nodes:
            if node.id in self.owned:
                node.start()
        self.sample()

    def run_until(self, t: float) -> None:
        with _uid_scope(self._uid_counter):
            self.net.sim.run(until=t)

    def finish(self) -> None:
        """Mirror :meth:`Network.run`'s single out-of-loop sample."""
        self.net.sampler.sample()

    def sample(self) -> None:
        """Synchronous barrier sample over owned finite-battery hosts.
        Pure reads — no events enter the calendar, so sampling cannot
        perturb dispatch order."""
        net = self.net
        now = net.sim.now
        alive = total = 0
        remaining = capacity = 0.0
        for node in net.nodes:
            if node.id not in self.owned or node.battery.infinite:
                continue
            total += 1
            if node.alive:
                alive += 1
            remaining += node.battery.remaining_at(now)
            capacity += node.battery.capacity_j
        self.samples.append((now, alive, total, remaining, capacity))

    # ------------------------------------------------------------------
    # Boundary taps (installed only when n > 1)
    # ------------------------------------------------------------------
    def _foreign_bands(self, x: float) -> List[int]:
        r = self._range_m
        return [
            b
            for b in self.map.bands_overlapping(x - r, x + r)
            if b != self.index
        ]

    def _on_local_tx(self, now, pos, payload, wire_bytes, sender_id) -> None:
        bands = self._foreign_bands(pos.x)
        if bands:
            try:
                blob = pickle.dumps(payload)
            except Exception:
                self.bus.unpicklable += 1
            else:
                self.bus.post_overlapping(
                    bands,
                    FrameRec(now, pos.x, pos.y, blob, wire_bytes, sender_id),
                )
        self._maybe_optimistic_ack(now, pos, payload, wire_bytes)

    def _maybe_optimistic_ack(self, now, pos, payload, wire_bytes) -> None:
        """A unicast DATA frame to a foreign-owned host can never be
        ACKed locally (the ghost is unregistered), so the sender would
        burn five MAC retries and declare a false link break.  If the
        ghost's deterministic position is in range, synthesize the ACK
        at exactly the time the real receiver would have sent it."""
        if not isinstance(payload, Frame) or payload.kind is not FrameKind.DATA:
            return
        dst = payload.dst
        if dst == BROADCAST or dst in self.owned:
            return
        ghost = self.net.nodes_by_id.get(dst)
        if ghost is None:
            return
        medium = self.net.medium
        prop = medium.config.propagation_delay_s
        sifs = self.net.nodes[0].mac.config.sifs_s
        t_ack = now + medium.airtime(wire_bytes) + prop + sifs
        gpos = ghost.mobility.position(t_ack)
        if pos.dist(gpos) > self._range_m:
            return
        ack = AckFrame(dst, payload.src, payload.seq)
        self.net.sim.at(t_ack, self._inject_ack, ghost, ack)

    def _inject_ack(self, ghost, ack: AckFrame) -> None:
        pos = ghost.mobility.position(self.net.sim.now)
        self.net.medium.inject_foreign(
            pos, ack, ACK_WIRE_BYTES, ghost.id
        )

    def _on_local_page(self, now, pos, kind, target) -> None:
        bands = self._foreign_bands(pos.x)
        if bands:
            self.bus.post_overlapping(
                bands, PageRec(now, pos.x, pos.y, kind, target)
            )

    # ------------------------------------------------------------------
    # Barrier: handoffs out, records in
    # ------------------------------------------------------------------
    def collect_outbox(self) -> Dict[int, List[object]]:
        """Detect owned hosts that crossed the band edge, release them
        into the outbox, and drain all records of the closing window."""
        if self.map.n > 1:
            now = self.net.sim.now
            for node_id in sorted(self.owned):
                node = self.net.nodes_by_id[node_id]
                if not node.alive:
                    continue  # dead hosts stay with their death region
                band = self.map.owner_of_x(node.position().x)
                if band != self.index:
                    self.bus.post(band, self._release(node))
                    self.owned.discard(node_id)
        return self.bus.drain()

    def deliver(self, records: List[object]) -> None:
        """Apply one window's inbound records: handoffs adopt now (the
        host releases at this same boundary time in its old region);
        frames and pages replay one window after their timestamps."""
        sim = self.net.sim
        w = self.window_s
        for rec in records:
            if isinstance(rec, HandoffRec):
                self._adopt(rec)
            elif isinstance(rec, FrameRec):
                sim.at(max(rec.t + w, sim.now), self._replay_frame, rec)
            elif isinstance(rec, PageRec):
                sim.at(max(rec.t + w, sim.now), self._replay_page, rec)

    def _replay_frame(self, rec: FrameRec) -> None:
        payload = pickle.loads(rec.payload_bytes)
        self.net.medium.inject_foreign(
            Vec2(rec.x, rec.y), payload, rec.wire_bytes, rec.sender_id
        )

    def _replay_page(self, rec: PageRec) -> None:
        pos = Vec2(rec.x, rec.y)
        if rec.kind == "host":
            self.net.ras.inject_foreign_host(pos, rec.target)
        else:
            self.net.ras.inject_foreign_grid(pos, tuple(rec.target))

    # ------------------------------------------------------------------
    # Dormant / release / adopt
    # ------------------------------------------------------------------
    def _dormantize(self, node) -> None:
        """Before start: park a ghost.  The monitor is cancelled first
        so the power-off draw change books no check event; with zero
        draw the ghost's battery never settles a joule."""
        node.alive = False
        node.monitor.cancel()
        node.radio.power_off()
        self.net.medium.unregister(node.radio)
        self.net.ras.detach(node.id)

    def _release(self, node) -> HandoffRec:
        """Owned -> ghost, following the death teardown order of
        :meth:`Node._on_depleted` (minus the death sinks); MAC-queued
        data packets are accounted as ``shard_handoff`` drops."""
        net = self.net
        now = net.sim.now
        remaining = (
            None if node.battery.infinite
            else node.battery.remaining_at(now)
        )
        flows = [
            (f.flow_id, f.next_emit_at, f.seqno, f.packets_issued)
            for f in net.flows
            if f.src is node and f.next_emit_at is not None
        ]
        node.monitor.cancel()
        node.alive = False
        node.radio.power_off()
        prev_sink = node.drop_sink
        node.drop_sink = (
            lambda n, p, _reason: net.packet_log.on_dropped(
                p, now, "shard_handoff"
            )
        )
        try:
            node.mac.shutdown()
        finally:
            node.drop_sink = prev_sink
        if node._crossing_ev is not None:
            node._crossing_ev.cancel()
            node._crossing_ev = None
        net.medium.unregister(node.radio)
        net.ras.detach(node.id)
        if node.protocol is not None:
            node.protocol.on_death()
        return HandoffRec(now, node.id, remaining, flows)

    def _adopt(self, rec: HandoffRec) -> None:
        """Ghost -> owned: settle the shipped battery, then the
        :meth:`Node.revive` bring-up order (fresh protocol — a handoff
        loses routing state, like a reboot), then resume its flows."""
        net = self.net
        node = net.nodes_by_id[rec.node_id]
        now = net.sim.now
        if not node.battery.infinite:
            node.battery.exhaust(now)
            node.battery.recharge(rec.remaining_j, now)
        node.alive = True
        node.monitor.reactivate()
        node.radio.power_on()
        net.medium.register(node.radio)
        net.ras.attach(node.id, node.radio, node._on_paged)
        node.protocol = net.fresh_protocol(node)
        node._schedule_crossing()
        node.protocol.start()
        self.owned.add(rec.node_id)
        for flow_id, next_at, seqno, issued in rec.flows:
            flow = self._flows_by_id.get(flow_id)
            if flow is not None:
                flow.resume(max(next_at, now), seqno, issued)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self) -> RegionReport:
        net = self.net
        log = net.packet_log
        med = net.medium.stats
        delivered: Dict[int, Tuple[float, float, int]] = {}
        for (uid, t), lat, hops in zip(
            log.delivered_at.items(), log.latencies, log.hop_counts
        ):
            delivered[uid] = (t, lat, hops)
        return RegionReport(
            index=self.index,
            sent={uid: p.created_at for uid, p in log.sent.items()},
            delivered=delivered,
            dropped=dict(log.dropped),
            duplicates=log.duplicates,
            samples=list(self.samples),
            counters=net.counters.snapshot(),
            medium={
                "frames_sent": med.frames_sent,
                "frames_delivered": med.frames_delivered,
                "frames_corrupted": med.frames_corrupted,
                "frames_missed_asleep": med.frames_missed_asleep,
                "frames_fault_dropped": med.frames_fault_dropped,
                "frames_foreign": med.frames_foreign,
                "bytes_sent": med.bytes_sent,
            },
            events_executed=net.sim.events_executed,
            first_death_s=net.sampler.first_death_time,
            bus_unpicklable=self.bus.unpicklable,
        )
