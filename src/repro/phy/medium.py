"""The shared wireless medium.

Unit-disk propagation over a grid-bucket spatial index: every awake,
non-transmitting radio within ``range_m`` of a transmitter receives the
frame (and pays RX energy for its airtime — overhearing).  Two frames
overlapping in time at a common receiver collide and both are lost at
that receiver.

Design notes
------------
- One simulator event per transmission (its completion), not one per
  receiver: receiver bookkeeping is plain arithmetic at begin/end, which
  keeps the event count per frame O(1).
- Positions are evaluated lazily at transmission start; node motion over
  a frame's ~2 ms airtime is micrometers and is ignored.
- The bucket index shares the routing :class:`~repro.geo.grid.GridMap`;
  buckets are updated by the node's already-scheduled grid-crossing
  events, so membership is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.des.core import Simulator
from repro.energy.profile import RadioMode
from repro.geo.grid import GridCoord, GridMap
from repro.geo.vector import Vec2
from repro.phy.radio import Radio


@dataclass
class MediumConfig:
    """Channel parameters (defaults = the paper's evaluation, §4)."""

    bandwidth_bps: float = 2_000_000.0
    range_m: float = 250.0
    propagation_delay_s: float = 1e-6
    #: Link model: "unit_disk" (default; reception certain within range)
    #: or "gray_zone" — reception certain up to ``gray_zone_start_frac``
    #: of the range, then decaying linearly to zero at the range edge
    #: (the lossy fringe real 802.11 measurements show).
    loss_model: str = "unit_disk"
    gray_zone_start_frac: float = 0.75

    def reception_probability(self, distance: float) -> float:
        """P(frame decodes) at ``distance`` under the configured model."""
        if distance > self.range_m:
            return 0.0
        if self.loss_model == "unit_disk":
            return 1.0
        knee = self.gray_zone_start_frac * self.range_m
        if distance <= knee:
            return 1.0
        return (self.range_m - distance) / (self.range_m - knee)


class _Reception:
    __slots__ = ("receiver", "corrupted")

    def __init__(self, receiver: Radio) -> None:
        self.receiver = receiver
        self.corrupted = False


class _Transmission:
    __slots__ = ("sender", "pos", "px", "py", "receptions")

    def __init__(self, sender: Radio, pos: Vec2) -> None:
        self.sender = sender
        self.pos = pos
        #: ``pos`` unpacked to plain floats: the carrier-sense scan
        #: tests every in-flight transmission and attribute loads beat
        #: tuple indexing there.
        self.px = pos[0]
        self.py = pos[1]
        self.receptions: List[_Reception] = []


class _Bucket:
    """One grid cell's radios, kept current in place.

    ``radios`` maps node id -> radio in insertion order (set order would
    depend on object addresses and break run-to-run determinism).
    ``members`` holds the same radios as the tuple the neighbour loop
    reads.  Only membership changes rebuild it, always as a new tuple,
    so a loop that already holds the old one (a receiver that dies
    mid-frame unregisters) finishes on it undisturbed.
    """

    __slots__ = ("radios", "members")

    def __init__(self) -> None:
        self.radios: Dict[int, Radio] = {}
        self.members: Tuple[Radio, ...] = ()

    def rebuild(self) -> None:
        """Re-derive ``members`` after a membership change."""
        self.members = tuple(self.radios.values())


@dataclass
class MediumStats:
    """Aggregate channel counters for metrics and tests."""

    frames_sent: int = 0
    frames_delivered: int = 0
    frames_corrupted: int = 0
    frames_missed_asleep: int = 0
    #: Receptions killed by an injected channel fault (subset of
    #: ``frames_corrupted``).
    frames_fault_dropped: int = 0
    bytes_sent: int = 0


class Medium:
    """The one shared channel all radios attach to.

    Its scaling structure (see ``docs/performance.md``, "Scaling") is
    **per-cell buckets kept current in place**: every in-map cell owns
    one :class:`_Bucket` for the medium's lifetime, and ``register`` /
    ``unregister`` / ``update_cell`` rebuild only the bucket they touch.
    Each ``(center cell, radius)`` maps to the tuple of its covering
    buckets, built on first use and never invalidated (the buckets
    themselves stay current).  :meth:`radios_near` is the one neighbour
    query: it walks that tuple and applies the exact per-radio distance
    test to every member, and ``transmit`` gathers its receivers through
    it.  Carrier sense is one scan of the in-flight list.
    """

    def __init__(
        self, sim: Simulator, grid: GridMap, config: Optional[MediumConfig] = None
    ) -> None:
        self.sim = sim
        self.grid = grid
        self.config = config or MediumConfig()
        self.stats = MediumStats()
        self._buckets: Dict[GridCoord, _Bucket] = {
            (cx, cy): _Bucket()
            for cx in range(grid.cols)
            for cy in range(grid.rows)
        }
        #: Node id -> the bucket holding that radio.
        self._bucket_of: Dict[int, _Bucket] = {}
        #: ``(center cell, radius) -> covering buckets`` in row-major
        #: order; see :meth:`_cover`.
        self._covers: Dict[Tuple[GridCoord, float], Tuple[_Bucket, ...]] = {}
        #: Frames on the air, oldest first (carrier sense only reduces
        #: the list to a boolean).
        self._active: List[_Transmission] = []
        #: Query radius -> its covering offsets; see :meth:`_offsets_near`.
        self._radius_offsets: Dict[float, Tuple[GridCoord, ...]] = {}
        self._loss_rng = sim.rng.stream("phy-loss")
        #: Optional fault-injection hook ``(tx_pos, receiver) -> bool``;
        #: True means the reception is lost (the receiver still pays RX
        #: energy — the frame is on the air, it just doesn't decode).
        #: Installed by :class:`repro.faults.inject.FaultInjector`.
        self.fault_hook: Optional[
            Callable[[Vec2, Radio], bool]
        ] = None

    def _offsets_near(self, radius: float) -> Tuple[GridCoord, ...]:
        """The (dx, dy) offsets of the cells that can hold a point within
        ``radius`` of a point in the center cell, row-major (the order
        ``GridMap.cells_within`` yields), memoized per radius.

        The Chebyshev ball of ``ceil(radius / side)`` rings, counted on
        the *float* ratio (integer truncation under-covered the fringe:
        radius 300.2 m on 100 m cells needs 4 rings, not 3), minus the
        offsets whose cell can never hold such a point because the
        minimum rectangle-to-rectangle gap already exceeds ``radius``
        (e.g. the four ring-3 corner cells for a 250 m range on 100 m
        cells).
        """
        cached = self._radius_offsets.get(radius)
        if cached is None:
            side = self.grid.cell_side
            ring = max(1, math.ceil(radius / side))
            bound = radius * radius * (1.0 + 1e-6)
            cached = tuple(
                (dx, dy)
                for dx in range(-ring, ring + 1)
                for dy in range(-ring, ring + 1)
                if ((abs(dx) - 1) * side if dx else 0.0) ** 2
                + ((abs(dy) - 1) * side if dy else 0.0) ** 2 <= bound
            )
            self._radius_offsets[radius] = cached
        return cached

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, radio: Radio) -> None:
        bucket = self._buckets[self.grid.cell_of(radio.position())]
        bucket.radios[radio.node_id] = radio
        bucket.rebuild()
        self._bucket_of[radio.node_id] = bucket

    def unregister(self, radio: Radio) -> None:
        bucket = self._bucket_of.pop(radio.node_id, None)
        if bucket is not None:
            bucket.radios.pop(radio.node_id, None)
            bucket.rebuild()

    def update_cell(self, radio: Radio) -> None:
        """Re-bucket a radio after its node crossed a cell boundary
        (cell-crossing events, scheduled from the mobility model's
        ``next_cell_crossing``, funnel through here)."""
        node_id = radio.node_id
        new = self._buckets[self.grid.cell_of(radio.position())]
        old = self._bucket_of.get(node_id)
        if new is old:
            return
        if old is not None:
            old.radios.pop(node_id, None)
            old.rebuild()
        new.radios[node_id] = radio
        new.rebuild()
        self._bucket_of[node_id] = new

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def airtime(self, wire_bytes: int) -> float:
        """Seconds the channel is occupied by a frame of ``wire_bytes``."""
        return wire_bytes * 8.0 / self.config.bandwidth_bps

    def _cover(self, cell: GridCoord, radius: float) -> Tuple[_Bucket, ...]:
        """The in-map buckets that can hold a radio within ``radius`` of
        a point in ``cell``, row-major (the order ``cells_within``
        yields).  Buckets live as long as the medium and are rebuilt in
        place, so the tuple is built on first use and never goes
        stale."""
        key = (cell, radius)
        cover = self._covers.get(key)
        if cover is None:
            cx, cy = cell
            buckets = self._buckets
            # Off-map cells have no bucket; no clipping needed.
            cells = [(cx + dx, cy + dy) for dx, dy in self._offsets_near(radius)]
            cover = tuple(buckets[c] for c in cells if c in buckets)
            self._covers[key] = cover
        return cover

    def radios_near(self, pos: Vec2, radius: float) -> List[Radio]:
        """All registered radios within ``radius`` of ``pos``: the one
        neighbour rule, an exact distance test of every member of the
        covering buckets.

        Result order is row-major over the covering cells (the order
        ``cells_within`` yields), then bucket insertion order, so
        receiver bookkeeping downstream stays deterministic.
        """
        out: List[Radio] = []
        append = out.append
        px, py = pos
        r2 = radius * radius
        now = self.sim.now
        for bucket in self._cover(self.grid.cell_of(pos), radius):
            for radio in bucket.members:
                # Inlined ``MobilityModel.position`` leg read, with its
                # arithmetic; off the leg, the model moves it.
                mob = radio.mobility
                t0, t1, x, y, vx, vy = mob._leg
                if t0 < now <= t1:
                    dt = now - t0
                    x += vx * dt
                    y += vy * dt
                else:
                    x, y = mob.position(now)
                ddx = x - px
                ddy = y - py
                if ddx * ddx + ddy * ddy <= r2:
                    append(radio)
        return out

    def channel_busy(self, radio: Radio) -> bool:
        """Carrier sense: is any in-flight transmission within
        ``range_m`` of this radio, or is the radio itself sending?"""
        active = self._active
        if not active:
            return False
        now = self.sim.now
        # Inlined ``MobilityModel.position`` leg read (see
        # ``radios_near``): carrier sense runs on every CSMA attempt.
        mob = radio.mobility
        t0, t1, px, py, vx, vy = mob._leg
        if t0 < now <= t1:
            dt = now - t0
            px += vx * dt
            py += vy * dt
        else:
            px, py = mob.position(now)
        sense2 = self.config.range_m * self.config.range_m
        for tx in active:
            if tx.sender is radio:
                return True
            dx = tx.px - px
            dy = tx.py - py
            if dx * dx + dy * dy <= sense2:
                return True
        return False

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(
        self,
        sender: Radio,
        payload: object,
        wire_bytes: int,
        dst: Optional[int] = None,
    ) -> float:
        """Put a frame on the air.  Returns its airtime.

        Delivery (or corruption) resolves at airtime + propagation
        delay via a single completion event.  ``dst`` is the link-layer
        addressee: every in-range receiver pays RX energy and counts in
        ``frames_delivered``, but only the radio with that node id hands
        the frame to its sink.  ``None`` hands it to every receiver's
        sink (broadcast).
        """
        config = self.config
        stats = self.stats
        duration = self.airtime(wire_bytes)
        pos = sender.position()
        sender.begin_tx()
        tx = _Transmission(sender, pos)
        stats.frames_sent += 1
        stats.bytes_sent += wire_bytes
        # ``begin_tx`` above makes the half-duplex check skip the sender.
        self._receive(tx)
        self._active.append(tx)
        self.sim.after(
            duration + config.propagation_delay_s,
            self._finish,
            tx,
            payload,
            dst,
        )
        return duration

    def _receive(self, tx: _Transmission) -> None:
        """Begin ``tx``'s receptions at the radios :meth:`radios_near`
        finds in range, in its order.

        An OFF radio hears nothing and a sleeping one only counts in
        ``frames_missed_asleep``; an IDLE radio that is not itself
        sending begins a reception, and ``Radio._update`` flips it to
        RX.  Receptions are appended to ``tx.receptions`` in that order.
        """
        config = self.config
        stats = self.stats
        unit_disk = config.loss_model == "unit_disk"
        fault_hook = self.fault_hook
        pos = tx.pos
        idle = RadioMode.IDLE
        sleep = RadioMode.SLEEP
        receptions_append = tx.receptions.append
        for radio in self.radios_near(pos, config.range_m):
            base = radio.base_mode
            if base is not idle:
                if base is sleep:
                    stats.frames_missed_asleep += 1
                continue
            if radio.transmitting:
                continue
            rec = _Reception(radio)
            if fault_hook is not None and fault_hook(pos, radio):
                rec.corrupted = True
                stats.frames_fault_dropped += 1
            if not unit_disk:
                p = config.reception_probability(pos.dist(radio.position()))
                if p < 1.0 and self._loss_rng.random() >= p:
                    # Fringe loss: the radio still hears energy (pays
                    # RX) but the frame does not decode.
                    rec.corrupted = True
            ongoing = radio.rx_recs
            if ongoing:
                rec.corrupted = True
                for other in ongoing:
                    other.corrupted = True
            ongoing.append(rec)
            radio._update()
            receptions_append(rec)

    def _finish(
        self, tx: _Transmission, payload: object, dst: Optional[int]
    ) -> None:
        self._active.remove(tx)
        tx.sender.end_tx()
        stats = self.stats
        sender_id = tx.sender.node_id
        idle = RadioMode.IDLE
        for rec in tx.receptions:
            radio = rec.receiver
            # Only the last reception's end can change the radio's mode.
            ongoing = radio.rx_recs
            ongoing.remove(rec)
            if not ongoing:
                radio._update()
            if rec.corrupted:
                stats.frames_corrupted += 1
                continue
            # A receiver asleep or transmitting when the frame ends
            # loses it.  Only that instant is checked: a receiver that
            # sent a frame (a MAC ACK skips carrier sense) or slept and
            # woke while this one was on the air still decodes it,
            # which a half-duplex radio could not.
            if radio.base_mode is not idle or radio.transmitting:
                stats.frames_corrupted += 1
                continue
            stats.frames_delivered += 1
            # Every receiver's MAC drops a frame addressed elsewhere
            # without side effects, so only the addressee is called.
            if dst is None or radio.node_id == dst:
                sink = radio.frame_sink
                if sink is not None:
                    sink(payload, sender_id)
