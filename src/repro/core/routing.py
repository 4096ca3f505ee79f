"""Grid-by-grid route discovery and data forwarding (paper §3.3–3.4).

Built on :class:`repro.core.base.GridProtocolBase`; GRID, ECGRID and
GAF all subclass it.  Implements the AODV-derived machinery they
share: region-confined RREQ flooding between gateways, reverse-pointer
RREP return, grid-based routing tables, data forwarding through
neighbor gateways, buffering during discovery, RERR on forwarding
breaks, and — for protocols that page (ECGRID) — buffering + RAS
wakeup for sleeping in-grid destinations.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Set, Tuple, Union

from repro.core.base import GridProtocolBase, Role
from repro.core.messages import DataEnvelope, Rerr, Rrep, Rreq
from repro.des.timer import Timer
from repro.geo.grid import GridCoord
from repro.geo.region import bounding_region, whole_map_region
from repro.metrics.collectors import Counters
from repro.net.packet import DataPacket
from repro.protocols.base import ProtocolParams

#: Cap on the remembered (src, rreq_id) duplicate-detection keys.
_SEEN_RREQ_LIMIT = 8192

#: ``pending_local`` before a host first queues a packet: an empty
#: deque preallocates a 64-slot block, and few hosts ever queue.
_NO_PACKETS = ()


class _Pending:
    """One in-progress route discovery with its buffered packets."""

    __slots__ = ("dest", "queue", "retries", "timer", "restarts", "cooling")

    def __init__(self, dest: int, timer: Timer) -> None:
        self.dest = dest
        self.queue: Deque[DataPacket] = deque()
        self.retries = 0
        self.timer = timer
        #: After exhausting the retry budget the discovery cools down
        #: once and restarts: under heavy churn the destination is
        #: often mid-migration (sleeping, unregistered) and appears at
        #: its new gateway a second later.
        self.restarts = 0
        self.cooling = False


class _Paging:
    """A gateway's paging state for its sleeping members (§3.3).

    ``buffers`` holds the packets waiting for each paged host,
    ``attempts`` the paging bursts sent per buffering episode (reset on
    a successful in-grid delivery) and ``flush_pending`` the hosts with
    a :meth:`GridRoutingMixin._flush_host_buffer` event in flight.
    ``epoch`` is bumped on every demotion/death.  Scheduled flush events
    carry the epoch they were issued under and no-op if it has moved
    on, so a flush from a previous gateway tenure cannot clear the
    pending flag (or drain the buffer early) of a paging episode
    started after re-election.
    """

    __slots__ = ("buffers", "attempts", "flush_pending", "epoch")

    def __init__(self) -> None:
        self.buffers: Dict[int, Deque[DataPacket]] = {}
        self.attempts: Dict[int, int] = {}
        self.flush_pending: Set[int] = set()
        self.epoch = 0

    def end_tenure(self) -> None:
        """Outdate scheduled flushes and forget the episode; the caller
        has already emptied every buffer."""
        self.epoch += 1
        self.buffers.clear()
        self.attempts.clear()
        self.flush_pending.clear()


class GridRoutingMixin(GridProtocolBase):
    """Routing engine shared by the grid-protocol family."""

    #: ECGRID buffers and RAS-pages sleeping in-grid destinations; GAF
    #: famously cannot (paper §1), and in GRID nobody sleeps.
    page_sleeping_hosts = False
    #: Delay between paging a host and pushing its buffered packets
    #: (RAS burst + activation + margin).
    _page_flush_delay_s = 0.005
    _page_attempt_limit = 2

    def __init__(
        self, node, params: ProtocolParams, counters: Optional[Counters] = None
    ) -> None:
        super().__init__(node, params, counters)
        self.seq = 0
        self._rreq_counter = 0
        #: Recently seen (src, rreq_id) keys, oldest first (the dict's
        #: insertion order), at most ``_SEEN_RREQ_LIMIT`` of them.
        self._seen_rreq: Dict[Tuple[int, int], None] = {}
        self.pending: Dict[int, _Pending] = {}
        self.location_cache: Dict[int, GridCoord] = {}
        #: Packets waiting for *any* gateway (we are a gateway-less
        #: active host, e.g. mid-election); a deque from the first
        #: queued packet on.
        self.pending_local: Union[Deque[DataPacket], Tuple[()]] = _NO_PACKETS
        #: Gateway-side buffers and paging state for sleeping in-grid
        #: destinations.
        self._paging = _Paging()

    # ------------------------------------------------------------------
    # Application entry
    # ------------------------------------------------------------------
    def send_data(self, packet: DataPacket) -> None:
        if self.role is Role.DEAD:
            return
        if self.role is Role.GATEWAY:
            self._route_packet(packet)
        elif self.role is Role.SLEEPING:
            self._send_data_while_sleeping(packet)
        elif self.my_gateway is not None and self.my_gateway != self.node.id:
            self._send_via_gateway(packet)
        else:
            self._queue_local(packet)

    def _send_data_while_sleeping(self, packet: DataPacket) -> None:
        """Default (protocols without sleep never hit this)."""
        self._queue_local(packet)

    def _send_via_gateway(self, packet: DataPacket) -> None:
        env = DataEnvelope(packet=packet, from_cell=self.my_cell)
        gw = self.my_gateway
        self._unicast(
            env,
            gw,
            on_fail=lambda _m, _d: self._gateway_send_failed(packet),
        )

    def _gateway_send_failed(self, packet: DataPacket) -> None:
        """Unicast to our gateway died: a no-gateway event (§3.2 case 2
        of the detection list).  Buffer and force re-election."""
        if self.role is Role.DEAD:
            self._drop(packet, "node_died")
            return
        self.counters.inc("gateway_unreachable")
        self._queue_local(packet)
        if self.role is Role.ACTIVE:
            self.my_gateway = None
            self._await_gateway()

    def _queue_local(self, packet: DataPacket) -> None:
        queue = self.pending_local
        if queue is _NO_PACKETS:
            queue = self.pending_local = deque()
        elif len(queue) >= self.params.buffer_limit:
            self._drop(queue.popleft(), "buffer_overflow")
        queue.append(packet)

    def _drop(self, packet: DataPacket, reason: str) -> None:
        """Discard a data packet, keeping the per-packet delivery
        accounting and the overhead counters in agreement (drops were
        previously invisible to
        :class:`~repro.metrics.collectors.PacketLog`)."""
        if reason == "buffer_overflow":
            self.counters.inc("buffer_drops")
        self.node.report_drop(packet, reason)

    def _flush_pending_local(self) -> None:
        while self.pending_local:
            if self.role is Role.GATEWAY:
                self._route_packet(self.pending_local.popleft())
            elif self.my_gateway is not None and self.my_gateway != self.node.id:
                self._send_via_gateway(self.pending_local.popleft())
            else:
                break

    # Hooks from the base class --------------------------------------
    def _on_gateway_known(self, first_sighting: bool) -> None:
        self._flush_pending_local()

    def _on_became_gateway(self, inherited: bool) -> None:
        self._flush_pending_local()

    def demote_to_active(self) -> None:
        was_gateway = self.is_gateway
        super().demote_to_active()
        if was_gateway:
            self._demote_cleanup()

    def _demote_cleanup(self) -> None:
        """Re-inject buffered work so the successor gateway handles it."""
        for p in self.pending.values():
            p.timer.cancel()
            while p.queue:
                self._queue_local(p.queue.popleft())
        self.pending.clear()
        for buf in self._paging.buffers.values():
            while buf:
                self._queue_local(buf.popleft())
        self._paging.end_tenure()

    def on_death(self) -> None:
        super().on_death()
        for p in self.pending.values():
            p.timer.cancel()
            while p.queue:
                self._drop(p.queue.popleft(), "node_died")
        self.pending.clear()
        while self.pending_local:
            self._drop(self.pending_local.popleft(), "node_died")
        for buf in self._paging.buffers.values():
            while buf:
                self._drop(buf.popleft(), "node_died")
        self._paging.end_tenure()

    # ------------------------------------------------------------------
    # Gateway forwarding
    # ------------------------------------------------------------------
    def _route_packet(self, packet: DataPacket) -> None:
        dest = packet.dst
        if dest == self.node.id:
            self.node.deliver_to_app(packet)
            return
        if self.hosts.is_known(dest):
            self._deliver_in_grid(packet, dest)
            return
        entry = self.routing.lookup(dest, self.now)
        if entry is not None:
            self._forward(packet, dest, entry.next_cell)
        else:
            self._start_discovery(dest, packet)

    def _gateway_of(self, cell: GridCoord) -> Optional[int]:
        """Fresh neighbor-gateway lookup (HELLO-derived, §3.1)."""
        if cell == self.my_cell:
            return self.node.id if self.is_gateway else self.my_gateway
        rec = self.neighbor_gateways.get(cell)
        if rec is None:
            return None
        gw_id, heard = rec
        horizon = self.params.hello_period_s * self.params.hello_loss_tolerance
        if self.now - heard > horizon:
            del self.neighbor_gateways[cell]
            return None
        return gw_id

    def _forward(self, packet: DataPacket, dest: int, next_cell: GridCoord) -> None:
        gw = self._gateway_of(next_cell)
        if gw is None or gw == self.node.id:
            self.routing.invalidate(dest)
            self._start_discovery(dest, packet)
            return
        self.routing.touch(dest, self.now, self.params.route_lifetime_s)
        env = DataEnvelope(packet=packet, from_cell=self.my_cell)
        self.counters.inc("data_forwarded")
        self._unicast(
            env,
            gw,
            on_fail=lambda _m, _d: self._forward_failed(packet, dest, next_cell, gw),
        )

    def _forward_failed(
        self, packet: DataPacket, dest: int, next_cell: GridCoord, gw_id: int
    ) -> None:
        if self.role is Role.DEAD:
            self._drop(packet, "node_died")
            return
        self.counters.inc("forward_failures")
        rec = self.neighbor_gateways.get(next_cell)
        if rec is not None and rec[0] == gw_id:
            del self.neighbor_gateways[next_cell]
        self.routing.invalidate(dest)
        if self.role is Role.GATEWAY:
            # Local repair, plus RERR so the source re-discovers (§3.4).
            self._start_discovery(dest, packet)
            self._send_rerr(packet.src, dest)
        else:
            self._queue_local(packet)

    # ------------------------------------------------------------------
    # In-grid delivery (gateway -> member host)
    # ------------------------------------------------------------------
    def _deliver_in_grid(self, packet: DataPacket, dest: int) -> None:
        awake = self.hosts.is_awake(dest)
        if awake is False and self.page_sleeping_hosts:
            self._buffer_and_page(dest, packet)
            return
        env = DataEnvelope(packet=packet, from_cell=self.my_cell)
        self._unicast(
            env,
            dest,
            on_ok=lambda _m, _d: self._paging.attempts.pop(dest, None),
            on_fail=lambda _m, _d: self._in_grid_failed(packet, dest),
        )

    def _in_grid_failed(self, packet: DataPacket, dest: int) -> None:
        if self.role is Role.DEAD:
            self._drop(packet, "node_died")
            return
        if self.role is not Role.GATEWAY:
            # We demoted while the unicast was in flight.  Buffering
            # into the host buffers here would strand the packet (only
            # gateways flush those buffers) and charging the failure to
            # the host would poison the successor's view of it; requeue
            # for whichever gateway we end up with instead.
            self._queue_local(packet)
            return
        if self.page_sleeping_hosts:
            attempts = self._paging.attempts.get(dest, 0)
            if attempts < self._page_attempt_limit:
                # The host table said awake but the host is not
                # reachable: assume it fell asleep and page it.
                self.hosts.mark_sleeping(dest)
                self._buffer_and_page(dest, packet)
                return
        # The host is gone (left the grid without LEAVE, or died).
        self.counters.inc("in_grid_drops")
        self._drop(packet, "host_unreachable")
        self._drop_host_buffer(dest, "host_unreachable")

    def _buffer_and_page(self, dest: int, packet: Optional[DataPacket]) -> None:
        """§3.3: buffer at the gateway, wake the destination via RAS,
        then push the buffered packets.

        Whenever packets are buffered, a flush is guaranteed to be in
        flight: either one is already scheduled, or a fresh page + flush
        is issued here.  (The seed code skipped the flush when a page
        had been sent before, so a packet buffered after the previous
        flush fired — the `_in_grid_failed` re-page path — sat in its
        host buffer forever.)  Paging bursts per buffering episode
        are capped at ``_page_attempt_limit``; exhausting the budget
        drops the buffer and forgets the host, like any unreachable
        in-grid destination.
        """
        paging = self._paging
        buf = paging.buffers.setdefault(dest, deque())
        if packet is not None:
            if len(buf) >= self.params.buffer_limit:
                self._drop(buf.popleft(), "buffer_overflow")
            buf.append(packet)
        if dest in paging.flush_pending:
            # The in-flight flush will push this packet too.
            self._trace_page_state(dest)
            return
        attempts = paging.attempts.get(dest, 0)
        if attempts >= self._page_attempt_limit:
            self._drop_host_buffer(dest, "page_exhausted")
            return
        paging.attempts[dest] = attempts + 1
        self.counters.inc("pages_sent")
        self.node.ras.page_host(self.node.radio, dest)
        paging.flush_pending.add(dest)
        self.sim.after(
            self._page_flush_delay_s, self._flush_host_buffer, dest,
            paging.epoch,
        )
        self._trace_page_state(dest)

    def _flush_host_buffer(self, dest: int, epoch: Optional[int] = None) -> None:
        """Push buffered packets to a (hopefully) now-awake host.

        ``epoch`` is set on the scheduled (page-delayed) flushes; a
        stale one — issued before a demotion that has since been
        reversed — must not touch the current episode's state.  Direct
        calls (``_member_registered``) pass no epoch and always run.
        """
        paging = self._paging
        if epoch is not None and epoch != paging.epoch:
            return
        paging.flush_pending.discard(dest)
        if self.role is not Role.GATEWAY:
            return
        buf = paging.buffers.pop(dest, None)
        if not buf:
            return
        self.hosts.mark_active(dest)
        while buf:
            self._deliver_in_grid(buf.popleft(), dest)

    def _drop_host_buffer(self, dest: int, reason: str) -> None:
        """Give up on an in-grid destination: drop its buffer, forget
        its paging state, and remove it from the host table so the next
        packet goes through ordinary discovery."""
        buf = self._paging.buffers.pop(dest, None)
        self._paging.attempts.pop(dest, None)
        self.hosts.remove(dest)
        if not buf:
            return
        tr = self.node.tracer
        if tr.page:
            tr.emit(
                "page.drop", node=self.node.id, dest=dest,
                count=len(buf), reason=reason,
            )
        self.counters.inc("in_grid_drops", len(buf))
        while buf:
            self._drop(buf.popleft(), reason)

    def _trace_page_state(self, dest: int) -> None:
        """Emit the buffer/flush state for ``dest`` (``page.buffer``).

        The :class:`~repro.obs.audit.BufferFlushAuditor` checks the
        invariant this reports: a non-empty host buffer always has a
        flush in flight."""
        tr = self.node.tracer
        if tr.page:
            buf = self._paging.buffers.get(dest)
            tr.emit(
                "page.buffer", node=self.node.id, dest=dest,
                qlen=len(buf) if buf else 0,
                pending=dest in self._paging.flush_pending,
            )

    def _member_registered(self, dest: int) -> None:
        """A host just (re)joined our grid: any route discovery we were
        running for it resolves locally, and buffered frames flush."""
        p = self.pending.pop(dest, None)
        if p is not None:
            p.timer.cancel()
            while p.queue:
                self._deliver_in_grid(p.queue.popleft(), dest)
        self._flush_host_buffer(dest)

    def _reroute_host_buffer(self, dest: int) -> None:
        """The host left the grid: route its buffered packets normally
        (discovery will find its new grid once it re-registers)."""
        buf = self._paging.buffers.pop(dest, None)
        self._paging.attempts.pop(dest, None)
        if not buf:
            return
        while buf:
            self._route_packet(buf.popleft())

    # ------------------------------------------------------------------
    # Route discovery
    # ------------------------------------------------------------------
    def _start_discovery(self, dest: int, packet: Optional[DataPacket]) -> None:
        p = self.pending.get(dest)
        if p is None:
            p = _Pending(
                dest, Timer(self.sim, lambda d=dest: self._rreq_timeout(d))
            )
            self.pending[dest] = p
            self._send_rreq(p)
        if packet is not None:
            if len(p.queue) >= self.params.buffer_limit:
                self._drop(p.queue.popleft(), "buffer_overflow")
            p.queue.append(packet)

    def _search_region(self, dest: int, retries: int):
        """The RREQ `range` for this discovery round (§3.3).

        Policies follow the GRID paper's confinement options: the S-D
        bounding rectangle, the rectangle plus a margin ring, or no
        confinement.  Without location information for the destination,
        or after a confined round failed ("another round ... to search
        all areas"), the search goes global.
        """
        known_cell = self.location_cache.get(dest)
        if (
            retries > 0
            or known_cell is None
            or self.params.search_policy == "global"
        ):
            return whole_map_region(self.node.grid)
        margin = (
            self.params.search_margin_cells
            if self.params.search_policy == "bbox_margin"
            else 0
        )
        return bounding_region(
            self.my_cell, known_cell, margin=margin, grid=self.node.grid
        )

    def _send_rreq(self, p: _Pending) -> None:
        self.seq += 1
        self._rreq_counter += 1
        region = self._search_region(p.dest, p.retries)
        msg = Rreq(
            src=self.node.id,
            s_seq=self.seq,
            dst=p.dest,
            d_seq=0,
            rreq_id=self._rreq_counter,
            region=region,
            from_cell=self.my_cell,
            origin_cell=self.my_cell,
        )
        self._remember_rreq((self.node.id, self._rreq_counter))
        self.counters.inc("rreq_originated")
        tr = self.node.tracer
        if tr.rreq:
            tr.emit(
                "rreq.flood", node=self.node.id, dst=p.dest,
                rreq_id=self._rreq_counter, retries=p.retries,
                restarts=p.restarts,
            )
        self._broadcast(msg)
        p.timer.start(self.params.route_request_timeout_s)

    #: Pause before the single discovery restart, and its budget.
    _discovery_cooldown_s = 2.0
    _discovery_restarts = 1

    def _rreq_timeout(self, dest: int) -> None:
        p = self.pending.get(dest)
        if p is None:
            return
        if p.cooling:
            p.cooling = False
            p.retries = 0
            self.counters.inc("discovery_restarts")
            self._send_rreq(p)
            return
        p.retries += 1
        if p.retries > self.params.route_request_retries:
            if p.restarts < self._discovery_restarts:
                p.restarts += 1
                p.cooling = True
                p.timer.start(self._discovery_cooldown_s)
                return
            self.counters.inc("discovery_failures")
            self.counters.inc("data_dropped_no_route", len(p.queue))
            while p.queue:
                self.node.report_drop(p.queue.popleft(), "no_route")
            del self.pending[dest]
            return
        self._send_rreq(p)

    def _remember_rreq(self, key: Tuple[int, int]) -> None:
        seen = self._seen_rreq
        seen[key] = None
        if len(seen) > _SEEN_RREQ_LIMIT:
            del seen[next(iter(seen))]

    # -- message handlers ----------------------------------------------
    def _on_rreq(self, msg: Rreq) -> None:
        if self.role is not Role.GATEWAY:
            return  # only gateways participate in route searching
        if not self._first_copy(msg):
            return
        if msg.region is not None and not msg.region.contains(self.my_cell):
            return  # outside the searching area: ignore (§3.3)
        self._learn_requester(msg)
        if msg.dst == self.node.id or self.hosts.is_known(msg.dst):
            # We are the destination('s gateway): answer (§3.3).
            self._answer_rreq(msg)
        else:
            self.counters.inc("rreq_forwarded")
            # Direct construction instead of ``dataclasses.replace``:
            # the flood re-broadcasts one Rreq per gateway per search,
            # and replace()'s kwargs machinery is ~3x the cost of
            # __init__ with identical field values.
            self._broadcast(Rreq(
                src=msg.src, s_seq=msg.s_seq, dst=msg.dst, d_seq=msg.d_seq,
                rreq_id=msg.rreq_id, region=msg.region,
                from_cell=self.my_cell, origin_cell=msg.origin_cell,
                hops=msg.hops + 1,
            ))

    def _first_copy(self, msg: Rreq) -> bool:
        """Remember the request; False if we have seen it before."""
        key = (msg.src, msg.rreq_id)
        if key in self._seen_rreq:
            return False
        self._remember_rreq(key)
        return True

    def _learn_requester(self, msg: Rreq) -> None:
        """Reverse pointer to the requester, via the previous grid, and
        its cell for later searches."""
        if msg.from_cell != self.my_cell:
            self.routing.update(
                msg.src, msg.from_cell, msg.s_seq, self.now,
                self.params.route_lifetime_s,
            )
        self.location_cache[msg.src] = msg.origin_cell

    def _answer_rreq(self, msg: Rreq) -> None:
        """Originate the RREP for ``msg.dst``, found in our cell."""
        self.seq += 1
        rep = Rrep(
            src=msg.src,
            dst=msg.dst,
            d_seq=self.seq,
            dest_cell=self.my_cell,
            from_cell=self.my_cell,
        )
        self.counters.inc("rrep_originated")
        self._send_rrep_toward(rep, msg.src)

    def _send_rrep_toward(self, rep: Rrep, requester: int) -> None:
        if requester == self.node.id:
            self._route_ready(rep)
            return
        entry = self.routing.lookup(requester, self.now)
        if entry is None:
            self.counters.inc("rrep_lost")
            return
        gw = self._gateway_of(entry.next_cell)
        if gw is None or gw == self.node.id:
            self.counters.inc("rrep_lost")
            return
        self._unicast(
            rep,
            gw,
            on_fail=lambda _m, _d: self.counters.inc("rrep_lost"),
        )

    def _on_rrep(self, rep: Rrep) -> None:
        self.routing.update(
            rep.dst, rep.from_cell, rep.d_seq, self.now, self.params.route_lifetime_s
        )
        self.location_cache[rep.dst] = rep.dest_cell
        if rep.src == self.node.id:
            self._route_ready(rep)
        elif rep.hops >= self.node.grid.cols * self.node.grid.rows:
            # Reverse pointers can form a cycle between gateways, and a
            # loop-free path never crosses more cells than the grid has.
            self.counters.inc("rrep_lost")
        else:
            self._send_rrep_toward(
                Rrep(
                    src=rep.src, dst=rep.dst, d_seq=rep.d_seq,
                    dest_cell=rep.dest_cell, from_cell=self.my_cell,
                    hops=rep.hops + 1,
                ),
                rep.src,
            )

    def _route_ready(self, rep: Rrep) -> None:
        p = self.pending.pop(rep.dst, None)
        if p is None:
            return
        p.timer.cancel()
        while p.queue:
            # send_data dispatches correctly even if our role changed
            # while the discovery was in flight.
            self.send_data(p.queue.popleft())

    def _send_rerr(self, src: int, dest: int, hops: int = 0) -> None:
        if src == self.node.id or self.hosts.is_known(src):
            return  # the source is local; our own repair covers it
        entry = self.routing.lookup(src, self.now)
        if entry is None:
            return
        gw = self._gateway_of(entry.next_cell)
        if gw is None or gw == self.node.id:
            return
        self.counters.inc("rerr_sent")
        self._unicast(
            Rerr(src=src, dst=dest, broken_cell=self.my_cell, hops=hops), gw
        )

    def _on_rerr(self, msg: Rerr) -> None:
        self.routing.invalidate(msg.dst)
        if msg.src == self.node.id or self.hosts.is_known(msg.src):
            return  # reached the source('s gateway): future sends re-discover
        if msg.hops >= self.node.grid.cols * self.node.grid.rows:
            # The RREP's bound: reverse pointers can form a cycle.
            self.counters.inc("rerr_lost")
            return
        self._send_rerr(msg.src, msg.dst, msg.hops + 1)

    # ------------------------------------------------------------------
    # Data envelopes
    # ------------------------------------------------------------------
    def _on_envelope(self, env: DataEnvelope, sender_id: int) -> None:
        packet = env.packet
        if packet is None:
            return
        packet.hops += 1
        # Passive reverse route toward the application-level source.
        if packet.src != self.node.id and env.from_cell != self.my_cell:
            self.routing.update(
                packet.src, env.from_cell, 0, self.now, self.params.route_lifetime_s
            )
        if packet.dst == self.node.id:
            self._note_activity()
            self.node.deliver_to_app(packet)
            return
        if self.role is Role.GATEWAY:
            self._route_packet(packet)
        elif self.my_gateway is not None and self.my_gateway != self.node.id:
            # We demoted while traffic was in flight; bounce via the
            # current gateway.
            self._send_via_gateway(packet)
        else:
            self._queue_local(packet)

    def _note_activity(self) -> None:
        """Hook: ECGRID resets its idle re-sleep timer on traffic."""
