"""Shared machinery of the grid protocol family (GRID and ECGRID).

This class implements everything §3 of the paper describes that is not
specific to sleeping: HELLO beaconing, the distributed gateway election
(rules 1–3 and the election algorithm of §3.1), gateway maintenance on
mobility (§3.2: newcomer handling, takeover, RETIRE handoff, LEAVE
notifications, no-gateway detection), and neighbor-gateway tracking.
Route discovery and data forwarding live in
:class:`repro.core.routing.GridRoutingMixin`, which every concrete
protocol of the family (GRID, ECGRID, GAF) subclasses; the ECGRID
energy machinery (sleep/wake, RAS paging, ACQ, load balancing) lives in
:class:`repro.core.protocol.EcGridProtocol`.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.core.election import (
    Candidate,
    ElectionPolicy,
    beats,
    elect,
    get_policy,
)
from repro.core.messages import (
    Acq,
    DataEnvelope,
    Hello,
    Leave,
    Retire,
    Rerr,
    Rrep,
    Rreq,
    SleepNotify,
    TablesTransfer,
)
from repro.core.tables import HostTable, RoutingTable
from repro.des.timer import PeriodicTimer, Timer
from repro.geo.grid import GridCoord
from repro.metrics.collectors import Counters
from repro.net.packet import BROADCAST, Message
from repro.protocols.base import ProtocolParams, RoutingProtocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node


class Role(enum.Enum):
    GATEWAY = "gateway"
    ACTIVE = "active"
    SLEEPING = "sleeping"
    DEAD = "dead"


class GridProtocolBase(RoutingProtocol):
    """Common behaviour of GRID-family protocols.

    Subclass knobs:

    - ``energy_aware``: election rule 1 considers battery bands (ECGRID)
      or not (GRID elects purely by distance-to-center + ID).
    - ``uses_ras``: whether RETIRE handoffs first wake the grid with the
      RAS broadcast sequence (pointless when nobody sleeps).

    The routing handlers the dispatch table and the membership code
    call (``_on_envelope``, ``_on_rreq``, ``_member_registered`` ...)
    come from :class:`~repro.core.routing.GridRoutingMixin`; nothing
    builds this class on its own.
    """

    name = "grid-base"
    energy_aware = True
    uses_ras = True

    #: Exact-type message dispatch: ``type(msg) -> (handler name,
    #: wants_sender_id)``, one table for every instance.  Handlers are
    #: looked up by name at call time, so subclass overrides and methods
    #: patched onto a class after its instances exist are both honoured.
    #: A type not in the table is ignored, so a subclass that sends its
    #: own message subclass adds it here (GAF's discovery beacon).
    _dispatch = {
        Hello: ("_on_hello", False),
        DataEnvelope: ("_on_envelope", True),
        Rreq: ("_on_rreq", False),
        Rrep: ("_on_rrep", False),
        Rerr: ("_on_rerr", False),
        Retire: ("_on_retire", False),
        TablesTransfer: ("_on_tables_transfer", False),
        Leave: ("_on_leave", False),
        SleepNotify: ("_on_sleep_notify", False),
        Acq: ("_on_acq", True),
    }

    def __init__(
        self,
        node: "Node",
        params: ProtocolParams,
        counters: Optional[Counters] = None,
    ) -> None:
        super().__init__(node, params)
        self.counters = counters if counters is not None else Counters()
        self.rng = node.sim.rng.stream(f"proto-{node.id}")
        get_policy(params.election_policy)  # fail fast on an unknown name
        # Cumulative gateway-tenure bookkeeping (always on: pure local
        # arithmetic, no events or RNG, so the default path stays
        # bit-for-bit).  The load policy advertises it.  The open
        # tenure is (start time, the cell it holds), or None.
        self._tenure: Optional[Tuple[float, GridCoord]] = None
        self._tenure_total = 0.0

        self.role = Role.ACTIVE
        self.my_cell: GridCoord = node.cell()
        self.my_gateway: Optional[int] = None

        self.routing = RoutingTable()
        self.hosts = HostTable()
        #: cell -> (gateway id, last heard time)
        self.neighbor_gateways: Dict[GridCoord, Tuple[int, float]] = {}
        #: own-cell peers: id -> (Candidate, last heard time)
        self.cell_peers: Dict[int, Tuple[Candidate, float]] = {}

        self.hello_timer = PeriodicTimer(
            node.sim,
            self._hello_tick,
            params.hello_period_s,
            jitter=lambda: self.rng.uniform(
                -params.hello_jitter_s, params.hello_jitter_s
            ),
        )
        #: Waits for a gateway HELLO; expiry = no-gateway event (§3.2).
        self.watch_timer = Timer(node.sim, self._on_watch_expired)
        self._last_hello_sent = -1e9
        self._retiring = False

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self.node.sim

    @property
    def now(self) -> float:
        return self.node.sim.now

    @property
    def is_gateway(self) -> bool:
        return self.role is Role.GATEWAY

    @property
    def election_policy(self) -> ElectionPolicy:
        """The gateway-election ranking this run uses (swaps only the
        sort key; the election machinery itself is policy-blind)."""
        return get_policy(self.params.election_policy)

    def self_candidate(self) -> Candidate:
        if not self.election_policy.needs_context:
            return Candidate(
                self.node.id, self.node.energy_level(),
                self.node.dist_to_center(),
            )
        return Candidate(
            self.node.id,
            self.node.energy_level(),
            self.node.dist_to_center(),
            dwell_s=self._dwell_estimate(),
            tenure_s=self.gateway_tenure_s(),
        )

    def _dwell_estimate(self) -> float:
        """§3.2's straight-line dwell heuristic, advertised as election
        context under the dwell policy."""
        from repro.mobility.dwell import estimate_dwell_time

        return estimate_dwell_time(
            self.node.position(),
            self.node.velocity(),
            self.node.grid,
            self.params.min_dwell_s,
            self.params.max_dwell_s,
        )

    def gateway_tenure_s(self) -> float:
        """Total time this host has served as gateway so far."""
        total = self._tenure_total
        if self._tenure is not None:
            total += self.now - self._tenure[0]
        return total

    def _peer_fresh_cutoff(self) -> float:
        return self.now - self.params.hello_period_s * self.params.hello_loss_tolerance

    def fresh_peers(self):
        cutoff = self._peer_fresh_cutoff()
        return [c for c, t in self.cell_peers.values() if t >= cutoff]

    # ------------------------------------------------------------------
    # Send helpers
    # ------------------------------------------------------------------
    def _broadcast(self, message: Message) -> None:
        self.node.mac.send(message, BROADCAST)

    def _unicast(self, message: Message, dst: int, on_ok=None, on_fail=None) -> None:
        self.node.mac.send(message, dst, on_ok=on_ok, on_fail=on_fail)

    def _hello_message(self, gflag: bool) -> Hello:
        """Our beacon, carrying election context only when the run's
        policy needs it (``self_candidate`` gates the computation)."""
        me = self.self_candidate()
        return Hello(
            id=self.node.id,
            cell=self.my_cell,
            gflag=gflag,
            level=me.level,
            dist=me.dist,
            dwell_s=me.dwell_s,
            tenure_s=me.tenure_s,
        )

    def _send_hello(self) -> None:
        self._last_hello_sent = self.now
        self.counters.inc("hello_sent")
        self._broadcast(self._hello_message(self.is_gateway))

    def _hello_soon(self, max_jitter: float = 0.1) -> None:
        """An extra, jittered HELLO outside the periodic schedule
        (election rounds, newcomer announcements)."""
        self.sim.after(self.rng.uniform(0.0, max_jitter), self._hello_now)

    def _hello_now(self) -> None:
        if self.role not in (Role.ACTIVE, Role.GATEWAY):
            return
        # Several _hello_soon() requests can be queued before the first
        # fires; suppress the pile-up at fire time.
        if self.now - self._last_hello_sent < 0.1 * self.params.hello_period_s:
            return
        self._send_hello()

    def _hello_response(self) -> None:
        """Gateway answers a newcomer's HELLO (rate limited so a burst
        of arrivals doesn't cause a beacon storm)."""
        if self.now - self._last_hello_sent >= 0.25 * self.params.hello_period_s:
            self._hello_soon(0.05)

    def _await_gateway(self) -> None:
        """A no-gateway suspicion (§3.2 detection): announce ourselves
        and give a gateway a quarter HELLO period to answer before the
        watch re-runs the election."""
        self._hello_soon()
        self.watch_timer.start(0.25 * self.params.hello_period_s)

    def _await_election(self) -> None:
        """Join the election a RETIRE opened: announce ourselves, then
        wait half a HELLO period (jittered) for the winner's gflag."""
        self._hello_soon()
        self.watch_timer.start(
            0.5 * self.params.hello_period_s * (1.0 + self.rng.uniform(0.0, 0.3))
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.my_cell = self.node.cell()
        self.role = Role.ACTIVE
        # All hosts beacon during the initial HELLO period, then decide.
        self.hello_timer.start(
            initial_delay=self.rng.uniform(0.0, 0.8 * self.params.hello_period_s)
        )
        self.watch_timer.start(
            self.params.hello_period_s * (1.0 + self.rng.uniform(0.05, 0.25))
        )

    def on_death(self) -> None:
        if self.role is Role.GATEWAY:
            self._end_tenure(reason="death")
        self.role = Role.DEAD
        self.hello_timer.stop()
        self.watch_timer.cancel()

    def _hello_tick(self) -> None:
        if self.role not in (Role.ACTIVE, Role.GATEWAY):
            self.hello_timer.stop()
            return
        self._gateway_periodic_checks()
        self._send_hello()

    def _gateway_periodic_checks(self) -> None:
        """Hook: ECGRID's pre-death retirement check runs here."""

    # ------------------------------------------------------------------
    # Election
    # ------------------------------------------------------------------
    def _decide_election(self) -> None:
        """Apply the gateway election rules over self + fresh peers."""
        if self.role is not Role.ACTIVE:
            return
        candidates = self.fresh_peers()
        candidates.append(self.self_candidate())
        winner = elect(candidates, self.energy_aware, self.election_policy)
        if winner is not None and winner.id == self.node.id:
            self.become_gateway()
        else:
            # Wait for the winner's gflag HELLO; if it never comes
            # (winner moved/died), the watch re-runs the election.
            self.watch_timer.start(
                self.params.hello_period_s * (1.0 + self.rng.uniform(0.0, 0.3))
            )

    def _on_watch_expired(self) -> None:
        """No gateway HELLO within tolerance: the paper's no-gateway
        event.  With no live peers we are alone and declare ourselves;
        otherwise we re-run the election on what we have heard."""
        if self.role is not Role.ACTIVE:
            return
        self.counters.inc("no_gateway_events")
        if not self.fresh_peers():
            self.become_gateway()
        else:
            self._hello_soon()
            self._decide_election()

    def become_gateway(
        self,
        rtab_snapshot=None,
        htab_snapshot=None,
    ) -> None:
        if self.role is Role.DEAD:
            return
        if self._tenure is None:
            self._tenure = (self.now, self.my_cell)
        self.role = Role.GATEWAY
        self.my_gateway = self.node.id
        self.watch_timer.cancel()
        if rtab_snapshot:
            self.routing.load_snapshot(
                rtab_snapshot, self.now, self.params.route_lifetime_s
            )
        if htab_snapshot:
            self.hosts.load_snapshot(htab_snapshot)
        inherited = bool(htab_snapshot)
        # Seed the host table with recently heard grid-mates.
        for cand in self.fresh_peers():
            self.hosts.mark_active(cand.id)
        self.hosts.mark_active(self.node.id)
        self.counters.inc("gateway_elections")
        tr = self.node.tracer
        if tr.gateway:
            tr.emit(
                "gateway.elect", node=self.node.id, cell=self.my_cell,
                inherited=inherited,
            )
        if not self.hello_timer.running:
            self.hello_timer.start(initial_delay=self.params.hello_period_s)
        # Declare immediately: informs grid members and the neighbors.
        self._send_hello()
        self._on_became_gateway(inherited)

    def _on_became_gateway(self, inherited: bool) -> None:
        """Hook for subclasses (ECGRID flushes pending work).
        ``inherited`` says whether a RETIRE or tables transfer handed
        this gateway its host table."""

    def demote_to_active(self) -> None:
        """Stop being the gateway (lost a conflict or retired)."""
        if self.role is Role.GATEWAY:
            self._end_tenure()
            self.role = Role.ACTIVE
            self.hosts.clear()
            self.my_gateway = None

    def _end_tenure(self, **fields) -> None:
        """Close the gateway tenure before the role flips, so trace
        consumers (auditors, tenure timelines) see the handover.  The
        demote names the cell the tenure held: a gateway that moved
        has already taken its new cell as ``my_cell``."""
        cell = self.my_cell
        if self._tenure is not None:
            start, cell = self._tenure
            self._tenure_total += self.now - start
            self._tenure = None
        tr = self.node.tracer
        if tr.gateway:
            tr.emit("gateway.demote", node=self.node.id, cell=cell, **fields)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, message, sender_id: int) -> None:
        if self.role is Role.DEAD:
            return
        entry = self._dispatch.get(type(message))
        if entry is not None:
            name, wants_sender = entry
            if wants_sender:
                getattr(self, name)(message, sender_id)
            else:
                getattr(self, name)(message)

    # -- HELLO ----------------------------------------------------------
    def _on_hello(self, h: Hello) -> None:
        now = self.now
        if h.cell != self.my_cell:
            if h.gflag:
                self.neighbor_gateways[h.cell] = (h.id, now)
                # A stale same-cell record for this host is gone.
                self.cell_peers.pop(h.id, None)
            return

        self.cell_peers[h.id] = (
            Candidate(h.id, h.level, h.dist, h.dwell_s, h.tenure_s), now
        )

        if h.gflag:
            self.neighbor_gateways[h.cell] = (h.id, now)
            if self.is_gateway and h.id != self.node.id:
                self._resolve_gateway_conflict(h)
                return
            first_sighting = self.my_gateway != h.id
            self._set_my_gateway(h)
            if self.role is Role.ACTIVE:
                self._consider_takeover(h)
                if self.role is Role.ACTIVE:
                    self._on_gateway_known(first_sighting)
        else:
            if self.is_gateway:
                newcomer = not self.hosts.is_known(h.id)
                self.hosts.mark_active(h.id)
                if newcomer:
                    # §3.2: the gateway answers a newcomer's HELLO.
                    self._hello_response()
                    self._member_registered(h.id)

    def _set_my_gateway(self, h: Hello) -> None:
        self.my_gateway = h.id
        if self.role is Role.ACTIVE:
            self.watch_timer.start(
                self.params.hello_period_s * self.params.hello_loss_tolerance
            )

    def _consider_takeover(self, gw_hello: Hello) -> None:
        """§3.2 case 1: an incoming host replaces the gateway only with a
        *strictly higher* battery band (prevents replacement churn)."""
        if not self.energy_aware:
            return
        if self.node.energy_level() > gw_hello.level:
            self.counters.inc("gateway_takeovers")
            self.become_gateway()

    def _on_gateway_known(self, first_sighting: bool) -> None:
        """Hook: ECGRID puts idle non-gateways to sleep here."""

    def _resolve_gateway_conflict(self, other: Hello) -> None:
        """Two gateways in one grid (merge or duplicate election): the
        election rules decide; the loser hands over its tables."""
        me = self.self_candidate()
        them = Candidate(
            other.id, other.level, other.dist, other.dwell_s, other.tenure_s
        )
        if beats(me, them, self.energy_aware, self.election_policy):
            # Re-assert; the other side demotes on hearing us.
            self._hello_response()
            return
        self.counters.inc("gateway_conflicts_lost")
        tr = self.node.tracer
        if tr.gateway:
            tr.emit(
                "gateway.conflict_lost", node=self.node.id,
                cell=self.my_cell, other=other.id,
            )
        transfer = TablesTransfer(
            cell=self.my_cell,
            rtab=self.routing.snapshot(),
            htab=self.hosts.snapshot(),
        )
        self._unicast(transfer, other.id)
        self.demote_to_active()
        self._set_my_gateway(other)
        self._after_demotion()

    def _after_demotion(self) -> None:
        """Hook: ECGRID goes to sleep after losing a conflict."""

    # -- membership messages ---------------------------------------------
    def _on_tables_transfer(self, msg: TablesTransfer) -> None:
        if msg.cell != self.my_cell:
            return
        if self.is_gateway:
            self.routing.load_snapshot(
                msg.rtab, self.now, self.params.route_lifetime_s
            )
            self.hosts.load_snapshot(msg.htab)
            self.hosts.mark_active(self.node.id)

    def _on_leave(self, msg: Leave) -> None:
        if self.is_gateway:
            self.hosts.remove(msg.id)
            self._reroute_host_buffer(msg.id)

    def _on_sleep_notify(self, msg: SleepNotify) -> None:
        if self.is_gateway:
            self.hosts.mark_sleeping(msg.id)

    def _on_acq(self, msg: Acq, sender_id: int) -> None:
        """Hook: only the ECGRID gateway answers ACQ (§3.3)."""

    # -- RETIRE -----------------------------------------------------------
    def _on_retire(self, msg: Retire) -> None:
        if msg.cell != self.my_cell:
            gw = self.neighbor_gateways.get(msg.cell)
            if gw is not None and gw[0] == msg.gateway_id:
                del self.neighbor_gateways[msg.cell]
            return
        # §3.2: store the routing table and elect a new gateway.
        self.routing.load_snapshot(msg.rtab, self.now, self.params.route_lifetime_s)
        if self.my_gateway == msg.gateway_id:
            self.my_gateway = None
        self.cell_peers.pop(msg.gateway_id, None)
        if self.role is Role.ACTIVE:
            self._await_election()

    # ------------------------------------------------------------------
    # Mobility (§3.2 "Gateway Maintenance")
    # ------------------------------------------------------------------
    def on_cell_changed(self, old_cell: GridCoord, new_cell: GridCoord) -> None:
        if self.role is Role.DEAD:
            return
        if self.role is Role.SLEEPING:
            # A sleeping host acts on its dwell timer, not on GPS
            # interrupts (§3.2); the medium's bucket was updated by the
            # node already.
            return
        self._enter_cell(old_cell, new_cell)
        if self.role is Role.GATEWAY:
            # The departing gateway wakes its grid, waits tau, then
            # broadcasts RETIRE with its tables (§3.2).
            self._start_retire(
                old_cell, "gateway_moves", "move", self._finish_retire_move
            )
        else:
            if self.my_gateway is not None and self.my_gateway != self.node.id:
                self.counters.inc("leave_sent")
                self._unicast(Leave(id=self.node.id, cell=old_cell), self.my_gateway)
            self.enter_grid_as_newcomer()

    def _enter_cell(self, old_cell: GridCoord, new_cell: GridCoord) -> None:
        """An awake host crossed into ``new_cell``: its old grid-mates
        are no longer peers."""
        tr = self.node.tracer
        if tr.cell:
            tr.emit(
                "cell.enter", node=self.node.id, old=old_cell,
                new=new_cell, role=self.role.value,
            )
        self.my_cell = new_cell
        self.cell_peers.clear()

    def retire_in_place(self) -> None:
        """Hand off without leaving (load balance / imminent death)."""
        if not self.is_gateway or self._retiring:
            return
        self._start_retire(
            self.my_cell, "gateway_retirements", "rotate",
            self._finish_retire_in_place,
        )

    def _start_retire(self, cell: GridCoord, counter: str, reason: str, finish) -> None:
        """Open a RETIRE hand-off of ``cell`` (§3.2): wake its sleepers
        with the RAS broadcast sequence, snapshot our tables, and
        broadcast them from ``finish`` after the wait tau."""
        self.counters.inc(counter)
        tr = self.node.tracer
        if tr.gateway:
            tr.emit("gateway.retire", node=self.node.id, cell=cell, reason=reason)
        self._retiring = True
        if self.uses_ras:
            self.node.ras.page_grid(self.node.radio, cell)
        rtab = self.routing.snapshot()
        htab = self.hosts.snapshot()
        htab.pop(self.node.id, None)
        retire = Retire(cell=cell, gateway_id=self.node.id, rtab=rtab, htab=htab)
        self.sim.after(self.params.retire_wait_s, finish, retire)

    def _hand_over(self, retire: Retire) -> None:
        """The end of every RETIRE wait: broadcast the tables, step down."""
        self._broadcast(retire)
        self._retiring = False
        self.demote_to_active()

    def _finish_retire_move(self, retire: Retire) -> None:
        if self.role is Role.DEAD:
            return
        self._hand_over(retire)
        # §3.4 case 3: any personal route whose next grid no longer
        # neighbors us is re-pointed through the grid we just left (its
        # new gateway inherited our table via RETIRE), trading one
        # extra hop for route continuity.
        redirected = self.routing.redirect_non_adjacent(
            self.node.cell(), retire.cell
        )
        if redirected:
            self.counters.inc("routes_redirected_via_old_grid", redirected)
        self.enter_grid_as_newcomer()

    def _finish_retire_in_place(self, retire: Retire) -> None:
        if self.role is Role.DEAD:
            return
        self._hand_over(retire)
        # Participate in the election we just triggered.
        self._await_election()

    def enter_grid_as_newcomer(self) -> None:
        """§3.2 'hosts move into a new grid': broadcast HELLO; if no
        gateway answers within a HELLO period, the grid is empty and we
        declare ourselves."""
        self._resume_active()
        self.my_gateway = None
        self._hello_soon(0.05)
        self.watch_timer.start(
            self.params.hello_period_s * (1.0 + self.rng.uniform(0.05, 0.25))
        )

    def _resume_active(self) -> None:
        """Every way back to ACTIVE (newcomer, woken sleeper, GAF
        discovery): take the current cell and keep the HELLO period
        running.  Powering the radio up is the caller's business."""
        self.role = Role.ACTIVE
        self.my_cell = self.node.cell()
        if not self.hello_timer.running:
            self.hello_timer.start(initial_delay=self.params.hello_period_s)

    def _enter_sleep(self) -> None:
        """Turn the transceiver off as a non-gateway member (ECGRID's
        idle sleep, GAF's duty cycle); the caller arms the wake-up."""
        self.role = Role.SLEEPING
        self.counters.inc("sleeps")
        self.hello_timer.stop()
        self.watch_timer.cancel()
        self.node.go_to_sleep()
