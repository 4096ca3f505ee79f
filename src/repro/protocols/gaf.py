"""GAF baseline — Geographic Adaptive Fidelity (Xu, Heidemann, Estrin,
MobiCom'01), as the paper compares against it (§1, §4).

GAF partitions the plane into the same logical grid and keeps one
*active* node per grid awake; the others duty-cycle: sleep for Ts, wake
into a *discovery* state, broadcast a discovery message, and go back to
sleep if a higher-ranked node owns the grid.  Ranking prefers nodes in
the active state, then longer expected lifetime (enat), then smaller
ID.  Crucially — and this is the paper's critique — GAF has **no
mechanism to wake a sleeping destination**: packets to a sleeping host
are simply lost.  The paper therefore evaluates GAF under "Model 1":
ten infinite-energy endpoint hosts that are always active, act as all
sources/destinations, and never forward traffic.

Substitution note: the original GAF evaluation rode host-by-host AODV.
We route over the grid engine with the active node in the gateway role,
which isolates the energy policy (the thing the paper compares) while
keeping every protocol on one routing substrate.  Two small relaxations
recover what host-by-host AODV gives GAF for free: an always-awake
endpoint answers RREQs addressed to itself, and a forwarder may deliver
directly to a destination in an adjacent grid that has no active node
(radio range 2.5x the cell side makes both physically routine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

from repro.core.base import Role
from repro.core.messages import DataEnvelope, Hello, Rreq
from repro.core.routing import GridRoutingMixin
from repro.des.timer import Timer
from repro.geo.grid import GridCoord
from repro.metrics.collectors import Counters
from repro.net.packet import DataPacket
from repro.protocols.base import ProtocolParams


@dataclass
class GafDiscovery(Hello):
    """GAF's discovery message: a beacon carrying the ranking tuple.

    Subclasses :class:`Hello` so the shared machinery (neighbor active
    node tracking, grid membership) processes it transparently; ``gflag``
    doubles as "I am the active node of this grid".
    """

    size_bytes: ClassVar[int] = 24

    enat: float = 0.0          # estimated node active time (seconds)
    eligible: bool = True      # endpoints never take the active role


@dataclass
class GafParams:
    """GAF duty-cycle timers (Td / Ta / Ts in the GAF paper)."""

    discovery_window_s: float = 0.5
    #: Active-state tenure.  None = adaptive, the GAF paper's rule:
    #: half the node's estimated active time (enat/2), so rotation
    #: frequency tracks battery drain instead of churning routes on a
    #: fixed clock.
    active_time_s: Optional[float] = None
    #: Floor/ceiling for the adaptive tenure.
    min_active_time_s: float = 10.0
    max_active_time_s: float = 300.0
    sleep_time_s: float = 10.0
    #: Multiplicative jitter band on the sleep time (desynchronizes
    #: wakeups across a grid).
    sleep_jitter: float = 0.25
    #: enat is compared in buckets of this width: beacons age between
    #: transmission and comparison, and without coarsening every node
    #: sees its (decayed) own enat below everyone's advertised one and
    #: the whole grid goes to sleep.
    enat_quantum_s: float = 60.0


def _rank(
    active_state: bool, enat: float, node_id: int, quantum: float = 60.0
) -> Tuple[int, float, int]:
    """GAF ranking key; larger wins."""
    bucket = enat if enat == float("inf") else enat // quantum
    return (1 if active_state else 0, bucket, -node_id)


class GafProtocol(GridRoutingMixin):
    """One GAF node (regular or Model-1 endpoint)."""

    name = "gaf"
    energy_aware = False
    uses_ras = False
    page_sleeping_hosts = False   # GAF's defining limitation

    _dispatch = {
        **GridRoutingMixin._dispatch,
        GafDiscovery: ("_on_hello", False),
    }

    def __init__(
        self,
        node,
        params: ProtocolParams,
        counters: Optional[Counters] = None,
        gaf: Optional[GafParams] = None,
    ) -> None:
        super().__init__(node, params, counters)
        self.gaf = gaf or GafParams()
        self.decision_timer = Timer(node.sim, self._gaf_decide)
        self.active_timer = Timer(node.sim, self._on_active_expired)
        self.sleep_timer = Timer(node.sim, self._on_sleep_expired)
        #: id -> (active_state, enat, eligible, heard_at) for own cell
        self.gaf_peers: Dict[int, Tuple[bool, float, bool, float]] = {}

    # ------------------------------------------------------------------
    # Ranking
    # ------------------------------------------------------------------
    def _enat(self) -> float:
        """Expected remaining active time at idle draw."""
        battery = self.node.battery
        if battery.infinite:
            return float("inf")
        profile = self.node.radio.profile
        from repro.energy.profile import RadioMode

        return battery.remaining_at(self.now) / profile.total_power(RadioMode.IDLE)

    def _my_rank(self):
        return _rank(self.is_gateway, self._enat(), self.node.id,
                     self.gaf.enat_quantum_s)

    def _fresh_gaf_peers(self):
        cutoff = self._peer_fresh_cutoff()
        return [
            (nid, active, enat)
            for nid, (active, enat, eligible, t) in self.gaf_peers.items()
            if t >= cutoff and eligible
        ]

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.my_cell = self.node.cell()
        if self.node.is_endpoint:
            # Model-1 endpoint: always active, beacons so the grid's
            # active node keeps it in its host table, never competes.
            self.role = Role.ACTIVE
            self.hello_timer.start(
                initial_delay=self.rng.uniform(0.0, 0.8 * self.params.hello_period_s)
            )
            return
        self._enter_discovery(initial=True)

    def _enter_discovery(self, initial: bool = False) -> None:
        self.node.wake_up()
        self._resume_active()
        self.my_gateway = None
        self._hello_soon(0.5 * self.gaf.discovery_window_s)
        jitter = self.rng.uniform(0.0, 0.2 * self.gaf.discovery_window_s)
        self.decision_timer.start(self.gaf.discovery_window_s + jitter)
        if initial:
            self.counters.inc("gaf_discoveries")

    def _gaf_decide(self) -> None:
        if self.role is not Role.ACTIVE or self.node.is_endpoint:
            return
        my = self._my_rank()
        for nid, active, enat in self._fresh_gaf_peers():
            if nid == self.node.id:
                continue
            if _rank(active, enat, nid, self.gaf.enat_quantum_s) > my:
                self._gaf_sleep()
                return
        self.become_gateway()

    def become_gateway(self, rtab_snapshot=None, htab_snapshot=None) -> None:
        if self.node.is_endpoint:
            return
        super().become_gateway(rtab_snapshot, htab_snapshot)
        self.decision_timer.cancel()
        self.active_timer.start(self._active_tenure())
        self.counters.inc("gaf_active_terms")

    def _active_tenure(self) -> float:
        if self.gaf.active_time_s is not None:
            return self.gaf.active_time_s
        half_enat = self._enat() / 2.0
        return min(
            max(half_enat, self.gaf.min_active_time_s),
            self.gaf.max_active_time_s,
        )

    def _on_active_expired(self) -> None:
        """Ta elapsed: step down and re-run discovery so grid-mates get
        their turn (GAF's load-balancing rotation)."""
        if self.role is not Role.GATEWAY:
            return
        self.demote_to_active()
        self._enter_discovery()

    def _gaf_sleep(self) -> None:
        if self.role is not Role.ACTIVE or self.node.is_endpoint:
            return
        self.decision_timer.cancel()
        self._enter_sleep()
        base = self.gaf.sleep_time_s
        jit = self.gaf.sleep_jitter
        self.sleep_timer.start(base * self.rng.uniform(1.0 - jit, 1.0 + jit))

    def _on_sleep_expired(self) -> None:
        if self.role is not Role.SLEEPING:
            return
        self._enter_discovery()

    # ------------------------------------------------------------------
    # Beacons
    # ------------------------------------------------------------------
    def _hello_message(self, gflag: bool) -> GafDiscovery:
        me = self.self_candidate()
        return GafDiscovery(
            id=self.node.id,
            cell=self.my_cell,
            gflag=gflag,
            level=me.level,
            dist=me.dist,
            enat=self._enat(),
            eligible=not self.node.is_endpoint,
        )

    def _on_hello(self, h: Hello) -> None:
        if isinstance(h, GafDiscovery) and h.cell == self.my_cell:
            self.gaf_peers[h.id] = (h.gflag, h.enat, h.eligible, self.now)
            # A higher-ranked same-cell node while we hold the active
            # role: GAF demotes the redundant active node immediately.
            if (
                self.is_gateway
                and h.id != self.node.id
                and h.eligible
                and _rank(h.gflag, h.enat, h.id, self.gaf.enat_quantum_s)
                > self._my_rank()
            ):
                self.counters.inc("gaf_demotions")
                self.active_timer.cancel()
                self.demote_to_active()
                self._gaf_sleep()
                return
        super()._on_hello(h)

    def _resolve_gateway_conflict(self, other: Hello) -> None:
        """Two active nodes in one grid: lower GAF rank sleeps.

        Ties in the quantized rank are broken by node id (built into
        :func:`_rank`), so exactly one side sees itself as the loser.
        The winner must *re-assert* so the loser actually hears a
        higher-ranked beacon and steps down; when the tie is id-only
        the re-assert cannot wait on the rate-limited
        :meth:`_hello_response` — a suppressed response leaves both
        nodes active (and beaconing gflag) for up to a full hello
        period.
        """
        if isinstance(other, GafDiscovery):
            if other.id == self.node.id:
                # A stale echo of our own beacon: its aged enat can
                # outrank our freshly decayed one, and "losing" to
                # ourselves would demote the grid's only active node
                # and put it to sleep pointing at itself.
                return
            mine = self._my_rank()
            theirs = _rank(True, other.enat, other.id, self.gaf.enat_quantum_s)
            if theirs > mine:
                self.active_timer.cancel()
                self.demote_to_active()
                self._set_my_gateway(other)
                self._gaf_sleep()
            elif theirs[:2] == mine[:2] and (
                self.now - self._last_hello_sent
                < 0.25 * self.params.hello_period_s
            ):
                # id-only tie while the response rate limiter would
                # swallow our re-assert: beacon immediately.  Conflicts
                # are rare (two actives in one grid), so this cannot
                # storm the channel.
                self._send_hello()
            else:
                self._hello_response()
            return
        super()._resolve_gateway_conflict(other)

    # ------------------------------------------------------------------
    # No gateway guarantees in GAF
    # ------------------------------------------------------------------
    def _on_watch_expired(self) -> None:
        """GAF makes no gateway promise; endpoints especially must not
        self-elect.  Re-announce and keep listening."""
        if self.role is Role.ACTIVE and self.node.is_endpoint:
            self._hello_soon()
            return
        if self.role is Role.ACTIVE and not self.decision_timer.armed:
            # A non-endpoint stuck active with no active node around:
            # re-run discovery (we will likely claim the grid).
            self._gaf_decide()

    def on_cell_changed(self, old_cell: GridCoord, new_cell: GridCoord) -> None:
        if self.role in (Role.SLEEPING, Role.DEAD):
            return  # a sleeping GAF node sorts itself out at wakeup
        self._enter_cell(old_cell, new_cell)
        self.gaf_peers.clear()
        if self.role is Role.GATEWAY:
            # No handoff protocol in GAF: just vacate the role.
            self.active_timer.cancel()
            self.demote_to_active()
        if self.node.is_endpoint:
            self.my_gateway = None
            self._hello_soon(0.05)
        else:
            self._enter_discovery()

    # ------------------------------------------------------------------
    # Routing relaxations (see module docstring)
    # ------------------------------------------------------------------
    def _on_rreq(self, msg: Rreq) -> None:
        if msg.dst == self.node.id and not self.is_gateway:
            # An always-awake endpoint answers for itself, even from
            # outside the search region.
            if self._first_copy(msg):
                self._learn_requester(msg)
                self._answer_rreq(msg)
            return
        super()._on_rreq(msg)

    def _forward(self, packet: DataPacket, dest: int, next_cell: GridCoord) -> None:
        if (
            self._gateway_of(next_cell) is None
            and self.location_cache.get(dest) == next_cell
            and self.node.grid.grid_distance(self.my_cell, next_cell) <= 1
        ):
            # Last hop to an adjacent grid with no active node: deliver
            # straight to the (always-awake endpoint) destination.
            env = DataEnvelope(packet=packet, from_cell=self.my_cell)
            self.counters.inc("gaf_direct_deliveries")
            self._unicast(
                env,
                dest,
                on_fail=lambda _m, _d: self._forward_failed(
                    packet, dest, next_cell, dest
                ),
            )
            return
        super()._forward(packet, dest, next_cell)

    def send_data(self, packet: DataPacket) -> None:
        if (
            self.role is Role.ACTIVE
            and (self.my_gateway is None or self.my_gateway == self.node.id)
            and not self.is_gateway
        ):
            gw = self._nearest_reachable_gateway()
            if gw is not None:
                env = DataEnvelope(packet=packet, from_cell=self.my_cell)
                self._unicast(
                    env,
                    gw,
                    on_fail=lambda _m, _d: self._queue_local(packet),
                )
                return
        super().send_data(packet)

    def _nearest_reachable_gateway(self) -> Optional[int]:
        """An in-range active node of an adjacent grid (a lone endpoint
        hands its traffic to whoever it can hear, as host-by-host AODV
        would)."""
        horizon = self.params.hello_period_s * self.params.hello_loss_tolerance
        best = None
        best_d = None
        for cell, (gw_id, heard) in self.neighbor_gateways.items():
            if self.now - heard > horizon:
                continue
            d = self.node.grid.grid_distance(self.my_cell, cell)
            if d <= 1 and (best_d is None or d < best_d):
                best, best_d = gw_id, d
        return best

    def on_death(self) -> None:
        self.decision_timer.cancel()
        self.active_timer.cancel()
        self.sleep_timer.cancel()
        super().on_death()
