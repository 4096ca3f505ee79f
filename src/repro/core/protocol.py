"""ECGRID — the Energy-Conserving GRID routing protocol (paper §3).

On top of the shared grid machinery this adds everything that makes
ECGRID energy-conserving:

- non-gateway hosts turn their transceivers off (sleep mode) once a
  gateway is established, after announcing it with SleepNotify;
- the dwell timer (§3.2): a sleeping host wakes at its estimated
  grid-exit time, checks its GPS *without* powering the radio, and
  either re-sleeps or rejoins as a newcomer;
- RAS paging: the gateway wakes a sleeping destination on demand and
  never relies on periodic polling (the key difference from Span/GAF);
- the ACQ handshake (§3.3) for a woken source whose gateway may have
  changed while it slept;
- load-balanced gateway rotation on battery-band changes and the
  pre-death retirement of a lower-band gateway (§3.2).
"""

from __future__ import annotations

from repro.core.base import Role
from repro.core.messages import Acq, Leave, SleepNotify
from repro.core.routing import GridRoutingMixin
from repro.des.timer import Timer
from repro.energy.profile import EnergyLevel
from repro.mobility.base import next_cell_crossing
from repro.net.packet import DataPacket
from repro.protocols.base import ProtocolParams


class EcGridProtocol(GridRoutingMixin):
    """The paper's protocol."""

    name = "ecgrid"
    energy_aware = True
    uses_ras = True
    page_sleeping_hosts = True

    def __init__(self, node, params: ProtocolParams, counters=None):
        super().__init__(node, params, counters)
        self.dwell_timer = Timer(node.sim, self._on_dwell_expired)
        self.idle_timer = Timer(node.sim, self._on_idle_expired)
        self.acq_timer = Timer(node.sim, self._on_acq_timeout)
        self._sleep_cell = None
        self._predeath_retired = False

    # ------------------------------------------------------------------
    # Sleeping
    # ------------------------------------------------------------------
    def _arm_idle(self) -> None:
        if self.role is Role.ACTIVE:
            self.idle_timer.start(self.params.idle_before_sleep_s)

    def _note_activity(self) -> None:
        if self.role is Role.ACTIVE:
            self._arm_idle()

    def _on_idle_expired(self) -> None:
        self._maybe_sleep()

    def _maybe_sleep(self) -> None:
        """Sleep iff we are an idle non-gateway with a known gateway."""
        if self.role is not Role.ACTIVE:
            return
        if self.my_gateway is None or self.my_gateway == self.node.id:
            return
        if (
            self.node.mac.queue_length > 0
            or self.pending
            or self.pending_local
            or self.acq_timer.armed
        ):
            self._arm_idle()  # busy: check again later
            return
        # Tell the gateway (keeps its status column truthful), sleep on
        # acknowledgement; an unreachable gateway is a no-gateway event.
        self.counters.inc("sleep_notify_sent")
        self._unicast(
            SleepNotify(id=self.node.id),
            self.my_gateway,
            on_ok=lambda _m, _d: self._sleep_now(),
            on_fail=lambda _m, _d: self._gateway_send_failed_quietly(),
        )

    def _gateway_send_failed_quietly(self) -> None:
        if self.role is not Role.ACTIVE:
            return
        self.counters.inc("gateway_unreachable")
        self.my_gateway = None
        self._await_gateway()

    def _sleep_now(self) -> None:
        if self.role is not Role.ACTIVE:
            return
        if self.node.mac.queue_length > 0:
            self._arm_idle()
            return
        self.idle_timer.cancel()
        self._sleep_cell = self.node.cell()
        self._enter_sleep()
        self._arm_dwell()

    def _arm_dwell(self) -> None:
        if self.params.dwell_mode == "exact":
            nxt = next_cell_crossing(
                self.node.mobility,
                self.now,
                self.node.grid,
                horizon=self.now + self.params.max_dwell_s,
            )
            raw = (nxt[0] - self.now) if nxt else self.params.max_dwell_s
            dwell = min(
                max(raw, self.params.min_dwell_s), self.params.max_dwell_s
            )
        else:
            dwell = self._dwell_estimate()
        self.dwell_timer.start(dwell)

    def _on_dwell_expired(self) -> None:
        """§3.2: wake to check (GPS only) whether we are leaving."""
        if self.role is not Role.SLEEPING:
            return
        if self.node.cell() == self._sleep_cell:
            # Not leaving: recalculate the dwell and sleep on — the
            # radio never powered up for this check.
            self.counters.inc("dwell_rechecks")
            self._arm_dwell()
            return
        # We left the grid while asleep (or are at the boundary): wake,
        # notify the old gateway, rejoin as a newcomer.
        old_gateway = self.my_gateway
        old_cell = self._sleep_cell
        self._wake_into_active()
        if old_gateway is not None and old_gateway != self.node.id:
            self.counters.inc("leave_sent")
            self._unicast(Leave(id=self.node.id, cell=old_cell), old_gateway)
        self.enter_grid_as_newcomer()

    def _wake_into_active(self) -> None:
        self.dwell_timer.cancel()
        self.node.wake_up()
        self._resume_active()

    # ------------------------------------------------------------------
    # RAS pages
    # ------------------------------------------------------------------
    def on_paged(self, broadcast: bool) -> None:
        if self.role is not Role.SLEEPING:
            return
        self.counters.inc("pages_received")
        self._wake_into_active()
        if broadcast:
            # Broadcast sequence: the gateway is retiring; a RETIRE
            # message (which opens an election) should follow.  If it
            # never arrives, the watch declares a no-gateway event.
            self.my_gateway = None
            self._hello_soon()
            self.watch_timer.start(self.params.hello_period_s)
        else:
            # Host page: buffered data is coming; stay up to receive it
            # and drift back to sleep via the idle timer.
            self.watch_timer.start(
                self.params.hello_period_s * self.params.hello_loss_tolerance
            )
            self._arm_idle()

    # ------------------------------------------------------------------
    # ACQ handshake (§3.3)
    # ------------------------------------------------------------------
    def _send_data_while_sleeping(self, packet: DataPacket) -> None:
        self._wake_into_active()
        self._queue_local(packet)
        self._send_acq(packet.dst)

    def _send_acq(self, dest: int) -> None:
        if self.acq_timer.armed:
            return
        self.counters.inc("acq_sent")
        self._broadcast(Acq(id=self.node.id, cell=self.my_cell, dest=dest))
        self.acq_timer.start(self.params.acq_timeout_s)

    def _on_acq_timeout(self) -> None:
        """No gateway answered the ACQ: detection situation 2 (§3.2)."""
        if self.role is not Role.ACTIVE:
            return
        self.counters.inc("no_gateway_events")
        self._await_gateway()

    def _on_acq(self, msg: Acq, sender_id: int) -> None:
        if not self.is_gateway or msg.cell != self.my_cell:
            return
        self.hosts.mark_active(msg.id)
        self._member_registered(msg.id)
        self._unicast(self._hello_message(gflag=True), msg.id)

    # ------------------------------------------------------------------
    # Hooks wired into the shared machinery
    # ------------------------------------------------------------------
    def _on_gateway_known(self, first_sighting: bool) -> None:
        self.acq_timer.cancel()
        super()._on_gateway_known(first_sighting)
        self._arm_idle()

    def _on_became_gateway(self, inherited: bool) -> None:
        self.acq_timer.cancel()
        self.idle_timer.cancel()
        self.dwell_timer.cancel()
        if not inherited:
            # No RETIRE handoff preceded this election (initial round,
            # or recovery from a crashed gateway): census the grid with
            # the broadcast sequence so silent sleepers re-register.
            # Awake members are unaffected; cost is one paging burst.
            self.node.ras.page_grid(self.node.radio, self.my_cell)
        super()._on_became_gateway(inherited)

    def _after_demotion(self) -> None:
        self._arm_idle()

    # ------------------------------------------------------------------
    # Load balancing and pre-death handoff (§3.2)
    # ------------------------------------------------------------------
    def on_battery_level_change(self, old: EnergyLevel, new: EnergyLevel) -> None:
        if (
            self.role is Role.GATEWAY
            and new < old
            and self.params.load_balance
        ):
            self.counters.inc("load_balance_retirements")
            self.retire_in_place()

    def _gateway_periodic_checks(self) -> None:
        """A lower-band gateway serves until its battery is (almost)
        empty, then issues the broadcast sequence and RETIRE (§3.2)."""
        if not self.is_gateway or self._predeath_retired:
            return
        if self.node.battery.infinite:
            return
        tte = self.node.battery.time_until_empty(self.now)
        if tte < 2.0 * self.params.hello_period_s:
            self._predeath_retired = True
            self.counters.inc("predeath_retirements")
            self.retire_in_place()

    # ------------------------------------------------------------------
    def on_death(self) -> None:
        self.dwell_timer.cancel()
        self.idle_timer.cancel()
        self.acq_timer.cancel()
        super().on_death()
