"""A mobile host: mobility + battery + radio + MAC + routing protocol."""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.des.core import Simulator
from repro.des.event import Event
from repro.energy.accounting import BatteryMonitor
from repro.energy.battery import Battery
from repro.energy.profile import EnergyLevel, PowerProfile, RadioMode
from repro.geo.grid import GridCoord, GridMap
from repro.geo.vector import Vec2
from repro.mac.csma import CsmaMac, MacConfig
from repro.mobility.base import MobilityModel, next_cell_crossing
from repro.net.packet import DataPacket
from repro.obs.trace import NULL_TRACER
from repro.phy.medium import Medium
from repro.phy.radio import Radio
from repro.phy.ras import RasChannel

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocols.base import RoutingProtocol

AppSink = Callable[["Node", DataPacket], None]
DeathSink = Callable[["Node"], None]
#: ``(node, packet, reason)`` — a protocol discarded a data packet.
DropSink = Callable[["Node", DataPacket, str], None]


class Node:
    """One mobile host.

    The node owns the hardware stack and forwards every environmental
    event (cell crossings, battery transitions, RAS pages, received
    frames) to its routing protocol.  Protocols drive power state
    through :meth:`go_to_sleep` / :meth:`wake_up`.
    """

    #: Trace sink shared by the node and its protocol; the network
    #: swaps in a live tracer via :meth:`Network.attach_tracer`.
    tracer = NULL_TRACER

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        mobility: MobilityModel,
        grid: GridMap,
        medium: Medium,
        ras: RasChannel,
        profile: PowerProfile,
        battery: Battery,
        mac_config: Optional[MacConfig] = None,
        is_endpoint: bool = False,
    ) -> None:
        self.sim = sim
        self.id = node_id
        self.mobility = mobility
        self.grid = grid
        self.medium = medium
        self.ras = ras
        self.is_endpoint = is_endpoint
        self.alive = True

        self.battery = battery
        self.monitor = BatteryMonitor(
            sim,
            battery,
            on_depleted=self._on_depleted,
            on_level_change=self._on_level_change,
            max_draw_w=profile.total_power(RadioMode.TX),
        )
        self.radio = Radio(node_id, mobility, profile, self.monitor)
        self.mac = CsmaMac(
            sim,
            self.radio,
            medium,
            sim.rng.stream(f"mac-{node_id}"),
            mac_config,
        )
        self.mac.receive_handler = self._on_mac_receive
        # Frames the MAC still held at battery death carry data packets
        # that would otherwise vanish from the end-to-end accounting.
        self.mac.drop_reporter = self._on_mac_shutdown_drop

        self.protocol: Optional["RoutingProtocol"] = None
        self.app_sink: Optional[AppSink] = None
        self.death_sink: Optional[DeathSink] = None
        self.drop_sink: Optional[DropSink] = None

        self._crossing_ev: Optional[Event] = None
        medium.register(self.radio)
        ras.attach(node_id, self.radio, self._on_paged)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def position(self) -> Vec2:
        return self.mobility.position(self.sim.now)

    def velocity(self) -> Vec2:
        return self.mobility.velocity(self.sim.now)

    def cell(self) -> GridCoord:
        return self.grid.cell_of(self.position())

    def dist_to_center(self) -> float:
        return self.grid.dist_to_center(self.position())

    # ------------------------------------------------------------------
    # Power state (called by protocols)
    # ------------------------------------------------------------------
    @property
    def awake(self) -> bool:
        return self.radio.awake

    def go_to_sleep(self) -> None:
        """Turn the transceiver off (the RAS stays armed)."""
        if self.alive:
            self.radio.sleep()

    def wake_up(self) -> None:
        """Turn the transceiver on and resume any queued MAC work."""
        if self.alive:
            self.radio.wake()
            self.mac.kick()

    def energy_level(self) -> EnergyLevel:
        return self.battery.level(self.sim.now)

    def rbrc(self) -> float:
        return self.battery.rbrc(self.sim.now)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin simulation: arm mobility tracking and the protocol."""
        self._schedule_crossing()
        if self.protocol is not None:
            self.protocol.start()

    def send_data(self, packet: DataPacket) -> None:
        """Application entry point."""
        if self.alive and self.protocol is not None:
            self.protocol.send_data(packet)

    def deliver_to_app(self, packet: DataPacket) -> None:
        """Called by the protocol when a packet reaches its destination."""
        if self.app_sink is not None:
            self.app_sink(self, packet)

    def report_drop(self, packet: DataPacket, reason: str) -> None:
        """Called by the protocol when it discards a data packet, so
        end-to-end delivery accounting sees every loss with a reason."""
        tr = self.tracer
        if tr.drop:
            tr.emit(
                "drop." + reason, node=self.id,
                uid=packet.uid, src=packet.src, dst=packet.dst,
            )
        if self.drop_sink is not None:
            self.drop_sink(self, packet, reason)

    def _on_mac_shutdown_drop(self, message: object) -> None:
        """A queued frame was discarded by the MAC shutting down; if it
        carried a data packet, account the loss."""
        packet = getattr(message, "packet", None)
        if isinstance(packet, DataPacket):
            self.report_drop(packet, "node_died")

    def crash(self) -> None:
        """Fail the host instantly — §3.2's "gateway is down because of
        an accident": no RETIRE, no notice, the battery is simply gone.
        Public API for failure-injection experiments."""
        if self.alive:
            self.battery.exhaust(self.sim.now)
        self._on_depleted()

    def revive(self, protocol: "RoutingProtocol", energy_frac: float = 0.5) -> bool:
        """Reboot a crashed host with ``energy_frac`` of its battery
        capacity and a *fresh* protocol instance (a reboot loses all
        routing state).  Inverse of :meth:`crash`; returns False if the
        host is still alive.  Public API for failure-injection
        experiments — see :class:`repro.faults.inject.FaultInjector`.
        """
        if self.alive:
            return False
        if not 0.0 < energy_frac <= 1.0:
            raise ValueError("energy_frac must be in (0, 1]")
        now = self.sim.now
        if not self.battery.infinite:
            self.battery.recharge(energy_frac * self.battery.capacity_j, now)
        self.alive = True
        # Order matters: the monitor must be re-armed before the radio
        # powers on, so the fresh idle draw books depletion checks.
        self.monitor.reactivate()
        self.radio.power_on()
        self.medium.register(self.radio)
        self.ras.attach(self.id, self.radio, self._on_paged)
        self.protocol = protocol
        self._schedule_crossing()
        protocol.start()
        return True

    # ------------------------------------------------------------------
    # Internal event plumbing
    # ------------------------------------------------------------------
    def _schedule_crossing(self) -> None:
        if self._crossing_ev is not None:
            self._crossing_ev.cancel()
            self._crossing_ev = None
        nxt = next_cell_crossing(self.mobility, self.sim.now, self.grid)
        if nxt is None:
            return
        t, new_cell = nxt
        old_cell = self.cell()
        self._crossing_ev = self.sim.at(t, self._on_crossing, old_cell, new_cell)

    def _on_crossing(self, old_cell: GridCoord, new_cell: GridCoord) -> None:
        self._crossing_ev = None
        if not self.alive:
            return
        self.medium.update_cell(self.radio)
        self._schedule_crossing()
        if self.protocol is not None:
            self.protocol.on_cell_changed(old_cell, new_cell)

    def _on_mac_receive(self, message: object, sender_id: int) -> None:
        if self.alive and self.protocol is not None:
            self.protocol.on_message(message, sender_id)

    def _on_paged(self, broadcast: bool) -> None:
        if self.alive and self.protocol is not None:
            self.protocol.on_paged(broadcast)

    def _on_level_change(self, old: EnergyLevel, new: EnergyLevel) -> None:
        if self.alive and self.protocol is not None:
            self.protocol.on_battery_level_change(old, new)

    def _on_depleted(self) -> None:
        if not self.alive:
            return
        self.alive = False
        self.radio.power_off()
        self.mac.shutdown()
        if self._crossing_ev is not None:
            self._crossing_ev.cancel()
            self._crossing_ev = None
        self.medium.unregister(self.radio)
        self.ras.detach(self.id)
        if self.protocol is not None:
            self.protocol.on_death()
        if self.death_sink is not None:
            self.death_sink(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.id} cell={self.cell()} alive={self.alive}>"
