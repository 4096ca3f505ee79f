"""The interface between a node and its routing protocol."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Literal

from repro.energy.profile import EnergyLevel
from repro.geo.grid import GridCoord
from repro.net.packet import DataPacket

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node


@dataclass
class ProtocolParams:
    """Tunables shared across the grid-protocol family.

    Defaults follow the paper where it gives numbers and common
    AODV/GRID/GAF practice where it does not.
    """

    #: Interval between HELLO beacons of active hosts (the "HELLO
    #: period" also used as the election listening window).
    hello_period_s: float = 2.0
    #: Uniform jitter added to each beacon to desynchronize neighbors.
    hello_jitter_s: float = 0.2
    #: Beacons missed before an active host declares a no-gateway event.
    hello_loss_tolerance: float = 3.5
    #: Pause between a gateway's wake-everyone broadcast sequence and its
    #: RETIRE message (the paper's tau) — time for RAS wakeups to settle.
    retire_wait_s: float = 0.05
    #: Route discovery retry/timeout.  The timeout must cover a full
    #: global flood round including MAC queueing under churn; the last
    #: retries search the whole map (§3.3 "another round ... to search
    #: all areas").
    route_request_timeout_s: float = 0.8
    route_request_retries: int = 3
    #: RREQ confinement policy (§3.3 / GRID paper): "bbox" floods only
    #: the S-D bounding rectangle, "bbox_margin" adds a ring of
    #: ``search_margin_cells``, "global" never confines.
    search_policy: Literal["bbox", "bbox_margin", "global"] = "bbox_margin"
    #: Extra ring of grids around the S-D bounding box searched by RREQ.
    search_margin_cells: int = 1
    #: Packets buffered per pending route discovery / sleeping neighbor.
    buffer_limit: int = 64
    #: How long a woken / idle non-gateway host stays awake with no
    #: traffic before sleeping again.
    idle_before_sleep_s: float = 1.0
    #: Dwell-timer clamp (see repro.mobility.dwell).
    min_dwell_s: float = 1.0
    max_dwell_s: float = 60.0
    #: How a sleeping host estimates its grid dwell (§3.2): "exact"
    #: reads the host's own itinerary (its navigation knows when it
    #: will leave the grid); "heuristic" is the paper's literal
    #: position+velocity extrapolation, which over-sleeps badly when
    #: the estimate is taken during a pause and the host then moves.
    dwell_mode: Literal["exact", "heuristic"] = "exact"
    #: Routing-table entry lifetime without use.
    route_lifetime_s: float = 30.0
    #: How long a woken sender waits for the gateway's reply to ACQ
    #: before declaring a no-gateway event (§3.3 handshake).
    acq_timeout_s: float = 0.25
    #: ECGRID load-balance handoff on battery band change (§3.2).
    load_balance: bool = True
    #: Gateway-election ranking (see :mod:`repro.core.election`):
    #: "paper" (rules 1-3), "grid" (non-energy-aware), "dwell", "load",
    #: or "random".  Part of the experiment config, so it keys the
    #: result cache and the serve-path work identity.
    election_policy: str = "paper"


class RoutingProtocol:
    """Base class: every callback a :class:`~repro.net.node.Node` invokes.

    Protocols are strictly event-driven; every method is a reaction to a
    simulator event (a received message, a timer, a mobility or battery
    transition).
    """

    name = "base"

    def __init__(self, node: "Node", params: ProtocolParams) -> None:
        self.node = node
        self.params = params

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Called once at simulation start (node is awake and idle)."""

    def on_death(self) -> None:
        """Battery exhausted; radio is already off."""

    # -- traffic --------------------------------------------------------
    def send_data(self, packet: DataPacket) -> None:
        """Application hands down a packet addressed to ``packet.dst``."""
        raise NotImplementedError

    # -- inputs ---------------------------------------------------------
    def on_message(self, message: Any, sender_id: int) -> None:
        """A frame addressed to us (or broadcast) arrived from the MAC."""

    def on_cell_changed(self, old_cell: GridCoord, new_cell: GridCoord) -> None:
        """The node's grid coordinate changed (exact crossing event)."""

    def on_paged(self, broadcast: bool) -> None:
        """Our RAS fired (host page, or grid broadcast sequence)."""

    def on_battery_level_change(
        self, old: EnergyLevel, new: EnergyLevel
    ) -> None:
        """Rbrc crossed a band threshold."""
