"""Remotely Activated Switch (RAS) paging channel (paper §2, Fig. 1).

Every host carries an RF-tag receiver that stays on even while the main
transceiver sleeps.  A gateway wakes a specific sleeping host by
transmitting that host's *paging sequence* (its unique ID), or every
host in a grid by transmitting the grid's *broadcast sequence* (its
grid coordinate).

Hardware substitution: the paper's RAS is the Chiasserini & Rao RF-tag
design; we model its externally visible behaviour — in-range paging
wakes matching hosts after a short signaling delay.  Receiving a page
costs nothing ("the power consumption of RAS ... can be ignored"); the
*sender* pays an ordinary short TX burst, which we charge through its
radio so paging is not a free lunch for the gateway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.des.core import Simulator
from repro.geo.grid import GridCoord, GridMap
from repro.obs.trace import NULL_TRACER
from repro.phy.medium import Medium
from repro.phy.radio import Radio

#: Called when a host's RAS fires.  Argument is True for a grid-wide
#: broadcast sequence, False for a host-specific page.
PageHandler = Callable[[bool], None]


@dataclass
class RasConfig:
    #: Airtime of one paging burst at the sender (seconds).
    page_duration_s: float = 0.001
    #: Delay from end of burst to the RAS logic switching the host on.
    activation_delay_s: float = 0.0005


class RasChannel:
    """The paging side-channel shared by all hosts."""

    #: Trace sink (``page.sent`` events); swapped in by the network
    #: when tracing is on.
    tracer = NULL_TRACER

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        grid: GridMap,
        config: Optional[RasConfig] = None,
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.grid = grid
        self.config = config or RasConfig()
        self._handlers: Dict[int, PageHandler] = {}
        self._radios: Dict[int, Radio] = {}
        self.pages_sent = 0
        self.broadcast_pages_sent = 0
        self.pages_fault_dropped = 0
        #: Optional fault hook ``(sender, target_radio_or_None,
        #: broadcast) -> bool``; True kills the burst in the air (the
        #: sender still pays for it).  Installed by
        #: :class:`repro.faults.inject.FaultInjector`.
        self.fault_hook: Optional[
            Callable[[Radio, Optional[Radio], bool], bool]
        ] = None

    def attach(self, node_id: int, radio: Radio, handler: PageHandler) -> None:
        """Register a host's RAS receiver."""
        self._handlers[node_id] = handler
        self._radios[node_id] = radio

    def detach(self, node_id: int) -> None:
        self._handlers.pop(node_id, None)
        self._radios.pop(node_id, None)

    # ------------------------------------------------------------------
    def page_host(self, sender: Radio, target_id: int) -> bool:
        """Transmit ``target_id``'s paging sequence from ``sender``.

        Returns True if the target's RAS was in range and fired (the
        sender cannot observe this; the return value serves tests).
        """
        self.pages_sent += 1
        tr = self.tracer
        if tr.page:
            tr.emit(
                "page.sent", node=sender.node_id,
                target=target_id, kind="host",
            )
        self._charge_sender(sender)
        target_radio = self._radios.get(target_id)
        if self.fault_hook is not None and self.fault_hook(
            sender, target_radio, False
        ):
            self.pages_fault_dropped += 1
            return False
        if target_radio is None or not target_radio.alive:
            return False
        if sender.position().dist(target_radio.position()) > self.medium.config.range_m:
            return False
        handler = self._handlers.get(target_id)
        if handler is None:
            return False
        self.sim.after(self._total_delay(), handler, False)
        return True

    def page_grid(self, sender: Radio, cell: GridCoord) -> int:
        """Transmit the broadcast sequence of ``cell``; every in-range,
        alive host currently located in that cell is activated.  Returns
        how many RAS receivers fired."""
        self.broadcast_pages_sent += 1
        tr = self.tracer
        if tr.page:
            tr.emit(
                "page.sent", node=sender.node_id,
                cell=cell, kind="grid",
            )
        self._charge_sender(sender)
        if self.fault_hook is not None and self.fault_hook(sender, None, True):
            self.pages_fault_dropped += 1
            return 0
        fired = 0
        pos = sender.position()
        for radio in self.medium.radios_near(pos, self.medium.config.range_m):
            if radio is sender or not radio.alive:
                continue
            if self.grid.cell_of(radio.position()) != cell:
                continue
            handler = self._handlers.get(radio.node_id)
            if handler is not None:
                self.sim.after(self._total_delay(), handler, True)
                fired += 1
        return fired

    # ------------------------------------------------------------------
    def _total_delay(self) -> float:
        return self.config.page_duration_s + self.config.activation_delay_s

    def _charge_sender(self, sender: Radio) -> None:
        """The paging burst occupies the sender's transmitter briefly."""
        if not sender.alive:
            return
        sender.begin_tx()
        self.sim.after(self.config.page_duration_s, sender.end_tx)
