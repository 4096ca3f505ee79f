"""Control-message formats of the grid protocol family (paper §3).

Sizes approximate compact binary encodings (AODV-family headers are
24–48 bytes); they matter only through airtime/energy, not semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Optional, Tuple

from repro.energy.profile import EnergyLevel
from repro.geo.grid import GridCoord
from repro.geo.region import Rect
from repro.net.packet import DataPacket, Message


@dataclass
class Hello(Message):
    """Periodic beacon of every active host (paper §3.1, five fields).

    ``dwell_s`` / ``tenure_s`` are optional election context (the
    advertiser's grid-dwell estimate and recent gateway tenure),
    populated only under election policies that need them (see
    :mod:`repro.core.election`); an absent field costs no wire bytes,
    so default-policy beacons keep the paper's 20-byte size.
    """

    size_bytes: ClassVar[int] = 20

    id: int = 0
    cell: GridCoord = (0, 0)
    gflag: bool = False
    level: EnergyLevel = EnergyLevel.UPPER
    dist: float = 0.0
    dwell_s: Optional[float] = None
    tenure_s: Optional[float] = None

    @property
    def wire_bytes(self) -> int:
        from repro.net.packet import LINK_OVERHEAD_BYTES

        extra = (4 if self.dwell_s is not None else 0) + (
            4 if self.tenure_s is not None else 0
        )
        return self.size_bytes + extra + LINK_OVERHEAD_BYTES

    def describe(self) -> str:
        flag = "G" if self.gflag else "-"
        return f"HELLO({self.id}@{self.cell}{flag})"


@dataclass
class Retire(Message):
    """A gateway's handoff broadcast: RETIRE(grid, rtab) (§3.2).

    Carries snapshots of the routing and host tables so the successor
    inherits state; wire size grows with the table.
    """

    size_bytes: ClassVar[int] = 16  # header; tables add per-entry bytes

    cell: GridCoord = (0, 0)
    gateway_id: int = 0
    rtab: Dict[int, Tuple[GridCoord, int]] = field(default_factory=dict)
    htab: Dict[int, bool] = field(default_factory=dict)

    @property
    def wire_bytes(self) -> int:
        from repro.net.packet import LINK_OVERHEAD_BYTES

        return (
            self.size_bytes
            + 8 * len(self.rtab)
            + 5 * len(self.htab)
            + LINK_OVERHEAD_BYTES
        )

    def describe(self) -> str:
        return f"RETIRE({self.gateway_id}@{self.cell}, {len(self.rtab)} routes)"


@dataclass
class TablesTransfer(Message):
    """Routing+host tables handed to a replacing gateway (§3.2 case 1:
    a fresher newcomer takes over and 'the original gateway ... will
    transmit the routing and host tables to the new gateway')."""

    size_bytes: ClassVar[int] = 16

    cell: GridCoord = (0, 0)
    rtab: Dict[int, Tuple[GridCoord, int]] = field(default_factory=dict)
    htab: Dict[int, bool] = field(default_factory=dict)

    @property
    def wire_bytes(self) -> int:
        from repro.net.packet import LINK_OVERHEAD_BYTES

        return (
            self.size_bytes
            + 8 * len(self.rtab)
            + 5 * len(self.htab)
            + LINK_OVERHEAD_BYTES
        )


@dataclass
class Leave(Message):
    """Unicast from a departing non-gateway host to its gateway (§3.2)."""

    size_bytes: ClassVar[int] = 16

    id: int = 0
    cell: GridCoord = (0, 0)


@dataclass
class SleepNotify(Message):
    """A non-gateway host tells its gateway it is entering sleep mode,
    keeping the host table's transmit/sleep status column accurate."""

    size_bytes: ClassVar[int] = 12

    id: int = 0


@dataclass
class Acq(Message):
    """ACQ(gid, D): a woken host asks its (possibly changed) gateway to
    handle traffic toward destination D (§3.3)."""

    size_bytes: ClassVar[int] = 16

    id: int = 0
    cell: GridCoord = (0, 0)
    dest: int = 0


@dataclass
class Rreq(Message):
    """Route request, flooded gateway-to-gateway inside ``region``."""

    size_bytes: ClassVar[int] = 28

    src: int = 0
    s_seq: int = 0
    dst: int = 0
    d_seq: int = 0
    rreq_id: int = 0
    region: Optional[Rect] = None
    from_cell: GridCoord = (0, 0)
    origin_cell: GridCoord = (0, 0)
    hops: int = 0

    def describe(self) -> str:
        return f"RREQ({self.src}->{self.dst} #{self.rreq_id})"


@dataclass
class Rrep(Message):
    """Route reply, unicast hop-by-hop along the reverse path."""

    size_bytes: ClassVar[int] = 24

    src: int = 0
    dst: int = 0
    d_seq: int = 0
    dest_cell: GridCoord = (0, 0)
    from_cell: GridCoord = (0, 0)
    hops: int = 0

    def describe(self) -> str:
        return f"RREP({self.dst}~>{self.src})"


@dataclass
class Rerr(Message):
    """Route error: a forwarding gateway tells the source that its route
    to ``dst`` broke so the source re-discovers (§3.4 case 4)."""

    size_bytes: ClassVar[int] = 16

    src: int = 0
    dst: int = 0
    broken_cell: GridCoord = (0, 0)
    hops: int = 0


@dataclass
class DataEnvelope(Message):
    """A data packet in grid-by-grid transit.

    ``from_cell`` is the grid coordinate of the forwarding gateway
    (reverse-pointer bookkeeping); the envelope header adds 8 bytes to
    the payload's wire size.
    """

    size_bytes: ClassVar[int] = 8

    packet: Optional[DataPacket] = None
    from_cell: GridCoord = (0, 0)

    @property
    def wire_bytes(self) -> int:
        from repro.net.packet import LINK_OVERHEAD_BYTES

        payload = self.packet.size_bytes if self.packet is not None else 0
        return self.size_bytes + payload + LINK_OVERHEAD_BYTES

    def describe(self) -> str:
        inner = self.packet.describe() if self.packet else "?"
        return f"ENV[{inner}]"
