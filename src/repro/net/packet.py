"""Packet and message types shared by every protocol.

A *message* is what a routing protocol or application hands to the MAC;
the MAC wraps it in a frame for transmission.  Messages know their
serialized size so airtime and energy cost follow from the payload, as
in ns-2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, ClassVar

#: Link-layer broadcast address.
BROADCAST = -1

#: Bytes of MAC/PHY framing added to every transmission (preamble, MAC
#: header, FCS) — a single aggregate constant, as coarse 802.11 models use.
LINK_OVERHEAD_BYTES = 52

#: Uids of packets built outside a logged flow.  They count down from
#: -1, so they never meet the uids each network's flows count up from 1
#: (:attr:`repro.metrics.collectors.PacketLog.uids`).
unlogged_uids = itertools.count(-1, -1)


@dataclass
class Message:
    """Base class for everything sent over the air.

    Subclasses set ``size_bytes`` to their serialized payload size;
    control messages use small sizes typical of AODV-family headers.
    """

    size_bytes: ClassVar[int] = 32

    @property
    def wire_bytes(self) -> int:
        """Payload plus link framing — what occupies the channel."""
        return self.size_bytes + LINK_OVERHEAD_BYTES

    def describe(self) -> str:
        """Short human-readable tag used by logs and tests."""
        return type(self).__name__


@dataclass
class DataPacket(Message):
    """An application data packet traversing the network.

    ``uid`` identifies the packet end-to-end (for delivery/duplicate
    accounting); ``hops`` counts forwarding transmissions.
    """

    size_bytes: ClassVar[int] = 512

    src: int = 0
    dst: int = 0
    flow_id: int = 0
    seqno: int = 0
    created_at: float = 0.0
    uid: int = field(default_factory=lambda: next(unlogged_uids))
    hops: int = 0
    payload: Any = None

    def describe(self) -> str:
        return f"DATA({self.src}->{self.dst} #{self.seqno})"
