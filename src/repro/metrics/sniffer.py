"""A promiscuous channel sniffer — tcpdump for the simulated medium.

Wraps ``Medium.transmit`` and records one entry per frame put on the
air: time, sender, link destination, frame kind, payload type and
wire size.  No protocol cooperation needed; useful for debugging
("what actually went over the air during this election?") and for
tests that assert on traffic patterns.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional, TYPE_CHECKING

from repro.mac.frames import AckFrame, Frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.medium import Medium


@dataclass(frozen=True)
class SniffedFrame:
    time: float
    sender: int
    dst: int                 # link-layer destination (-1 = broadcast)
    kind: str                # "ack" or the payload message class name
    wire_bytes: int

    def describe(self) -> str:
        target = "*" if self.dst == -1 else str(self.dst)
        return (f"{self.time:10.4f}  {self.sender:3d} -> {target:>3s}  "
                f"{self.kind:<14s} {self.wire_bytes:4d}B")


class Sniffer:
    """Attach with ``Sniffer(medium)``; detach with :meth:`detach`."""

    def __init__(self, medium: "Medium", max_frames: int = 100_000) -> None:
        self.medium = medium
        self.frames: Deque[SniffedFrame] = deque(maxlen=max_frames)
        self._orig_transmit = medium.transmit
        medium.transmit = self._tap  # type: ignore[method-assign]

    def _tap(self, sender, payload, wire_bytes, dst=None):
        if isinstance(payload, AckFrame):
            to, kind = payload.dst, "ack"
        elif isinstance(payload, Frame):
            to = payload.dst
            kind = type(payload.message).__name__
        else:
            to, kind = -1, type(payload).__name__
        self.frames.append(
            SniffedFrame(
                self.medium.sim.now, sender.node_id, to, kind, wire_bytes
            )
        )
        return self._orig_transmit(sender, payload, wire_bytes, dst)

    def detach(self) -> None:
        self.medium.transmit = self._orig_transmit  # type: ignore

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def of_kind(self, kind: str) -> List[SniffedFrame]:
        return [f for f in self.frames if f.kind == kind]

    def between(self, t0: float, t1: float) -> List[SniffedFrame]:
        return [f for f in self.frames if t0 <= f.time <= t1]

    def kind_counts(self) -> Counter:
        return Counter(f.kind for f in self.frames)

    def bytes_by_kind(self) -> Counter:
        out: Counter = Counter()
        for f in self.frames:
            out[f.kind] += f.wire_bytes
        return out

    def dump(self, frames: Optional[Iterable[SniffedFrame]] = None) -> str:
        rows = frames if frames is not None else self.frames
        return "\n".join(f.describe() for f in rows)
