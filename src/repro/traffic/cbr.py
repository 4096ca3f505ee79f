"""Constant-bit-rate flows (the paper's workload: 512-byte CBR)."""

from __future__ import annotations

from typing import Optional

from repro.des.core import Simulator
from repro.metrics.collectors import PacketLog
from repro.net.node import Node
from repro.net.packet import DataPacket, unlogged_uids


class CbrFlow:
    """One CBR source: ``rate_pps`` packets/s of ``size_bytes`` from
    ``src`` to ``dst_id``, between ``start_s`` and ``stop_s``.

    The flow stops silently when its source dies (a dead host issues no
    packets, so it does not distort the delivery-rate denominator).
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        src: Node,
        dst_id: int,
        rate_pps: float,
        size_bytes: int = 512,
        start_s: float = 0.0,
        stop_s: Optional[float] = None,
        log: Optional[PacketLog] = None,
        jitter_first: bool = True,
    ) -> None:
        if rate_pps <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.flow_id = flow_id
        self.src = src
        self.dst_id = dst_id
        self.rate_pps = rate_pps
        self.size_bytes = size_bytes
        self.stop_s = stop_s
        self.log = log
        self._uids = unlogged_uids if log is None else log.uids
        self.seqno = 0
        self.packets_issued = 0
        interval = 1.0 / rate_pps
        # Desynchronize flows: first packet lands uniformly inside the
        # first interval instead of all flows firing at t=start.
        offset = (
            sim.rng.stream(f"cbr-{flow_id}").uniform(0.0, interval)
            if jitter_first
            else 0.0
        )
        sim.at(max(start_s + offset, sim.now), self._emit)

    @property
    def interval(self) -> float:
        return 1.0 / self.rate_pps

    def _emit(self) -> None:
        if self.stop_s is not None and self.sim.now > self.stop_s:
            return
        if not self.src.alive:
            return
        self.seqno += 1
        self.packets_issued += 1
        packet = DataPacket(
            src=self.src.id,
            dst=self.dst_id,
            flow_id=self.flow_id,
            seqno=self.seqno,
            created_at=self.sim.now,
            uid=next(self._uids),
        )
        packet.size_bytes = self.size_bytes
        if self.log is not None:
            self.log.on_sent(packet)
        self.src.send_data(packet)
        self.sim.after(self.interval, self._emit)
