"""Collectors: packet delivery accounting, energy sampling, counters."""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.des.core import Simulator
from repro.net.packet import DataPacket
from repro.obs.counters import CounterRegistry
from repro.obs.trace import NULL_TRACER


class Counters(CounterRegistry):
    """Named event counters shared by protocol instances.

    Protocols increment e.g. ``hello_sent``, ``gateway_elections``,
    ``pages_sent`` so experiments can report protocol overhead.  The
    counter semantics live in :class:`~repro.obs.counters
    .CounterRegistry` (which adds gauges, histograms and timestamped
    snapshots on top); this subclass exists so the network-wide tally
    store keeps its established name and import path.
    """


class PacketLog:
    """End-to-end bookkeeping of every application packet.

    Delivery rate and latency are computed exactly as the paper defines
    them (§4C): rate = received / issued; latency = mean elapsed time
    between transmission and (first) reception.
    """

    #: Trace sink (``packet.*`` events); the network swaps in a live
    #: tracer via :meth:`Network.attach_tracer`.
    tracer = NULL_TRACER

    def __init__(self) -> None:
        #: Uids of the network's flow packets, from 1 in issue order, so
        #: a run's packets are numbered the same in any process.
        self.uids = itertools.count(1)
        self.sent: Dict[int, DataPacket] = {}
        self.delivered_at: Dict[int, float] = {}
        #: uid -> (time, reason) of the first protocol-level discard.
        self.dropped: Dict[int, Tuple[float, str]] = {}
        self.latencies: List[float] = []
        self.hop_counts: List[int] = []
        self.duplicates = 0

    def on_sent(self, packet: DataPacket) -> None:
        self.sent[packet.uid] = packet
        tr = self.tracer
        if tr.packet:
            tr.emit(
                "packet.sent", node=packet.src,
                uid=packet.uid, dst=packet.dst,
            )

    def on_delivered(self, packet: DataPacket, now: float) -> None:
        if packet.uid in self.delivered_at:
            self.duplicates += 1
            return
        self.delivered_at[packet.uid] = now
        # A copy that got through outranks an earlier drop of a sibling
        # copy: the packet's end-to-end fate is "delivered".
        self.dropped.pop(packet.uid, None)
        origin = self.sent.get(packet.uid)
        created = origin.created_at if origin is not None else packet.created_at
        self.latencies.append(now - created)
        self.hop_counts.append(packet.hops)
        tr = self.tracer
        if tr.packet:
            tr.emit(
                "packet.delivered", node=packet.dst, t=now,
                uid=packet.uid, latency_s=now - created, hops=packet.hops,
            )

    def on_dropped(self, packet: DataPacket, now: float, reason: str) -> None:
        """A protocol discarded ``packet`` (buffer overflow, failed
        discovery, unreachable host, host death ...).  First reason
        wins; a packet already delivered is never counted as dropped,
        so ``delivered + dropped <= sent`` always holds per uid."""
        if packet.uid in self.delivered_at or packet.uid in self.dropped:
            return
        self.dropped[packet.uid] = (now, reason)
        tr = self.tracer
        if tr.packet:
            tr.emit(
                "packet.dropped", t=now,
                uid=packet.uid, reason=reason,
            )

    # ------------------------------------------------------------------
    @property
    def sent_count(self) -> int:
        return len(self.sent)

    @property
    def delivered_count(self) -> int:
        return len(self.delivered_at)

    @property
    def dropped_count(self) -> int:
        return len(self.dropped)

    def drop_reasons(self) -> Dict[str, int]:
        """Drops per reason (sorted by reason for stable reporting)."""
        out: Dict[str, int] = {}
        for _, reason in self.dropped.values():
            out[reason] = out.get(reason, 0) + 1
        return dict(sorted(out.items()))

    def delivery_rate(self) -> float:
        if not self.sent:
            return 1.0
        return self.delivered_count / self.sent_count

    def delivery_rate_until(self, t: float) -> float:
        """Delivery rate over packets issued at or before ``t``.

        The paper's §4C delivery/latency figures are measured up to
        GRID's death (590 s); packets issued later — e.g. to hosts
        that have since died — would distort the comparison.
        """
        issued = [p for p in self.sent.values() if p.created_at <= t]
        if not issued:
            return 1.0
        delivered = sum(1 for p in issued if p.uid in self.delivered_at)
        return delivered / len(issued)

    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def latency_percentile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        data = sorted(self.latencies)
        idx = min(len(data) - 1, max(0, math.ceil(q * len(data)) - 1))
        return data[idx]

    def mean_hops(self) -> float:
        if not self.hop_counts:
            return 0.0
        return sum(self.hop_counts) / len(self.hop_counts)


class EnergySampler:
    """Samples the two energy figures-of-merit of the paper.

    - *fraction of alive hosts* (Figs. 4 and 8): alive finite-energy
      hosts / total finite-energy hosts;
    - *aen*, mean normalized energy consumption per host (Fig. 5, eq. 2):
      ``(E0 - Et) / (n * e0)`` where E0/Et are total initial/remaining
      energy over the n finite-energy hosts.

    Infinite-energy endpoints (GAF Model 1) are excluded, exactly as the
    paper excludes them.  Samples run at event priority 100 so a sample
    at time t observes all state changes at t.
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: Iterable,
        interval_s: float = 10.0,
    ) -> None:
        from repro.metrics.timeseries import TimeSeries

        self.sim = sim
        self.nodes = [n for n in nodes if not n.battery.infinite]
        self.interval_s = interval_s
        self.alive_fraction = TimeSeries("alive_fraction")
        self.aen = TimeSeries("aen")
        self.first_death_time: Optional[float] = None
        self.all_dead_time: Optional[float] = None
        self._initial_total = sum(n.battery.capacity_j for n in self.nodes)

    def start(self) -> None:
        self.sample()
        self._schedule()

    def _schedule(self) -> None:
        self.sim.after(self.interval_s, self._tick, priority=100)

    def _tick(self) -> None:
        self.sample()
        self._schedule()

    def sample(self) -> None:
        now = self.sim.now
        if not self.nodes:
            return
        alive = sum(1 for n in self.nodes if n.alive)
        self.alive_fraction.append(now, alive / len(self.nodes))
        remaining = sum(n.battery.remaining_at(now) for n in self.nodes)
        self.aen.append(now, (self._initial_total - remaining) / self._initial_total)

    def note_death(self, now: float) -> None:
        """Called by the network on each node death (exact times)."""
        if self.first_death_time is None:
            self.first_death_time = now
        if all(not n.alive for n in self.nodes):
            self.all_dead_time = now
