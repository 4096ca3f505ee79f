"""A compact CSMA/CA MAC with link-layer acknowledgements.

The model keeps the three channel behaviours the evaluation depends on:
carrier sensing with random backoff (serializes neighbors), unicast
ACK + bounded retry with exponential backoff (absorbs collisions, and
its exhaustion is the link-break signal routing protocols react to),
and broadcast as a single unacknowledged transmission.  Exact 802.11
DCF details (NAV, RTS/CTS, virtual carrier sense) are intentionally
omitted; they shift absolute latency constants, not protocol rankings.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional

from repro.des.core import Simulator
from repro.des.event import Event
from repro.mac.frames import ACK_WIRE_BYTES, AckFrame, Frame, FrameKind
from repro.energy.profile import RadioMode
from repro.net.packet import BROADCAST, LINK_OVERHEAD_BYTES
from repro.obs.trace import NULL_TRACER
from repro.phy.medium import Medium
from repro.phy.radio import Radio

ReceiveHandler = Callable[[Any, int], None]
SendCallback = Callable[[Any, int], None]


@dataclass
class MacConfig:
    slot_time_s: float = 20e-6
    difs_s: float = 50e-6
    sifs_s: float = 10e-6
    cw_min: int = 16
    cw_max: int = 1024
    retry_limit: int = 5
    queue_limit: int = 512
    #: Extra slack in the ACK timeout beyond the deterministic parts.
    ack_timeout_margin_s: float = 100e-6


@dataclass
class MacStats:
    enqueued: int = 0
    sent_unicast: int = 0
    sent_broadcast: int = 0
    acks_sent: int = 0
    retries: int = 0
    failures: int = 0
    delivered_up: int = 0
    duplicates_dropped: int = 0
    queue_drops: int = 0


class _TxJob:
    __slots__ = ("message", "dst", "wire_bytes", "on_ok", "on_fail", "retries", "seq", "cw")

    def __init__(self, message, dst, wire_bytes, on_ok, on_fail, seq, cw):
        self.message = message
        self.dst = dst
        self.wire_bytes = wire_bytes
        self.on_ok = on_ok
        self.on_fail = on_fail
        self.retries = 0
        self.seq = seq
        self.cw = cw


class CsmaMac:
    """Per-node MAC entity."""

    #: Trace sink (``radio.tx`` events); swapped in by the network when
    #: tracing is on.
    tracer = NULL_TRACER

    def __init__(
        self,
        sim: Simulator,
        radio: Radio,
        medium: Medium,
        rng: random.Random,
        config: Optional[MacConfig] = None,
    ) -> None:
        self.sim = sim
        self.radio = radio
        self.medium = medium
        self.rng = rng
        self.config = config or MacConfig()
        self.stats = MacStats()
        self.receive_handler: Optional[ReceiveHandler] = None
        self._queue: Deque[_TxJob] = deque()
        self._current: Optional[_TxJob] = None
        self._attempt_ev: Optional[Event] = None
        self._ack_ev: Optional[Event] = None
        self._seq = 0
        self._last_seq_from: Dict[int, int] = {}
        #: Called with each queued message discarded by :meth:`shutdown`
        #: (battery death), so upper layers can account lost payloads.
        self.drop_reporter: Optional[Callable[[Any], None]] = None
        radio.frame_sink = self._on_frame

    # ------------------------------------------------------------------
    # Upper-layer API
    # ------------------------------------------------------------------
    def send(
        self,
        message: Any,
        dst: int,
        wire_bytes: Optional[int] = None,
        on_ok: Optional[SendCallback] = None,
        on_fail: Optional[SendCallback] = None,
    ) -> bool:
        """Queue ``message`` for ``dst`` (a node id, or BROADCAST).

        ``on_ok``/``on_fail`` fire with ``(message, dst)`` when the frame
        is acknowledged / finally given up (broadcasts always "succeed"
        once transmitted).  Returns False if the queue overflowed.
        """
        if not self.radio.alive:
            return False
        if len(self._queue) >= self.config.queue_limit:
            self.stats.queue_drops += 1
            if on_fail is not None:
                self.sim.call_soon(on_fail, message, dst)
            return False
        if wire_bytes is None:
            wire_bytes = getattr(message, "wire_bytes", None)
            if wire_bytes is None:
                wire_bytes = LINK_OVERHEAD_BYTES + getattr(message, "size_bytes", 32)
        self._seq += 1
        job = _TxJob(message, dst, wire_bytes, on_ok, on_fail, self._seq, self.config.cw_min)
        self._queue.append(job)
        self.stats.enqueued += 1
        self._maybe_start()
        return True

    def kick(self) -> None:
        """Resume transmission attempts (call after waking the radio)."""
        self._maybe_start()

    def flush(self) -> int:
        """Drop all queued frames (on shutdown).  Returns count dropped."""
        n = len(self._queue)
        for job in self._queue:
            if job.on_fail is not None:
                self.sim.call_soon(job.on_fail, job.message, job.dst)
        self._queue.clear()
        return n

    @property
    def queue_length(self) -> int:
        return len(self._queue) + (1 if self._current is not None else 0)

    def shutdown(self) -> None:
        """Stop all activity (battery death).

        Queued frames are discarded without their ``on_fail`` callbacks
        (a dead node runs no protocol logic), but each discarded
        message is handed to :attr:`drop_reporter` synchronously so
        packet accounting sees the loss.
        """
        if self._attempt_ev is not None:
            self._attempt_ev.cancel()
            self._attempt_ev = None
        if self._ack_ev is not None:
            self._ack_ev.cancel()
            self._ack_ev = None
        report = self.drop_reporter
        if report is not None:
            if self._current is not None:
                report(self._current.message)
            for job in self._queue:
                report(job.message)
        self._current = None
        self._queue.clear()

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def _maybe_start(self) -> None:
        if self._current is not None or not self._queue:
            return
        if not self.radio.awake:
            return
        self._current = self._queue.popleft()
        self._schedule_attempt(self._current.cw)

    def _schedule_attempt(self, cw: int) -> None:
        backoff = self.config.difs_s + self.rng.randrange(cw) * self.config.slot_time_s
        if self._attempt_ev is not None:
            self._attempt_ev.cancel()
        self._attempt_ev = self.sim.after(backoff, self._attempt)

    def _attempt(self) -> None:
        self._attempt_ev = None
        job = self._current
        if job is None:
            return
        # ``radio.awake`` unrolled (property dispatch on every backoff
        # attempt is measurable at 1000 nodes).
        if self.radio.base_mode is not RadioMode.IDLE:
            # Radio was put to sleep mid-contention; park the job back.
            self._queue.appendleft(job)
            self._current = None
            return
        if self.medium.channel_busy(self.radio) or self.radio.rx_recs:
            # Busy: redraw a fresh backoff and try again.
            self._schedule_attempt(job.cw)
            return
        frame = Frame(FrameKind.DATA, self.radio.node_id, job.dst, job.seq,
                      job.message, job.wire_bytes)
        tr = self.tracer
        if tr.radio:
            tr.emit(
                "radio.tx", node=self.radio.node_id,
                awake=self.radio.base_mode is RadioMode.IDLE,
                dst=job.dst, bytes=job.wire_bytes,
            )
        broadcast = job.dst == BROADCAST
        airtime = self.medium.transmit(
            self.radio, frame, job.wire_bytes, None if broadcast else job.dst
        )
        if broadcast:
            self.stats.sent_broadcast += 1
            self.sim.after(airtime, self._broadcast_done, job)
        else:
            self.stats.sent_unicast += 1
            timeout = (
                airtime
                + self.medium.config.propagation_delay_s * 2
                + self.config.sifs_s
                + self.medium.airtime(ACK_WIRE_BYTES)
                + self.config.ack_timeout_margin_s
            )
            self._ack_ev = self.sim.after(timeout, self._ack_timeout, job)

    def _broadcast_done(self, job: _TxJob) -> None:
        if self._current is job:
            self._current = None
        if job.on_ok is not None:
            job.on_ok(job.message, job.dst)
        self._maybe_start()

    def _ack_timeout(self, job: _TxJob) -> None:
        self._ack_ev = None
        if self._current is not job:
            return
        job.retries += 1
        if job.retries > self.config.retry_limit:
            self.stats.failures += 1
            self._current = None
            if job.on_fail is not None:
                job.on_fail(job.message, job.dst)
            self._maybe_start()
            return
        self.stats.retries += 1
        job.cw = min(job.cw * 2, self.config.cw_max)
        self._schedule_attempt(job.cw)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _on_frame(self, frame: Any, sender_id: int) -> None:
        # Data frames outnumber ACKs by more than an order of
        # magnitude; test for them first.
        if not isinstance(frame, Frame):
            if isinstance(frame, AckFrame):
                self._on_ack(frame)
            return
        if frame.dst != BROADCAST and frame.dst != self.radio.node_id:
            return  # overheard; energy already charged by the medium
        if frame.dst == self.radio.node_id:
            # ACK first (even duplicates: the sender may have missed
            # the previous ACK).
            ack = AckFrame(self.radio.node_id, frame.src, frame.seq)
            self.sim.after(self.config.sifs_s, self._send_ack, ack)
            last = self._last_seq_from.get(frame.src)
            if last == frame.seq:
                self.stats.duplicates_dropped += 1
                return
            self._last_seq_from[frame.src] = frame.seq
        self.stats.delivered_up += 1
        if self.receive_handler is not None:
            self.receive_handler(frame.message, frame.src)

    def _send_ack(self, ack: AckFrame) -> None:
        if self.radio.base_mode is not RadioMode.IDLE or self.radio.transmitting:
            return
        self.stats.acks_sent += 1
        tr = self.tracer
        if tr.radio:
            tr.emit(
                "radio.tx", node=self.radio.node_id,
                awake=self.radio.base_mode is RadioMode.IDLE,
                dst=ack.dst, bytes=ack.wire_bytes,
            )
        self.medium.transmit(self.radio, ack, ack.wire_bytes, ack.dst)

    def _on_ack(self, ack: AckFrame) -> None:
        job = self._current
        if job is None or ack.dst != self.radio.node_id:
            return
        if ack.acked_seq != job.seq:
            return
        if self._ack_ev is not None:
            self._ack_ev.cancel()
            self._ack_ev = None
        self._current = None
        if job.on_ok is not None:
            job.on_ok(job.message, job.dst)
        self._maybe_start()
