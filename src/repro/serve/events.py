"""Server-sent events: wire framing plus the per-job event broker.

A job's lifecycle is observable as an SSE stream
(``GET /v1/jobs/<id>/events``) of four event types:

- ``state`` — every state transition (``queued`` → ``running`` → ...);
- ``progress`` — per-point sweep progress (done / total / cached);
- ``trace`` — protocol trace events, when the job was submitted with
  ``trace=true`` (the PR 5 ring-buffered tracer streams feed these);
- ``end`` — the terminal :class:`~repro.serve.protocol.JobView`, after
  which the stream closes.

The broker mirrors the tracer's ring-buffer design: each job keeps a
bounded history (late subscribers replay it, oldest events evicted
first) plus live ``asyncio.Queue`` fan-out for connected streams.
Publishing is thread-safe — simulation work happens on executor
threads, so frames hop onto the event loop via
``loop.call_soon_threadsafe``; history stays consistent under a plain
lock even when no loop is attached (direct-drive unit tests).
"""

from __future__ import annotations

import asyncio
import json
import threading
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Content type of the event stream responses.
SSE_CONTENT_TYPE = "text/event-stream"

#: One parsed frame: (event name, decoded data, id or None).
Frame = Tuple[str, Any, Optional[int]]


def sse_frame(event: str, data: Any, id: Optional[int] = None) -> bytes:
    """One ``text/event-stream`` frame: ``id``/``event`` lines, the
    JSON payload split over ``data:`` lines, and the blank terminator."""
    lines: List[str] = []
    if id is not None:
        lines.append(f"id: {id}")
    lines.append(f"event: {event}")
    payload = json.dumps(data, separators=(",", ":"), default=str)
    for chunk in payload.splitlines() or [""]:
        lines.append(f"data: {chunk}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")


def parse_sse(text: str) -> List[Frame]:
    """Parse a concatenation of SSE frames (the client side of
    :func:`sse_frame`; used by tests and the smoke client)."""
    frames: List[Frame] = []
    for block in text.split("\n\n"):
        if not block.strip():
            continue
        event = "message"
        eid: Optional[int] = None
        data_lines: List[str] = []
        for line in block.split("\n"):
            if line.startswith("id:"):
                eid = int(line[3:].strip())
            elif line.startswith("event:"):
                event = line[6:].strip()
            elif line.startswith("data:"):
                chunk = line[5:]
                data_lines.append(chunk[1:] if chunk.startswith(" ") else chunk)
        data = json.loads("\n".join(data_lines)) if data_lines else None
        frames.append((event, data, eid))
    return frames


class EventBroker:
    """Per-job ring-buffered event history with live queue fan-out.

    ``ring`` bounds each job's replay history; evictions are counted in
    :attr:`evicted` (the stream itself is unbounded for connected
    subscribers — only late-join replay is ring-limited).  A replay that
    lost frames to eviction is prefixed with a synthetic ``dropped``
    frame carrying the evicted count, so late subscribers can tell a
    truncated history from a complete one.
    """

    def __init__(self, ring: int = 4096) -> None:
        self.ring = ring
        self.evicted: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._history: Dict[str, deque] = {}
        self._seq: Dict[str, int] = {}
        self._closed: set = set()
        self._queues: Dict[str, List[asyncio.Queue]] = {}

    def attach_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """The loop live subscribers run on (set once at server start)."""
        self._loop = loop

    # ------------------------------------------------------------------
    # Publishing (any thread)
    # ------------------------------------------------------------------
    def open(self, job_id: str) -> None:
        with self._lock:
            self._history.setdefault(job_id, deque(maxlen=self.ring))
            self._seq.setdefault(job_id, 0)
            self._queues.setdefault(job_id, [])
            self._closed.discard(job_id)

    def publish(self, job_id: str, event: str, data: Any) -> None:
        """Record one frame and fan it out to live subscribers.  Safe
        from any thread; queue delivery marshals onto the attached loop."""
        with self._lock:
            if job_id in self._closed:
                return
            history = self._history.setdefault(job_id, deque(maxlen=self.ring))
            self._seq[job_id] = seq = self._seq.get(job_id, 0) + 1
            frame = (event, data, seq)
            if len(history) == history.maxlen:
                self.evicted[job_id] = self.evicted.get(job_id, 0) + 1
            history.append(frame)
            queues = list(self._queues.get(job_id, ()))
            loop = self._loop
        self._deliver(loop, queues, frame)

    def close(self, job_id: str) -> None:
        """Mark the stream finished: subscribers receive the ``None``
        sentinel and late subscribers replay history then end."""
        with self._lock:
            if job_id in self._closed:
                return
            self._closed.add(job_id)
            queues = self._queues.pop(job_id, [])
            loop = self._loop
        self._deliver(loop, queues, None)

    @staticmethod
    def _deliver(
        loop: Optional[asyncio.AbstractEventLoop],
        queues: Sequence[asyncio.Queue],
        frame: Optional[Frame],
    ) -> None:
        if not queues:
            return
        if loop is None or loop.is_closed():
            return
        def push() -> None:
            for queue in queues:
                queue.put_nowait(frame)
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            push()
        else:
            loop.call_soon_threadsafe(push)

    # ------------------------------------------------------------------
    # Subscribing (loop thread)
    # ------------------------------------------------------------------
    def subscribe(self, job_id: str) -> Tuple[List[Frame], Optional[asyncio.Queue]]:
        """The replayable history plus a live queue (``None`` if the
        stream is already closed).  The queue yields frames until the
        ``None`` sentinel.  If the ring evicted frames before this
        subscriber attached, the backlog leads with a ``dropped`` frame
        announcing the gap."""
        with self._lock:
            backlog = self._backlog(job_id)
            if job_id in self._closed:
                return backlog, None
            queue: asyncio.Queue = asyncio.Queue()
            self._queues.setdefault(job_id, []).append(queue)
            return backlog, queue

    def unsubscribe(self, job_id: str, queue: asyncio.Queue) -> None:
        with self._lock:
            queues = self._queues.get(job_id)
            if queues and queue in queues:
                queues.remove(queue)

    def history(self, job_id: str) -> List[Frame]:
        with self._lock:
            return self._backlog(job_id)

    def _backlog(self, job_id: str) -> List[Frame]:
        """Replayable frames (caller holds the lock): the ring contents,
        preceded by a synthetic ``dropped`` frame when eviction has made
        the replay incomplete.  The marker has no id — it is not part of
        the job's sequence and Last-Event-ID resume must not land on it."""
        backlog: List[Frame] = list(self._history.get(job_id, ()))
        dropped = self.evicted.get(job_id, 0)
        if dropped:
            backlog.insert(
                0,
                (
                    "dropped",
                    {"job_id": job_id, "dropped": dropped, "ring": self.ring},
                    None,
                ),
            )
        return backlog


class TraceRelay:
    """A :class:`~repro.obs.trace.Tracer` subscriber that forwards
    protocol events into the broker as ``trace`` SSE frames.

    Subscribing it to a job's tracer (``tracer.subscribe(relay)``)
    makes every emitted event — already ring-buffered inside the tracer
    — hop from the simulation thread onto the event loop and out to any
    connected stream, live, while the run executes.
    """

    def __init__(
        self,
        broker: EventBroker,
        job_id: str,
        categories: Optional[Sequence[str]] = None,
    ) -> None:
        if categories is None:
            from repro.obs.trace import CATEGORIES

            categories = CATEGORIES
        self.broker = broker
        self.job_id = job_id
        self.categories = tuple(categories)
        self.forwarded = 0

    def on_event(self, event: Any) -> None:
        self.forwarded += 1
        self.broker.publish(self.job_id, "trace", event.to_dict())
