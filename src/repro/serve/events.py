"""Server-sent events: wire framing plus each job's event stream.

A job's lifecycle is observable as an SSE stream
(``GET /v1/jobs/<id>/events``) of four event types:

- ``state`` — every state transition (``queued`` → ``running`` → ...);
- ``progress`` — per-point sweep progress (done / total / cached);
- ``trace`` — protocol trace events, when the job was submitted with
  ``trace=true`` (the ring-buffered tracer streams feed these);
- ``end`` — the terminal :class:`~repro.serve.protocol.JobView`, after
  which the stream closes.

Every :class:`~repro.serve.jobs.Job` owns one :class:`JobStream`, which
mirrors the tracer's ring-buffer design: a bounded history (late
subscribers replay it, oldest frames evicted first) plus live
``asyncio.Queue`` fan-out for connected subscribers.  Publishing is
thread-safe — simulation work happens on executor threads, so frames
hop onto the subscribers' event loop via ``loop.call_soon_threadsafe``;
the history stays consistent under the stream's lock even when nobody
has subscribed (direct-drive unit tests).
"""

from __future__ import annotations

import asyncio
import json
import threading
from collections import deque
from typing import Any, List, Optional, Sequence, Tuple

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


class JobStream:
    """One job's event stream: a bounded replay ring plus live fan-out.

    ``ring`` bounds the replay history; frames it evicted are counted in
    :attr:`evicted` (the stream itself is unbounded for connected
    subscribers — only late-join replay is ring-limited).  A replay that
    lost frames to eviction is prefixed with a synthetic ``dropped``
    frame carrying the evicted count, so late subscribers can tell a
    truncated history from a complete one.
    """

    def __init__(self, job_id: str, ring: int = 4096) -> None:
        self.job_id = job_id
        self.ring = ring
        self.evicted = 0
        self._lock = threading.Lock()
        self._history: deque = deque(maxlen=ring)
        self._seq = 0
        self._closed = False
        self._queues: List[asyncio.Queue] = []
        #: The loop the subscribers run on, recorded by :meth:`subscribe`.
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    # Publishing (any thread)
    # ------------------------------------------------------------------
    def publish(self, event: str, data: Any) -> None:
        """Record one frame and fan it out to live subscribers.  Safe
        from any thread."""
        with self._lock:
            if self._closed:
                return
            self._seq += 1
            frame = (event, data, self._seq)
            if len(self._history) == self.ring:
                self.evicted += 1
            self._history.append(frame)
            self._deliver(frame)

    def close(self) -> None:
        """Mark the stream finished: subscribers receive the ``None``
        sentinel and late subscribers replay history then end."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._deliver(None)
            self._queues = []

    def _deliver(self, frame: Optional[Frame]) -> None:
        """Hand ``frame`` to every live queue on the subscribers' loop
        (caller holds the lock, so queues see frames in id order)."""
        if not self._queues or self._loop.is_closed():
            return
        queues = tuple(self._queues)

        def push() -> None:
            for queue in queues:
                queue.put_nowait(frame)

        self._loop.call_soon_threadsafe(push)

    # ------------------------------------------------------------------
    # Subscribing (loop thread)
    # ------------------------------------------------------------------
    def subscribe(self) -> Tuple[List[Frame], Optional[asyncio.Queue]]:
        """The replayable history plus a live queue (``None`` if the
        stream is already closed).  The queue yields frames until the
        ``None`` sentinel.  Call it on the loop that reads the queue."""
        loop = asyncio.get_running_loop()
        with self._lock:
            backlog = self._backlog()
            if self._closed:
                return backlog, None
            self._loop = loop
            queue: asyncio.Queue = asyncio.Queue()
            self._queues.append(queue)
            return backlog, queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        with self._lock:
            if queue in self._queues:
                self._queues.remove(queue)

    def history(self) -> List[Frame]:
        with self._lock:
            return self._backlog()

    def _backlog(self) -> List[Frame]:
        """Replayable frames (caller holds the lock): the ring contents,
        led by an id-less ``dropped`` frame when eviction has made the
        replay incomplete (the marker is not part of the id sequence)."""
        backlog: List[Frame] = list(self._history)
        if self.evicted:
            gap = {"job_id": self.job_id, "dropped": self.evicted, "ring": self.ring}
            backlog.insert(0, ("dropped", gap, None))
        return backlog


class TraceRelay:
    """A :class:`~repro.obs.trace.Tracer` subscriber that forwards
    protocol events of ``categories`` into a job's stream as ``trace``
    SSE frames.

    Subscribing it to a job's tracer (``tracer.subscribe(relay)``)
    makes every emitted event — already ring-buffered inside the tracer
    — hop from the simulation thread onto the event loop and out to any
    connected stream, live, while the run executes.
    """

    def __init__(self, stream: JobStream, categories: Sequence[str]) -> None:
        self.stream = stream
        self.categories = tuple(categories)

    def on_event(self, event: Any) -> None:
        self.stream.publish("trace", event.to_dict())
