"""The simulator: clock, calendar queue, and run loop."""

from __future__ import annotations

import heapq
import math
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

from repro.des.event import Event
from repro.des.rng import RngStreams

#: A calendar entry.  The heap holds ``(time, priority, seq, event)``
#: tuples rather than bare events so every sift comparison is a C-level
#: tuple comparison instead of a Python ``Event.__lt__`` call — on busy
#: scenarios the calendar does millions of comparisons, and this is one
#: of the kernel's hottest paths.  ``seq`` is unique, so comparisons
#: never reach the event object and the pop order is exactly the
#: ``(time, priority, seq)`` total order that :class:`Event` defines.
_Entry = Tuple[float, int, int, Event]


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling into the past)."""


class Simulator:
    """A discrete-event simulator.

    The calendar is a binary heap of :data:`_Entry` records with lazy
    cancellation; every event, timers included, goes through it.  All
    model components share one simulator instance and one
    :class:`RngStreams` bundle, so a whole scenario is a deterministic
    function of its seed.

    Priorities
    ----------
    Events at identical times fire in ascending ``priority`` then
    insertion order.  The kernel defines no meaning for priority values;
    by convention the network stack uses 0 for ordinary events and
    higher values for bookkeeping that must observe same-instant effects
    (e.g. metric sampling uses priority 100 so a sample at time t sees
    every state change that happened *at* t).
    """

    #: Compaction trigger: queues above this size are scanned, and if
    #: mostly cancelled, rebuilt (lazy deletion must not hoard memory).
    COMPACT_THRESHOLD = 16384

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.rng = RngStreams(seed)
        self._queue: List[_Entry] = []
        self._seq: int = 0
        self._running = False
        self._stopped = False
        self._events_executed: int = 0
        self._compactions: int = 0
        self._next_compact_check = self.COMPACT_THRESHOLD
        self._instruments: List[Any] = []
        #: Largest *heap* size ever observed (includes cancelled entries
        #: awaiting lazy deletion).
        self.heap_high_water: int = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation ``time``; the
        returned :class:`Event` is the handle that cancels it."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self.now}"
            )
        self._seq += 1
        event = Event(time, priority, self._seq, fn, args)
        queue = self._queue
        heapq.heappush(queue, (time, priority, self._seq, event))
        n = len(queue)
        if n > self.heap_high_water:
            self.heap_high_water = n
        if n >= self._next_compact_check:
            self._maybe_compact()
        return event

    def after(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` after a relative ``delay >= 0``.

        Body is :meth:`at` flattened (minus the past-check: ``now + a
        nonnegative delay`` can never round below ``now``): the extra
        call layer and ``*args`` repack were measurable at hundreds of
        thousands of schedules per run.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        time = self.now + delay
        self._seq += 1
        event = Event(time, priority, self._seq, fn, args)
        queue = self._queue
        heapq.heappush(queue, (time, priority, self._seq, event))
        n = len(queue)
        if n > self.heap_high_water:
            self.heap_high_water = n
        if n >= self._next_compact_check:
            self._maybe_compact()
        return event

    def call_soon(
        self, fn: Callable[..., Any], *args: Any, priority: int = 0
    ) -> Event:
        """Schedule ``fn(*args)`` at the current instant (after the
        currently executing event returns).  ``priority`` orders it
        against other events booked for the same instant."""
        return self.at(self.now, fn, *args, priority=priority)

    def _maybe_compact(self) -> None:
        """Rebuild the heap without cancelled events when they dominate.

        Lazy deletion is O(1) per cancel, but a workload that cancels
        far-future events could otherwise hold them until their time
        arrives.  Amortized cost: one O(n) sweep per doubling.
        """
        queue = self._queue
        live = [entry for entry in queue if not entry[3].cancelled]
        if len(live) <= len(queue) // 2:
            # In place: a run loop that is compacting from inside an
            # event holds this very list in a local.
            queue[:] = live
            heapq.heapify(queue)
            self._compactions += 1
        self._next_compact_check = max(
            self.COMPACT_THRESHOLD, 2 * len(queue)
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Execute events in order until the calendar empties or the
        clock would pass ``until``.

        When ``until`` is given, the clock is left exactly at ``until``
        even if the calendar emptied earlier, so post-run metric reads
        see the full horizon.  While an instrument is attached, each
        callback is timed and every instrument is notified after it;
        the dispatch order is the same either way.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        queue = self._queue
        pop = heapq.heappop
        limit = math.inf if until is None else until
        instruments = self._instruments
        try:
            while queue and not self._stopped:
                entry = queue[0]
                event = entry[3]
                if event.cancelled:
                    pop(queue)
                    continue
                if entry[0] > limit:
                    break
                pop(queue)
                self.now = entry[0]
                self._events_executed += 1
                if instruments:
                    t0 = perf_counter()
                    event.fn(*event.args)
                    elapsed = perf_counter() - t0
                    qlen = len(queue)
                    for inst in instruments:
                        inst.on_dispatch(event, elapsed, qlen)
                else:
                    event.fn(*event.args)
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop a running :meth:`run` after the current event."""
        self._stopped = True

    def clear(self) -> None:
        """Empty the calendar in place and cancel every pending event.

        Each pending event also drops its callback and arguments: an
        armed timer and its event point at each other, so an event left
        holding its callback would keep a torn-down model in a reference
        cycle.  The clock and the counters are kept.
        """
        for _, _, _, event in self._queue:
            event.cancelled = True
            event.fn = None
            event.args = ()
        self._queue.clear()

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def instrument(self, observer: Any) -> None:
        """Attach a dispatch observer.

        ``observer.on_dispatch(event, elapsed_s, queue_len)`` is invoked
        after every executed event while attached.  The dispatch *order*
        is unaffected, only wall time is (timing + notification
        overhead).
        """
        if observer not in self._instruments:
            self._instruments.append(observer)

    def uninstrument(self, observer: Any) -> None:
        """Detach a previously attached observer (no-op if absent)."""
        try:
            self._instruments.remove(observer)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of events in the calendar, including cancelled entries
        awaiting lazy deletion."""
        return len(self._queue)

    @property
    def events_executed(self) -> int:
        """Total number of events dispatched since construction."""
        return self._events_executed

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the calendar is empty.

        Side effect (deliberate): cancelled events sitting at the head
        of the calendar are popped and discarded while peeking, so
        ``pending`` may shrink.  This keeps the peek O(k log n) in the
        number of cancelled heads instead of O(n), and disposing of a
        cancelled head early is always safe — it could never fire.  The
        next *live* event is never removed.
        """
        queue = self._queue
        while queue and queue[0][3].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None
