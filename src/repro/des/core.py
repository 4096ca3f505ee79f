"""The simulator: clock, calendar queue, timer wheel, and run loop."""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.des.event import Event, EventHandle
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
    cancellation, fed by an optional *timer wheel* for the periodic /
    cancellable timer class (HELLO beacons, watch timeouts, battery
    checks, metric sampling).  All model components share one simulator
    instance and one :class:`RngStreams` bundle, so a whole scenario is
    a deterministic function of its seed.

    Priorities
    ----------
    Events at identical times fire in ascending ``priority`` then
    insertion order.  The kernel defines no meaning for priority values;
    by convention the network stack uses 0 for ordinary events and
    higher values for bookkeeping that must observe same-instant effects
    (e.g. metric sampling uses priority 100 so a sample at time t sees
    every state change that happened *at* t).

    The timer wheel
    ---------------
    ``at(..., wheel=True)`` marks an event as belonging to the timer
    class: instead of an immediate O(log n) heap push it is appended to
    a bucketed slot (``slot = floor(time / WHEEL_SLOT_S)``) in O(1).
    Slots are drained into the heap lazily — always *before* the run
    loop could pop an entry ordered after anything still in the slot —
    so the pop sequence remains exactly the ``(time, priority, seq)``
    total order: ``seq`` is allocated at schedule time regardless of
    path, and an entry's key never changes, only the moment it enters
    the heap does.  Dispatch is therefore provably identical to the
    all-heap kernel (the golden traces in ``tests/data`` enforce it).

    The wheel wins twice on timer-heavy workloads: armed timers cost
    O(1) instead of O(log n), and *cancelled* timers (the dominant case:
    every received gateway HELLO restarts the watcher) are dropped
    wholesale at drain time without ever being heapified.

    Instrumentation
    ---------------
    :meth:`instrument` attaches a dispatch observer (profiler, trace
    recorder).  The run loop is duplicated — a bare fast path and an
    instrumented path — so measurement costs nothing when disabled and
    the observed dispatch order is identical either way.
    """

    #: Compaction trigger: queues above this size are scanned, and if
    #: mostly cancelled, rebuilt (lazy deletion must not hoard memory).
    COMPACT_THRESHOLD = 16384

    #: Width of one wheel slot in simulated seconds.  Protocol timers
    #: run on multi-second periods, so one-second slots keep the heap
    #: roughly one slot of timers deep while slot appends stay O(1).
    WHEEL_SLOT_S = 1.0

    #: Wheel compaction trigger, mirroring :data:`COMPACT_THRESHOLD`:
    #: a wheel holding this many entries is swept, and if mostly
    #: cancelled, rebuilt (cancel-heavy far-future timers must not
    #: hoard memory while waiting for their slot to drain).
    WHEEL_COMPACT_THRESHOLD = 16384

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
        #: awaiting lazy deletion; excludes undrained wheel entries).
        self.heap_high_water: int = 0
        # -- timer wheel ------------------------------------------------
        #: slot index -> list of entries booked for [idx*W, (idx+1)*W).
        self._wheel_slots: Dict[int, List[_Entry]] = {}
        #: Min-heap of slot indices present in ``_wheel_slots``.
        self._wheel_index: List[int] = []
        self._wheel_size: int = 0
        self._wheel_compactions: int = 0
        self._next_wheel_compact = self.WHEEL_COMPACT_THRESHOLD
        #: Times below this are already drained; a wheel-flagged event
        #: earlier than it must go straight to the heap.  Monotone.
        self._drained_until: float = 0.0
        #: Largest wheel population ever observed.
        self.wheel_high_water: int = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        wheel: bool = False,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulation ``time``.

        ``wheel=True`` declares the event a member of the timer class
        (periodic or frequently re-armed): it is parked in a wheel slot
        in O(1) and only enters the heap when its slot drains.  Firing
        order is identical either way; the flag is purely a performance
        hint and is safe on any event.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self.now}"
            )
        self._seq += 1
        event = Event(time, priority, self._seq, fn, args)
        if wheel and time >= self._drained_until and time != math.inf:
            idx = int(time // self.WHEEL_SLOT_S)
            slot = self._wheel_slots.get(idx)
            if slot is None:
                self._wheel_slots[idx] = [(time, priority, self._seq, event)]
                heapq.heappush(self._wheel_index, idx)
            else:
                slot.append((time, priority, self._seq, event))
            self._wheel_size += 1
            if self._wheel_size > self.wheel_high_water:
                self.wheel_high_water = self._wheel_size
            if self._wheel_size >= self._next_wheel_compact:
                self._compact_wheel()
            return EventHandle(event)
        queue = self._queue
        heapq.heappush(queue, (time, priority, self._seq, event))
        n = len(queue)
        if n > self.heap_high_water:
            self.heap_high_water = n
        if n >= self._next_compact_check:
            self._maybe_compact()
        return EventHandle(event)

    def after(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        wheel: bool = False,
    ) -> EventHandle:
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
        if wheel and time >= self._drained_until and time != math.inf:
            idx = int(time // self.WHEEL_SLOT_S)
            slot = self._wheel_slots.get(idx)
            if slot is None:
                self._wheel_slots[idx] = [(time, priority, self._seq, event)]
                heapq.heappush(self._wheel_index, idx)
            else:
                slot.append((time, priority, self._seq, event))
            self._wheel_size += 1
            if self._wheel_size > self.wheel_high_water:
                self.wheel_high_water = self._wheel_size
            if self._wheel_size >= self._next_wheel_compact:
                self._compact_wheel()
            return EventHandle(event)
        queue = self._queue
        heapq.heappush(queue, (time, priority, self._seq, event))
        n = len(queue)
        if n > self.heap_high_water:
            self.heap_high_water = n
        if n >= self._next_compact_check:
            self._maybe_compact()
        return EventHandle(event)

    def call_soon(
        self, fn: Callable[..., Any], *args: Any, priority: int = 0
    ) -> EventHandle:
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

    def _compact_wheel(self) -> None:
        """Drop cancelled wheel entries when they dominate the wheel.

        Mirrors :meth:`_maybe_compact` for slots: one O(wheel) sweep per
        doubling, so cancel-heavy timers (watch restarts, re-booked
        battery checks) cannot hoard memory until their slot drains.
        """
        slots = self._wheel_slots
        live_slots: Dict[int, List[_Entry]] = {}
        live = 0
        for idx, entries in slots.items():
            keep = [entry for entry in entries if not entry[3].cancelled]
            if keep:
                live_slots[idx] = keep
                live += len(keep)
        if live <= self._wheel_size // 2:
            self._wheel_slots = live_slots
            # In place, like the heap: the run loop holds the index.
            self._wheel_index[:] = sorted(live_slots)
            self._wheel_size = live
            self._wheel_compactions += 1
        self._next_wheel_compact = max(
            self.WHEEL_COMPACT_THRESHOLD, 2 * self._wheel_size
        )

    # ------------------------------------------------------------------
    # Wheel draining
    # ------------------------------------------------------------------
    def _drain_wheel(self, bound: float) -> None:
        """Move every wheel slot that could hold an entry ordered at or
        before ``bound`` into the heap.

        Postcondition: either the wheel is empty, or every remaining
        slot starts strictly after both ``bound`` and the current heap
        top — so the heap top is the globally next event and popping it
        preserves the total order.  Cancelled entries are discarded
        here without ever touching the heap.
        """
        queue = self._queue
        index = self._wheel_index
        slots = self._wheel_slots
        width = self.WHEEL_SLOT_S
        push = heapq.heappush
        pop_index = heapq.heappop
        while index and index[0] * width <= bound:
            idx = pop_index(index)
            entries = slots.pop(idx)
            self._drained_until = (idx + 1) * width
            self._wheel_size -= len(entries)
            for entry in entries:
                if not entry[3].cancelled:
                    push(queue, entry)
            if queue:
                top = queue[0][0]
                if top < bound:
                    bound = top
        n = len(queue)
        if n > self.heap_high_water:
            self.heap_high_water = n
        if n >= self._next_compact_check:
            self._maybe_compact()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Execute events in order until the calendar empties or the
        clock would pass ``until``.

        When ``until`` is given, the clock is left exactly at ``until``
        even if the calendar emptied earlier, so post-run metric reads
        see the full horizon.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        try:
            if self._instruments:
                self._run_instrumented(until)
            else:
                self._run_fast(until)
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self._running = False

    def _run_fast(self, until: Optional[float]) -> None:
        queue = self._queue
        pop = heapq.heappop
        index = self._wheel_index
        width = self.WHEEL_SLOT_S
        limit = math.inf if until is None else until
        while not self._stopped:
            if index:
                top = queue[0][0] if queue else limit
                if top > limit:
                    top = limit
                if index[0] * width <= top:
                    self._drain_wheel(top)
            if not queue:
                break
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
            event.fn(*event.args)

    def _run_instrumented(self, until: Optional[float]) -> None:
        """Identical dispatch order to :meth:`_run_fast`, plus per-event
        notification of every attached instrument."""
        from time import perf_counter

        queue = self._queue
        pop = heapq.heappop
        index = self._wheel_index
        width = self.WHEEL_SLOT_S
        limit = math.inf if until is None else until
        instruments = self._instruments
        while not self._stopped:
            if index:
                top = queue[0][0] if queue else limit
                if top > limit:
                    top = limit
                if index[0] * width <= top:
                    self._drain_wheel(top)
            if not queue:
                break
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
            t0 = perf_counter()
            event.fn(*event.args)
            elapsed = perf_counter() - t0
            qlen = len(queue)
            for inst in instruments:
                inst.on_dispatch(event, elapsed, qlen)

    def step(self) -> bool:
        """Execute exactly one pending event.  Returns False if none."""
        queue = self._queue
        while True:
            if self._wheel_index:
                top = queue[0][0] if queue else math.inf
                if self._wheel_index[0] * self.WHEEL_SLOT_S <= top:
                    self._drain_wheel(top)
            if not queue:
                return False
            entry = heapq.heappop(queue)
            event = entry[3]
            if event.cancelled:
                continue
            self.now = entry[0]
            self._events_executed += 1
            event.fn(*event.args)
            return True

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
        pending = list(self._queue)
        for entries in self._wheel_slots.values():
            pending += entries
        for _, _, _, event in pending:
            event.cancelled = True
            event.fn = None
            event.args = ()
        self._queue.clear()
        self._wheel_slots.clear()
        self._wheel_index.clear()
        self._wheel_size = 0

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def instrument(self, observer: Any) -> None:
        """Attach a dispatch observer.

        ``observer.on_dispatch(event, elapsed_s, queue_len)`` is invoked
        after every executed event while attached.  Attaching switches
        :meth:`run` onto the instrumented loop; the dispatch *order* is
        unaffected, only wall time is (timing + notification overhead).
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
        """Number of events in the calendar — heap plus undrained wheel
        slots, including cancelled entries awaiting lazy deletion."""
        return len(self._queue) + self._wheel_size

    @property
    def events_executed(self) -> int:
        """Total number of events dispatched since construction."""
        return self._events_executed

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the calendar is empty.

        Side effects (deliberate): cancelled events sitting at the head
        of the calendar are popped and discarded while peeking, and any
        wheel slot that could precede the heap top is drained, so
        ``pending`` may shrink.  This keeps the peek O(k log n) in the
        number of cancelled heads instead of O(n), and disposing of a
        cancelled head early is always safe — it could never fire.  The
        next *live* event is never removed.
        """
        queue = self._queue
        while True:
            while queue and queue[0][3].cancelled:
                heapq.heappop(queue)
            if self._wheel_index:
                top = queue[0][0] if queue else math.inf
                if self._wheel_index[0] * self.WHEEL_SLOT_S <= top:
                    self._drain_wheel(top)
                    continue
            return queue[0][0] if queue else None
