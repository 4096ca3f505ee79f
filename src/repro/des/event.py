"""Event records for the DES calendar; each event is its own handle."""

from __future__ import annotations

from typing import Any, Callable


class Event:
    """A scheduled callback, and the handle its scheduler returns.

    Events are ordered by ``(time, priority, seq)``: earlier time first,
    then lower priority value, then insertion order.  The ``seq`` tiebreak
    makes the execution order a deterministic total order regardless of
    heap internals, which is what makes whole simulations reproducible
    from a seed.

    The calendar heap stores ``(time, priority, seq, event)`` tuples so
    heap sifts compare at C speed; ``__lt__`` implements the same total
    order for direct comparisons (tests, debugging) and is kept in
    lockstep with the tuple key.

    ``cancel()`` is O(1): the event is flagged and skipped when popped
    (lazy deletion).  It may be called more than once and after the
    event fired; both are harmless no-ops, which keeps protocol code
    free of defensive bookkeeping.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple = (),
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    @property
    def active(self) -> bool:
        """False once cancelled.  Firing does not clear it: an owner
        that keeps an event drops it when the event fires."""
        return not self.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} p={self.priority} #{self.seq} {name}{state}>"
