"""Restartable one-shot and periodic timers on top of the calendar."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.des.core import Simulator
from repro.des.event import Event


class Timer:
    """A restartable one-shot timer.

    Protocol state machines re-arm the same logical timer constantly
    (HELLO timeouts, dwell timers, route-request timeouts); this wrapper
    owns the pending handle so callers never leak stale events.  A
    restart cancels the old arming lazily; the calendar's compaction
    sweeps cancelled armings once they dominate it.
    """

    __slots__ = ("sim", "fn", "_handle")

    def __init__(self, sim: Simulator, fn: Callable[[], Any]) -> None:
        self.sim = sim
        self.fn = fn
        self._handle: Optional[Event] = None

    @property
    def armed(self) -> bool:
        return self._handle is not None and self._handle.active

    @property
    def expiry(self) -> Optional[float]:
        """Absolute expiry time if armed, else None."""
        return self._handle.time if self.armed else None

    def start(self, delay: float) -> None:
        """(Re-)arm the timer ``delay`` seconds from now, cancelling any
        previous arming."""
        self.cancel()
        self._handle = self.sim.after(delay, self._fire)

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self.fn()


class PeriodicTimer:
    """A timer that re-fires every ``period`` seconds until stopped.

    An optional per-firing ``jitter(rng) -> float`` offset decorrelates
    beacons across nodes (the classic fix for HELLO synchronization).
    """

    __slots__ = ("sim", "fn", "period", "jitter", "_handle", "_running")

    def __init__(
        self,
        sim: Simulator,
        fn: Callable[[], Any],
        period: float,
        jitter: Optional[Callable[[], float]] = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.sim = sim
        self.fn = fn
        self.period = period
        self.jitter = jitter
        self._handle: Optional[Event] = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Start firing.  First firing after ``initial_delay`` (default:
        one period, plus jitter if configured)."""
        self.stop()
        self._running = True
        delay = self.period if initial_delay is None else initial_delay
        if self.jitter is not None:
            delay += self.jitter()
        self._handle = self.sim.after(max(0.0, delay), self._fire)

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        if not self._running:
            return
        delay = self.period
        if self.jitter is not None:
            delay += self.jitter()
        self._handle = self.sim.after(max(0.0, delay), self._fire)
        self.fn()
