"""Battery event scheduling: depletion and band-crossing callbacks.

A :class:`BatteryMonitor` watches one battery and raises its state
transitions (depletion, band crossings) as simulator events.

Design: radios switch draw thousands of times per simulated second
(every overheard frame), so the monitor must not touch the calendar on
every :meth:`set_draw`.  Instead it keeps a single pending *check*
event booked at a **conservative** time — the earliest instant the next
threshold could possibly be crossed, assuming the maximum draw the
hardware can sustain (``max_draw_w``).  A check that fires before the
actual crossing simply re-books itself; the interval shrinks
geometrically (with a small floor), so one battery's whole lifetime
costs O(log) events and **zero cancellations** — no dead events ever
accumulate in the calendar.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.des.core import Simulator
from repro.energy.battery import Battery
from repro.energy.profile import (
    EnergyLevel,
    LOWER_THRESHOLD,
    UPPER_THRESHOLD,
)

LevelCallback = Callable[[EnergyLevel, EnergyLevel], None]
DepletedCallback = Callable[[], None]

#: Minimum spacing between conservative checks (bounds the event count
#: near a crossing and the detection lag after it).
_CHECK_FLOOR_S = 0.005


class BatteryMonitor:
    """Raises one battery's threshold crossings as simulator events."""

    def __init__(
        self,
        sim: Simulator,
        battery: Battery,
        on_depleted: Optional[DepletedCallback] = None,
        on_level_change: Optional[LevelCallback] = None,
        max_draw_w: float = 1.5,
    ) -> None:
        self.sim = sim
        self.battery = battery
        self.on_depleted = on_depleted
        self.on_level_change = on_level_change
        self.max_draw_w = max_draw_w
        self._last_level = battery.level(sim.now)
        self._fired_depleted = False
        self._check_pending = False

    # ------------------------------------------------------------------
    def set_draw(self, watts: float) -> None:
        """Account the elapsed interval, switch the draw, and make sure
        a check event is booked if anything can still change.

        The only draw switch: every radio mode flip lands here through
        :meth:`Radio._update <repro.phy.radio.Radio._update>`.
        """
        if watts < 0:
            raise ValueError("draw cannot be negative")
        battery = self.battery
        battery.settle(self.sim.now)
        battery._draw_w = watts
        if battery.depleted:
            self._fire_depleted()
            return
        if not self._check_pending:
            self._book_check()

    def poll(self) -> None:
        """Re-evaluate *now*, after an out-of-band battery change (an
        injected drain): fires depletion or a band crossing immediately
        instead of waiting for the next conservative check, then makes
        sure a check stays booked.  Never creates a second check chain.
        """
        if self._fired_depleted:
            return
        battery = self.battery
        battery.settle(self.sim.now)
        if battery.depleted:
            self._fire_depleted()
            return
        level = battery.level(self.sim.now)
        if level != self._last_level:
            old, self._last_level = self._last_level, level
            if self.on_level_change is not None:
                self.on_level_change(old, level)
            if self._fired_depleted:  # callback may have killed the node
                return
        if not self._check_pending:
            self._book_check()

    def reactivate(self) -> None:
        """Re-arm after an injected recovery refilled the battery
        outside the normal monotone-discharge lifecycle."""
        self._fired_depleted = False
        self._last_level = self.battery.level(self.sim.now)
        if not self._check_pending and not self.battery.depleted:
            self._book_check()

    # ------------------------------------------------------------------
    def _next_threshold_j(self, now: float) -> float:
        """Energy (joules) above the next threshold below current Rbrc."""
        if self.battery.infinite:
            return math.inf
        remaining = self.battery.remaining_at(now)
        rbrc = remaining / self.battery.capacity_j
        if rbrc > UPPER_THRESHOLD:
            return remaining - UPPER_THRESHOLD * self.battery.capacity_j
        if rbrc >= LOWER_THRESHOLD:
            return remaining - LOWER_THRESHOLD * self.battery.capacity_j
        return remaining  # next event below LOWER is depletion

    def _book_check(self) -> None:
        if self.battery.infinite or self._fired_depleted:
            return
        now = self.sim.now
        margin = self._next_threshold_j(now)
        if math.isinf(margin):
            return
        # Earliest the threshold can be reached, at worst-case draw.
        delay = max(margin / self.max_draw_w, _CHECK_FLOOR_S)
        self._check_pending = True
        self.sim.after(delay, self._check)

    def _check(self) -> None:
        self._check_pending = False
        if self._fired_depleted:
            return
        now = self.sim.now
        self.battery.settle(now)
        if self.battery.remaining_at(now) <= 0.0 or self.battery.depleted:
            self._fire_depleted()
            return
        level = self.battery.level(now)
        if level != self._last_level:
            old, self._last_level = self._last_level, level
            if self.on_level_change is not None:
                self.on_level_change(old, level)
            if self._fired_depleted:  # callback may have killed the node
                return
        if self.battery.draw_w > 0.0 or not math.isinf(
            self.battery.time_until_empty(now)
        ):
            self._book_check()

    def _fire_depleted(self) -> None:
        if self._fired_depleted:
            return
        self._fired_depleted = True
        if self.on_depleted is not None:
            self.on_depleted()

    def cancel(self) -> None:
        """Stop raising events (node torn down).  The pending check, if
        any, becomes a no-op via the depleted flag."""
        self._fired_depleted = True
