"""Analytic battery: integrates a piecewise-constant power draw."""

from __future__ import annotations

import math

from repro.energy.profile import EnergyLevel, level_of


class Battery:
    """Energy store with closed-form accounting.

    The draw is piecewise constant between switches (made by
    :meth:`BatteryMonitor.set_draw <repro.energy.accounting
    .BatteryMonitor.set_draw>`, which settles first); remaining energy
    at any time is computed analytically, so no periodic "tick" events
    are needed.  ``capacity_j = math.inf`` models the paper's Model-1
    infinite-energy endpoints: such a battery never depletes and always
    reports full.
    """

    __slots__ = (
        "capacity_j", "infinite", "depleted",
        "_remaining", "_draw_w", "_last_t",
    )

    def __init__(self, capacity_j: float, initial_j: float | None = None) -> None:
        if capacity_j <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_j = capacity_j
        #: Plain attributes, not properties: the draw switches on every
        #: radio mode flip (hundreds of thousands per simulation) and
        #: descriptor dispatch was a visible slice of its cost.
        self.infinite = math.isinf(capacity_j)
        self._remaining = capacity_j if initial_j is None else initial_j
        if self._remaining < 0 or self._remaining > capacity_j:
            raise ValueError("initial charge outside [0, capacity]")
        self._draw_w = 0.0
        self._last_t = 0.0
        self.depleted = self._remaining == 0.0

    # ------------------------------------------------------------------
    @property
    def draw_w(self) -> float:
        """Current draw in watts."""
        return self._draw_w

    def settle(self, now: float) -> None:
        """Charge the interval since the last settle at the current
        draw against the store (the one place energy is spent on the
        mode timeline); updates the ``depleted`` flag."""
        if now < self._last_t:
            raise ValueError(f"time went backwards: {now} < {self._last_t}")
        if self.infinite:
            self._last_t = now
            return
        spent = self._draw_w * (now - self._last_t)
        self._remaining -= spent
        if self._remaining <= 1e-12:
            self._remaining = 0.0
            self.depleted = True
        self._last_t = now

    def exhaust(self, now: float) -> None:
        """Settle, then zero the store instantly (a crash fault: the
        battery is simply gone).  No-op for infinite batteries."""
        if self.infinite:
            return
        self.settle(now)
        self._remaining = 0.0
        self.depleted = True

    def drain(self, joules: float, now: float) -> None:
        """Remove ``joules`` instantly (injected fault or an auxiliary
        load outside the radio's mode timeline).  The caller is
        responsible for surfacing a resulting depletion — see
        :meth:`BatteryMonitor.poll <repro.energy.accounting
        .BatteryMonitor.poll>`."""
        if joules < 0:
            raise ValueError("cannot drain a negative amount")
        if self.infinite:
            return
        self.settle(now)
        self._remaining -= joules
        if self._remaining <= 1e-12:
            self._remaining = 0.0
            self.depleted = True

    def recharge(self, joules: float, now: float) -> None:
        """Refill ``joules`` (capped at capacity) and clear depletion —
        the revival path of injected node recoveries."""
        if joules < 0:
            raise ValueError("cannot recharge a negative amount")
        if self.infinite:
            return
        self.settle(now)
        self._remaining = min(self.capacity_j, self._remaining + joules)
        self.depleted = self._remaining == 0.0

    # ------------------------------------------------------------------
    def remaining_at(self, now: float) -> float:
        """Joules remaining at ``now`` (extrapolating the current draw)."""
        if self.infinite:
            return math.inf
        if self.depleted:
            return 0.0
        rem = self._remaining - self._draw_w * (now - self._last_t)
        return max(rem, 0.0)

    def consumed_at(self, now: float) -> float:
        """Joules consumed since construction (0 for infinite batteries)."""
        if self.infinite:
            return 0.0
        return self.capacity_j - self.remaining_at(now)

    def rbrc(self, now: float) -> float:
        """Ratio of battery remaining capacity (paper eq. 1)."""
        if self.infinite:
            return 1.0
        return self.remaining_at(now) / self.capacity_j

    def level(self, now: float) -> EnergyLevel:
        """Current battery band."""
        return level_of(self.rbrc(now))

    # ------------------------------------------------------------------
    # Predictions used to schedule events
    # ------------------------------------------------------------------
    def time_until_empty(self, now: float) -> float:
        """Seconds until depletion at the current draw (inf if never)."""
        if self.infinite:
            return math.inf
        if self.depleted:
            return 0.0
        if self._draw_w == 0.0:
            return math.inf
        return self.remaining_at(now) / self._draw_w

    def time_until_rbrc(self, target: float, now: float) -> float:
        """Seconds until Rbrc falls to ``target`` at the current draw
        (inf if never, 0 if already at or below)."""
        if self.infinite or self._draw_w == 0.0:
            return math.inf if self.rbrc(now) > target else 0.0
        delta = self.remaining_at(now) - target * self.capacity_j
        if delta <= 0:
            return 0.0
        return delta / self._draw_w
