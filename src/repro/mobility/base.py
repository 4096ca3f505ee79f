"""Trajectory segments and the mobility-model interface."""

from __future__ import annotations

import math
from typing import Iterator, List, NamedTuple, Optional, Tuple

from repro.geo.grid import GridCoord, GridMap
from repro.geo.vector import Vec2

#: Tolerance used when nudging past a cell boundary so the post-crossing
#: cell lookup lands on the far side despite floating-point rounding.
_EDGE_EPS = 1e-9


class Segment(NamedTuple):
    """One linear leg of a trajectory.

    Position for ``t in [t0, t1]`` is ``p0 + v * (t - t0)``.  A pause is
    a segment with zero velocity.  ``t1 = math.inf`` marks a final
    segment (static models).
    """

    t0: float
    t1: float
    p0: Vec2
    v: Vec2

    def position(self, t: float) -> Vec2:
        dt = t - self.t0
        return Vec2(self.p0.x + self.v.x * dt, self.p0.y + self.v.y * dt)

    @property
    def is_pause(self) -> bool:
        return self.v.x == 0.0 and self.v.y == 0.0


class MobilityModel:
    """Base class: a lazily generated, append-only list of segments.

    Subclasses implement :meth:`_generate_next` to append the segment
    following the last one.  The base class keeps every segment and
    serves point queries with a local search (queries are strongly
    monotone in simulation time, so the common case is O(1)).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._segments: List[Segment] = []
        self._start_time = start_time
        #: Index of the segment the last query landed on, and that
        #: segment flattened to ``(t0, t1, x0, y0, vx, vy)``: the one
        #: record every position read unpacks (the wireless medium
        #: inlines the read).  It starts as a leg no time falls in.
        self._active_idx: int = 0
        self._leg: Tuple[float, float, float, float, float, float] = (
            math.inf, -math.inf, 0.0, 0.0, 0.0, 0.0
        )

    # -- subclass API ---------------------------------------------------
    def _generate_next(self) -> Segment:
        """Produce the segment following the current last one."""
        raise NotImplementedError

    # -- queries --------------------------------------------------------
    def segment_at(self, t: float) -> Segment:
        """The segment covering time ``t`` (generated on demand).

        At an exact boundary ``t == seg.t1 == next.t0`` the *earlier*
        segment is returned (the leg fast path is strict on ``t0`` to
        preserve exactly that convention), unless the last query already
        landed on the later one, which only a query back in time does.
        """
        leg = self._leg
        if leg[0] < t <= leg[1]:
            return self._segments[self._active_idx]
        if t < self._start_time:
            raise ValueError(f"t={t} precedes trajectory start {self._start_time}")
        segs = self._segments
        if not segs:
            segs.append(self._generate_next())
        # Monotone search: rewind only if the caller went back in time.
        i = self._active_idx
        if i >= len(segs) or segs[i].t0 > t:
            i = 0
        while segs[i].t1 < t:
            i += 1
            if i == len(segs):
                segs.append(self._generate_next())
        seg = segs[i]
        self._active_idx = i
        self._leg = (seg.t0, seg.t1, seg.p0.x, seg.p0.y, seg.v.x, seg.v.y)
        return seg

    def iter_segments(self, t: float) -> Iterator[Segment]:
        """Yield the segment at ``t`` and every following segment."""
        self.segment_at(t)
        idx = self._active_idx
        while True:
            yield self._segments[idx]
            idx += 1
            if idx == len(self._segments):
                if math.isinf(self._segments[-1].t1):
                    return
                self._segments.append(self._generate_next())

    def position(self, t: float) -> Vec2:
        # Nearly every query lands on the leg the last one landed on.
        t0, t1, x0, y0, vx, vy = self._leg
        if not t0 < t <= t1:
            self.segment_at(t)
            t0, t1, x0, y0, vx, vy = self._leg
        dt = t - t0
        return Vec2(x0 + vx * dt, y0 + vy * dt)

    def velocity(self, t: float) -> Vec2:
        return self.segment_at(t).v


def _segment_cell_exit(seg: Segment, t: float, grid: GridMap) -> Optional[float]:
    """Earliest time ``> t`` within ``seg`` at which the trajectory
    leaves the grid cell it occupies at ``t``; None if it stays in the
    cell for the rest of the segment."""
    pos = seg.position(t)
    cell = grid.cell_of(pos)
    x0, y0, x1, y1 = grid.cell_bounds(cell)
    best = math.inf
    if seg.v.x > 0:
        best = min(best, t + (x1 - pos.x) / seg.v.x)
    elif seg.v.x < 0:
        best = min(best, t + (x0 - pos.x) / seg.v.x)
    if seg.v.y > 0:
        best = min(best, t + (y1 - pos.y) / seg.v.y)
    elif seg.v.y < 0:
        best = min(best, t + (y0 - pos.y) / seg.v.y)
    if best > seg.t1 or math.isinf(best):
        return None
    return max(best, t)


def next_cell_crossing(
    model: MobilityModel,
    t: float,
    grid: GridMap,
    horizon: float = math.inf,
) -> Optional[Tuple[float, GridCoord]]:
    """Earliest time after ``t`` at which the node's grid cell changes,
    together with the new cell; None if no change before ``horizon``.

    Solved analytically per segment.  The returned time is the exact
    boundary-crossing instant; the new cell is sampled a hair past it so
    the lookup lands on the far side.
    """
    start_cell = grid.cell_of(model.position(t))
    cur = t
    for seg in model.iter_segments(t):
        if cur >= horizon:
            return None
        probe_end = min(seg.t1, horizon)
        while cur < probe_end:
            exit_t = _segment_cell_exit(seg, cur, grid)
            if exit_t is None or exit_t > horizon:
                break
            new_cell = grid.cell_of(seg.position(exit_t + _EDGE_EPS))
            if new_cell != start_cell:
                # Return a time strictly after t and strictly past the
                # boundary: at the exact crossing instant the floor
                # convention may still map to the old cell (negative
                # travel direction), which would re-arm a zero-delay
                # event forever.
                return (max(exit_t, t) + _EDGE_EPS, new_cell)
            # Grazed a boundary without changing cell (corner touch);
            # continue past it.
            cur = exit_t + _EDGE_EPS
        cur = max(cur, seg.t1)
        if math.isinf(seg.t1):
            return None
    return None
