"""The leg record: a host's position on its current segment.

``MobilityModel._leg`` is the segment at ``_active_idx`` flattened to
``(t0, t1, x0, y0, vx, vy)``.  ``position``, ``segment_at``'s fast path
and the medium's two inlined reads all unpack it, so under any sequence
of queries (forward, rewinding, and at exact leg boundaries
``t == seg.t1 == next.t0``) it must stay the flattened segment, and
``position(t)`` must equal ``segment_at(t).position(t)`` bit for bit.
The segment a query lands on must cover ``t`` and be one of a twin
model's, generated from the same seed and only ever walked forward.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.geo.vector import Vec2
from repro.mobility.direction import RandomDirection
from repro.mobility.static import StaticPosition
from repro.mobility.trace import TraceMobility
from repro.mobility.waypoint import RandomWaypoint

AREA = 100.0
HORIZON = 200.0


def build(kind, seed):
    rng = random.Random(seed)
    if kind == "waypoint":
        return RandomWaypoint(
            rng, AREA, AREA, min_speed=1.0, max_speed=10.0,
            pause_time=rng.choice([0.0, 2.0]),
        )
    if kind == "direction":
        return RandomDirection(
            rng, AREA, AREA, min_speed=1.0, max_speed=10.0,
            pause_time=rng.choice([0.0, 2.0]),
        )
    start = rng.uniform(0.0, 5.0)
    if kind == "static":
        return StaticPosition(
            Vec2(rng.uniform(0, AREA), rng.uniform(0, AREA)), start_time=start
        )
    points, t = [], start
    for _ in range(rng.randint(1, 12)):
        points.append((t, Vec2(rng.uniform(0, AREA), rng.uniform(0, AREA))))
        t += rng.uniform(0.5, 30.0)
    return TraceMobility(points)


def flat(seg):
    return (seg.t0, seg.t1, seg.p0.x, seg.p0.y, seg.v.x, seg.v.y)


def forward_segments(kind, seed, until):
    """The twin's segments, generated in order, up to one past ``until``."""
    twin = build(kind, seed)
    out = []
    for seg in twin.iter_segments(twin._start_time):
        out.append(seg)
        if seg.t1 > until:
            break
    return out


QUERIES = st.lists(
    st.tuples(
        st.sampled_from(["position", "segment_at"]),
        st.sampled_from(["time", "boundary", "start"]),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["waypoint", "direction", "trace", "static"]),
    seed=st.integers(min_value=0, max_value=10_000),
    queries=QUERIES,
)
def test_leg_is_the_flattened_active_segment(kind, seed, queries):
    model = build(kind, seed)
    start = model._start_time
    segments = forward_segments(kind, seed, start + HORIZON)
    boundaries = [seg.t1 for seg in segments if seg.t1 <= start + HORIZON]
    for op, where, frac in queries:
        if where == "boundary" and boundaries:
            t = boundaries[int(frac * len(boundaries)) % len(boundaries)]
        elif where == "start":
            t = start
        else:
            t = start + frac * HORIZON
        if op == "position":
            pos = model.position(t)
            seg = model.segment_at(t)
        else:
            seg = model.segment_at(t)
            pos = model.position(t)
        assert repr(pos) == repr(seg.position(t))
        assert seg is model._segments[model._active_idx]
        assert model._leg == flat(seg)
        assert seg.t0 <= t <= seg.t1 and seg in segments
