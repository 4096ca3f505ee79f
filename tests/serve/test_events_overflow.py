"""Ring-overflow visibility: late subscribers must see the gap."""

import asyncio

from repro.serve.events import JobStream, parse_sse, sse_frame


def fill(stream, n):
    for i in range(n):
        stream.publish("progress", {"i": i})


def subscribe(stream):
    """``subscribe()`` inside a loop, as the server calls it."""

    async def attach():
        return stream.subscribe()

    return asyncio.run(attach())


def test_late_subscriber_sees_dropped_marker():
    # Regression: a subscriber attaching after the ring overflowed got
    # a silently truncated replay — oldest frames gone, no signal.
    stream = JobStream("j", ring=4)
    fill(stream, 6)

    backlog, queue = subscribe(stream)
    assert backlog[0][0] == "dropped"
    assert backlog[0][1] == {"job_id": "j", "dropped": 2, "ring": 4}
    assert backlog[0][2] is None  # not part of the id sequence
    assert [f[1]["i"] for f in backlog[1:]] == [2, 3, 4, 5]
    stream.unsubscribe(queue)


def test_history_carries_the_same_marker():
    stream = JobStream("j", ring=4)
    fill(stream, 6)
    history = stream.history()
    assert history[0][0] == "dropped"
    assert history[0][1]["dropped"] == 2


def test_no_marker_without_overflow():
    stream = JobStream("j", ring=4)
    fill(stream, 4)  # exactly full, nothing evicted
    backlog, queue = subscribe(stream)
    assert [f[0] for f in backlog] == ["progress"] * 4
    assert all(f[0] != "dropped" for f in stream.history())
    stream.unsubscribe(queue)


def test_marker_survives_close_and_wire_framing():
    stream = JobStream("j", ring=2)
    fill(stream, 5)
    stream.close()

    backlog, queue = subscribe(stream)
    assert queue is None  # stream already ended
    assert backlog[0][0] == "dropped"
    assert backlog[0][1]["dropped"] == 3

    # the synthetic frame is wire-valid: no id line, round-trips
    wire = b"".join(sse_frame(e, d, i) for e, d, i in backlog)
    frames = parse_sse(wire.decode("utf-8"))
    assert frames[0][0] == "dropped"
    assert frames[0][2] is None
    assert frames[0][1]["dropped"] == 3
