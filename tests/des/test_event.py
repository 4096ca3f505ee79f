"""Event record ordering and cancellation."""

from repro.des.event import Event


def make(time, priority=0, seq=0):
    return Event(time, priority, seq, lambda: None)


def test_ordering_time_then_priority_then_seq():
    assert make(1.0) < make(2.0)
    assert make(1.0, priority=0) < make(1.0, priority=1)
    assert make(1.0, 0, seq=1) < make(1.0, 0, seq=2)
    assert not (make(2.0) < make(1.0))


def test_handle_reports_time_and_active():
    ev = make(3.0)
    assert ev.time == 3.0
    assert ev.active
    ev.cancel()
    assert not ev.active
    assert ev.cancelled
    ev.cancel()  # idempotent
    assert not ev.active
