"""Regression: gateway paging buffers must never get stuck.

The seed code's ``_buffer_and_page`` skipped scheduling a flush when a
page had already been sent for the destination.  On the
page -> flush -> delivery-fails -> re-page path (``_in_grid_failed``),
the re-buffered packet therefore sat in its host buffer forever: no
flush was in flight and none would ever be scheduled again.  These
tests walk that exact path against a silently crashed destination and
assert the two properties the fix guarantees:

- whenever a buffer is non-empty, a flush event is in flight;
- paging retries are capped, after which the buffer is dropped with a
  per-packet reason instead of leaking.
"""

from repro.core.base import Role
from repro.net.packet import DataPacket

from tests.helpers import make_static_network


def settle_single_cell():
    """Two hosts alone in cell (0,0); returns (net, gateway, member)."""
    net = make_static_network([(30, 30), (70, 70)])
    net.run(until=8.0)
    a, b = net.nodes
    if a.protocol.role is Role.GATEWAY:
        return net, a, b
    assert b.protocol.role is Role.GATEWAY
    return net, b, a


def buffered_without_flush(proto):
    """Destinations with buffered packets but no flush in flight — the
    seed bug's signature.  Must stay empty at every event boundary."""
    return [
        dest for dest, buf in proto._paging.buffers.items()
        if buf and dest not in proto._paging.flush_pending
    ]


def test_page_flush_fail_repage_path_drops_instead_of_sticking():
    net, gw, member = settle_single_cell()
    proto = gw.protocol

    # The member dies silently: no RETIRE, the gateway's host table
    # still lists it, so delivery goes page -> flush -> fail -> re-page.
    member.crash()
    pages_before = net.counters.get("pages_sent", 0)

    packet = DataPacket(src=gw.id, dst=member.id, created_at=net.sim.now)
    net.packet_log.on_sent(packet)
    proto._deliver_in_grid(packet, member.id)

    # Walk the retry machinery in small steps; at every event boundary
    # the fix's invariant holds: buffered implies a flush is in flight.
    deadline = net.sim.now + 10.0
    while net.sim.now < deadline:
        net.sim.run(until=net.sim.now + 0.25)
        assert buffered_without_flush(proto) == []

    # The paging budget was spent (the re-page really happened) ...
    assert net.counters.get("pages_sent", 0) >= pages_before + 2
    # ... and the packet was dropped with a reason, not leaked.
    assert member.id not in proto._paging.buffers
    assert member.id not in proto._paging.attempts
    assert packet.uid in net.packet_log.dropped
    _, reason = net.packet_log.dropped[packet.uid]
    assert reason in ("host_unreachable", "page_exhausted")
    assert net.counters.get("in_grid_drops", 0) >= 1


def test_buffer_entry_does_not_outlive_its_host():
    """After the retry budget is exhausted the dead destination is gone
    from every paging structure, and a later packet goes through
    ordinary discovery instead of the poisoned buffer path."""
    net, gw, member = settle_single_cell()
    proto = gw.protocol
    member.crash()

    p1 = DataPacket(src=gw.id, dst=member.id, created_at=net.sim.now)
    net.packet_log.on_sent(p1)
    proto._deliver_in_grid(p1, member.id)
    net.sim.run(until=net.sim.now + 10.0)

    assert member.id not in proto._paging.buffers
    # The host table forgot the dead member entirely.
    assert proto.hosts.is_awake(member.id) is None

    # A second packet must not resurrect a stuck buffer either.
    p2 = DataPacket(src=gw.id, dst=member.id, created_at=net.sim.now)
    net.packet_log.on_sent(p2)
    gw.send_data(p2)
    net.sim.run(until=net.sim.now + 10.0)
    assert buffered_without_flush(proto) == []
    assert member.id not in proto._paging.buffers
    assert p2.uid not in net.packet_log.delivered_at


def test_overflowing_page_buffer_drops_oldest_with_reason():
    net, gw, member = settle_single_cell()
    proto = gw.protocol
    member.crash()
    limit = proto.params.buffer_limit

    packets = []
    for _ in range(limit + 3):
        p = DataPacket(src=gw.id, dst=member.id, created_at=net.sim.now)
        net.packet_log.on_sent(p)
        packets.append(p)
        proto._buffer_and_page(member.id, p)
    # Oldest packets spilled immediately, with per-packet accounting.
    assert len(proto._paging.buffers[member.id]) == limit
    assert net.packet_log.drop_reasons().get("buffer_overflow", 0) == 3
    assert net.packet_log.dropped[packets[0].uid][1] == "buffer_overflow"
