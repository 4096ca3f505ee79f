"""Regression: demotion must fence off in-flight page flushes.

A gateway that demoted with a ``_flush_host_buffer`` event still on the
calendar and was promptly re-elected (conflict churn, RETIRE rounds it
wins again) used to be haunted by the stale event: firing into the
*new* paging episode, it cleared the pending-flush flag and drained the
host buffer ahead of the page it belonged to.  The premature delivery
attempt then failed against the still-sleeping host and burned a page
attempt the new episode never issued, so the successor episode hit
``_page_attempt_limit`` early and dropped packets as ``page_exhausted``
prematurely.

The fix: every demotion/death bumps ``_paging.epoch``; scheduled
flushes carry the epoch they were issued under and no-op once it has
moved on.  (Cancelling the events instead would change the dispatch
sequence and break the golden kernel traces.)
"""

from collections import deque

from repro.core.base import Role
from repro.net.packet import DataPacket

from tests.helpers import make_static_network


def settle_single_cell():
    """Two ECGRID hosts alone in cell (0,0); (net, gateway, member)."""
    net = make_static_network([(30, 30), (70, 70)])
    net.run(until=8.0)
    a, b = net.nodes
    if a.protocol.role is Role.GATEWAY:
        return net, a, b
    assert b.protocol.role is Role.GATEWAY
    return net, b, a


def test_stale_epoch_flush_is_a_noop():
    net, gw, member = settle_single_cell()
    proto = gw.protocol
    p = DataPacket(src=gw.id, dst=member.id, created_at=net.sim.now)
    net.packet_log.on_sent(p)
    proto.hosts.mark_sleeping(member.id)
    proto._paging.buffers[member.id] = deque([p])
    proto._paging.flush_pending.add(member.id)

    proto._flush_host_buffer(member.id, proto._paging.epoch - 1)

    assert member.id in proto._paging.flush_pending
    assert [q.uid for q in proto._paging.buffers[member.id]] == [p.uid]

    proto._flush_host_buffer(member.id, proto._paging.epoch)
    assert member.id not in proto._paging.flush_pending
    assert member.id not in proto._paging.buffers


def test_demotion_and_death_bump_the_paging_epoch():
    net, gw, member = settle_single_cell()
    proto = gw.protocol
    epoch = proto._paging.epoch
    proto.demote_to_active()
    assert proto._paging.epoch == epoch + 1

    other = member.protocol
    epoch = other._paging.epoch
    member.crash()
    assert other._paging.epoch == epoch + 1


def test_stale_flush_does_not_steal_the_new_episodes_page():
    """The full demote -> re-elect -> re-page sequence with the stale
    flush event still on the calendar between the new episode's page
    and its flush."""
    net, gw, member = settle_single_cell()
    proto = gw.protocol
    # Silence RAS so the scenario is driven purely by flush events (the
    # re-elected gateway would otherwise page its grid on election).
    gw.ras.page_host = lambda *a, **k: None
    gw.ras.page_grid = lambda *a, **k: None
    member.crash()

    t0 = net.sim.now
    proto.hosts.mark_active(member.id)
    proto.hosts.mark_sleeping(member.id)
    proto._buffer_and_page(member.id, None)      # episode 1: flush at t0+5ms
    assert member.id in proto._paging.flush_pending

    proto.demote_to_active()                     # epoch bump, state cleared
    assert member.id not in proto._paging.flush_pending
    proto.become_gateway()                       # re-elected immediately

    net.sim.run(until=t0 + 0.002)
    p2 = DataPacket(src=gw.id, dst=member.id, created_at=net.sim.now)
    net.packet_log.on_sent(p2)
    proto.hosts.mark_active(member.id)
    proto.hosts.mark_sleeping(member.id)
    proto._buffer_and_page(member.id, p2)        # episode 2: flush at t0+7ms
    assert proto._paging.attempts[member.id] == 1  # fresh budget, not inherited

    # Past the stale flush (t0+5ms), before the real one (t0+7ms): the
    # new episode's state must be untouched.
    net.sim.run(until=t0 + 0.006)
    assert member.id in proto._paging.flush_pending
    assert [q.uid for q in proto._paging.buffers[member.id]] == [p2.uid]

    # The episode then runs its ordinary course against the dead host:
    # budgeted retries, then a reasoned drop — never a leak.
    net.sim.run(until=t0 + 5.0)
    assert member.id not in proto._paging.buffers
    assert member.id not in proto._paging.flush_pending
    assert p2.uid in net.packet_log.dropped
    _, reason = net.packet_log.dropped[p2.uid]
    assert reason in ("host_unreachable", "page_exhausted")
