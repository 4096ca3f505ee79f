"""The online invariant auditors, fed synthetic trace streams.

The key acceptance case: replaying the seed-era stuck-buffer signature
(a non-empty gateway paging buffer with no flush in flight — the bug
PR 3 fixed) through the trace bus makes :class:`BufferFlushAuditor`
flag it *with the exact event time and node id*, which is the whole
point of auditing online instead of diffing metrics afterwards.
"""

from repro.obs.audit import (
    BufferFlushAuditor,
    ConservationAuditor,
    GatewayUniquenessAuditor,
    SleepingTransmitAuditor,
    audit_report,
    standard_auditors,
)
from repro.obs.trace import Tracer


def traced(*auditors):
    tr = Tracer()
    for a in auditors:
        tr.subscribe(a)
    return tr


def test_stuck_buffer_is_flagged_with_time_and_node():
    auditor = BufferFlushAuditor()
    tr = traced(auditor)
    # Healthy snapshots: packets buffered with a flush pending, and an
    # empty buffer with nothing pending.
    tr.emit("page.buffer", node=7, t=10.0, dest=3, qlen=2, pending=True)
    tr.emit("page.buffer", node=7, t=11.0, dest=3, qlen=0, pending=False)
    assert auditor.clean

    # The seed-era bug's signature: the flush flag cleared while the
    # buffer still holds packets.
    tr.emit("page.buffer", node=7, t=12.5, dest=3, qlen=2, pending=False)

    assert len(auditor.violations) == 1
    v = auditor.violations[0]
    assert v.kind == "stuck_buffer"
    assert v.t == 12.5
    assert v.node == 7
    assert "dest 3" in v.detail
    rendered = str(v)
    assert "t=12.500000" in rendered and "node=7" in rendered


def test_gateway_uniqueness_tolerates_the_handoff_window():
    auditor = GatewayUniquenessAuditor(grace_s=3.0)
    tr = traced(auditor)
    tr.emit("gateway.elect", node=1, t=0.0, cell=(0, 0))
    tr.emit("gateway.elect", node=2, t=1.0, cell=(0, 0))
    tr.emit("gateway.demote", node=1, t=2.5)  # resolved within grace
    auditor.finish(t_end=100.0)
    assert auditor.clean


def test_gateway_duplicates_past_grace_are_violations():
    auditor = GatewayUniquenessAuditor(grace_s=3.0)
    tr = traced(auditor)
    tr.emit("gateway.elect", node=1, t=0.0, cell=(0, 0))
    tr.emit("gateway.elect", node=2, t=1.0, cell=(0, 0))
    tr.emit("gateway.demote", node=2, t=9.0)  # 8s of duplicate occupancy
    assert len(auditor.violations) == 1
    v = auditor.violations[0]
    assert v.kind == "duplicate_gateways"
    assert v.t == 1.0
    assert "(0, 0)" in v.detail and "[1, 2]" in v.detail


def test_gateway_duplicates_still_open_at_finish_are_flagged():
    auditor = GatewayUniquenessAuditor(grace_s=3.0)
    tr = traced(auditor)
    tr.emit("gateway.elect", node=1, t=0.0, cell=(2, 2))
    tr.emit("gateway.elect", node=2, t=1.0, cell=(2, 2))
    auditor.finish(t_end=10.0)
    assert [v.kind for v in auditor.violations] == ["duplicate_gateways"]


def test_reelection_to_a_new_cell_vacates_the_old_one():
    auditor = GatewayUniquenessAuditor(grace_s=3.0)
    tr = traced(auditor)
    tr.emit("gateway.elect", node=1, t=0.0, cell=(0, 0))
    tr.emit("gateway.elect", node=2, t=1.0, cell=(0, 0))
    # Node 1 roams into the next cell and wins there: the (0,0)
    # duplication ends at t=2.0, inside the grace window.
    tr.emit("gateway.elect", node=1, t=2.0, cell=(0, 1))
    auditor.finish(t_end=100.0)
    assert auditor.clean


def test_a_demote_must_name_the_elected_cell():
    auditor = GatewayUniquenessAuditor(grace_s=3.0)
    tr = traced(auditor)
    tr.emit("gateway.elect", node=1, t=0.0, cell=(0, 0))
    tr.emit("gateway.demote", node=1, t=5.0, cell=(0, 0))
    tr.emit("gateway.elect", node=2, t=6.0, cell=(1, 0))
    tr.emit("gateway.demote", node=2, t=9.0)  # no cell: not checked
    assert auditor.clean
    # A gateway that moved into (2, 1) and names that cell when it
    # steps down, though its tenure held (1, 1).
    tr.emit("gateway.elect", node=3, t=10.0, cell=(1, 1))
    tr.emit("gateway.demote", node=3, t=12.5, cell=(2, 1))
    assert [v.kind for v in auditor.violations] == ["demote_cell"]
    v = auditor.violations[0]
    assert (v.t, v.node) == (12.5, 3)
    assert "(2, 1)" in v.detail and "(1, 1)" in v.detail
    # The tenure still ends: node 3 no longer occupies (1, 1).
    tr.emit("gateway.elect", node=4, t=13.0, cell=(1, 1))
    auditor.finish(t_end=100.0)
    assert len(auditor.violations) == 1


def test_sleeping_transmit_auditor():
    auditor = SleepingTransmitAuditor()
    tr = traced(auditor)
    tr.emit("radio.tx", node=4, t=1.0, bytes=512, awake=True)
    assert auditor.clean
    tr.emit("radio.tx", node=4, t=2.0, bytes=512, awake=False)
    assert [v.kind for v in auditor.violations] == ["sleeping_transmit"]
    assert auditor.violations[0].node == 4


def test_conservation_auditor_accepts_a_lawful_history():
    auditor = ConservationAuditor()
    tr = traced(auditor)
    tr.emit("packet.sent", node=1, t=0.0, uid=1)
    tr.emit("packet.sent", node=1, t=0.1, uid=2)
    tr.emit("packet.dropped", node=2, t=0.5, uid=2, reason="no_route")
    # A late delivery outranks the drop (the packet-log rule).
    tr.emit("packet.delivered", node=3, t=0.6, uid=2)
    tr.emit("packet.delivered", node=3, t=0.7, uid=1)
    auditor.finish(t_end=1.0)
    assert auditor.clean


def test_conservation_auditor_catches_every_bookkeeping_crime():
    auditor = ConservationAuditor()
    tr = traced(auditor)
    tr.emit("packet.delivered", node=1, t=0.0, uid=9)   # never sent
    tr.emit("packet.delivered", node=1, t=0.1, uid=9)   # twice
    tr.emit("packet.dropped", node=1, t=0.2, uid=9)     # after delivery
    kinds = [v.kind for v in auditor.violations]
    assert "delivered_unsent" in kinds
    assert "double_delivery" in kinds
    assert "drop_after_delivery" in kinds


def test_standard_auditors_and_report():
    auditors = standard_auditors()
    names = {a.name for a in auditors}
    assert names == {
        "GatewayUniquenessAuditor",
        "BufferFlushAuditor",
        "SleepingTransmitAuditor",
        "ConservationAuditor",
    }
    tr = traced(*auditors)
    tr.emit("page.buffer", node=5, t=3.0, dest=1, qlen=1, pending=False)
    for a in auditors:
        a.finish(t_end=10.0)
    report = audit_report(auditors)
    assert report.startswith("audit: 1 violation(s)")
    assert "stuck_buffer" in report and "node=5" in report
