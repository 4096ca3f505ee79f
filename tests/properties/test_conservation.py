"""Packet-conservation property across all seven protocols.

Every application packet ever issued must be accounted for at the end
of a run: delivered, dropped with a reason, or still sitting in an
enumerable buffer (protocol queues or a MAC transmit queue).  The
satellite sweep of PR 5 closed the silent-discard sites (death cleanup
in AODV/DSDV/SPAN, DSDV's salvage overflow, flooding's TTL expiry, MAC
shutdown), so the property now holds exactly for the six
unicast-forwarding protocols:

    sent == delivered + dropped + in_flight     (disjoint, per uid)

Flooding sprays per-hop broadcast copies that can die unheard (a
rebroadcast nobody receives reports nothing), so only the PacketLog
inequality ``delivered + dropped <= sent`` is guaranteed there.

The scenario deliberately exercises the ugly paths: mobility churn,
traffic stopped mid-run with a long drain window, and two forced
crashes while packets are moving.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_network
from repro.net.packet import DataPacket
from repro.traffic.flowset import FlowSpec

STOP_S = 25.0
HORIZON_S = 55.0


def _flow_candidates(net):
    endpoints = [n.id for n in net.nodes if n.is_endpoint]
    return endpoints or [n.id for n in net.nodes]


def run_scenario(protocol: str, seed: int = 3):
    cfg = ExperimentConfig(
        protocol=protocol,
        n_hosts=20,
        width_m=500.0,
        height_m=500.0,
        max_speed_mps=5.0,
        n_flows=0,
        sim_time_s=HORIZON_S,
        seed=seed,
    )
    net = build_network(cfg)
    ids = _flow_candidates(net)
    half = len(ids) // 2
    specs = [
        FlowSpec(ids[i], ids[(i + half) % len(ids)], rate_pps=2.0,
                 stop_s=STOP_S)
        for i in range(4)
    ]
    net.add_flows(specs)
    # Crash a flow destination and a bystander while traffic is moving:
    # exercises host_unreachable, no_route and the death-cleanup drops.
    regular = [n for n in net.nodes if not n.is_endpoint]
    net.sim.at(10.0, regular[half].crash)
    net.sim.at(15.0, regular[-1].crash)
    net.run(until=HORIZON_S)
    return net


def in_flight_uids(net):
    """Every DataPacket uid held in an enumerable buffer right now."""
    uids = set()

    def note(pkt):
        if isinstance(pkt, DataPacket):
            uids.add(pkt.uid)

    for node in net.nodes:
        mac = node.mac
        jobs = list(mac._queue)
        if mac._current is not None:
            jobs.append(mac._current)
        for job in jobs:
            note(job.message)
            note(getattr(job.message, "packet", None))
        proto = node.protocol
        # Grid family (ecgrid/grid/gaf) and AODV/SPAN discovery queues.
        for attr in ("pending", "discoveries"):
            for d in getattr(proto, attr, {}).values():
                for pkt in d.queue:
                    note(pkt)
        for pkt in getattr(proto, "pending_local", ()):
            note(pkt)
        paging = getattr(proto, "_paging", None)
        for buf in paging.buffers.values() if paging is not None else ():
            for pkt in buf:
                note(pkt)
        for buf in getattr(proto, "_undeliverable", {}).values():  # DSDV
            for pkt in buf:
                note(pkt)
        for pkt in getattr(proto, "_deferred", ()):                # SPAN
            note(pkt)
    return uids


EXACT_PROTOCOLS = ("ecgrid", "grid", "gaf", "aodv", "span", "dsdv")


@pytest.mark.parametrize("protocol", EXACT_PROTOCOLS)
def test_every_packet_is_accounted_for(protocol):
    net = run_scenario(protocol)
    log = net.packet_log
    sent = set(log.sent)
    delivered = set(log.delivered_at)
    dropped = set(log.dropped)
    buffered = in_flight_uids(net)

    assert sent, "scenario generated no traffic"
    assert delivered.isdisjoint(dropped)
    assert delivered <= sent and dropped <= sent

    leaked = sent - delivered - dropped - buffered
    assert leaked == set(), (
        f"{protocol}: {len(leaked)} packet(s) vanished without a "
        f"delivery, a drop reason, or a buffer: {sorted(leaked)[:10]}"
    )
    # The three accounts partition the sent set exactly.
    in_flight = buffered - delivered - dropped
    assert (
        log.sent_count
        == log.delivered_count + log.dropped_count + len(in_flight)
    )


def test_flooding_keeps_the_packet_log_inequality():
    net = run_scenario("flooding")
    log = net.packet_log
    delivered = set(log.delivered_at)
    dropped = set(log.dropped)
    assert set(log.sent)
    assert delivered.isdisjoint(dropped)
    assert log.delivered_count + log.dropped_count <= log.sent_count
    # The TTL-expiry fix reports per-copy deaths: a run with this much
    # churn must show reasoned flooding drops rather than silence.
    assert "ttl_exhausted" in log.drop_reasons() or dropped <= delivered
