"""Channel sniffer."""

from repro.metrics.sniffer import Sniffer
from repro.net.packet import DataPacket

from tests.helpers import make_static_network


def test_sniffer_sees_hellos_and_data():
    net = make_static_network([(50, 50), (150, 50)])
    sniffer = Sniffer(net.medium)
    net.run(until=8.0)
    kinds = sniffer.kind_counts()
    assert kinds.get("Hello", 0) >= 2

    p = DataPacket(src=0, dst=1, created_at=net.sim.now)
    net.packet_log.on_sent(p)
    net.nodes[0].send_data(p)
    net.sim.run(until=net.sim.now + 2.0)
    kinds = sniffer.kind_counts()
    assert kinds.get("DataEnvelope", 0) >= 1
    assert kinds.get("ack", 0) >= 1  # unicast data was acknowledged


def test_sniffer_time_window_and_kind_filters():
    net = make_static_network([(50, 50), (150, 50)])
    sniffer = Sniffer(net.medium)
    net.run(until=6.0)
    early = sniffer.between(0.0, 3.0)
    assert all(0.0 <= f.time <= 3.0 for f in early)
    hellos = sniffer.of_kind("Hello")
    assert all(f.kind == "Hello" for f in hellos)
    assert sniffer.bytes_by_kind()["Hello"] > 0


def test_sniffer_dump_renders():
    net = make_static_network([(50, 50)])
    sniffer = Sniffer(net.medium)
    net.run(until=5.0)
    text = sniffer.dump()
    assert "Hello" in text
    assert "->" in text


def test_sniffer_detach_stops_capture():
    net = make_static_network([(50, 50), (150, 50)])
    sniffer = Sniffer(net.medium)
    net.run(until=4.0)
    seen = len(sniffer.frames)
    sniffer.detach()
    net.sim.run(until=8.0)
    assert len(sniffer.frames) == seen


def test_sniffer_is_transparent():
    """Capturing must not change the simulation, unicast included: the
    tap forwards each frame's address to the medium."""
    def run(sniff):
        net = make_static_network([(50, 50), (150, 50), (250, 50)])
        if sniff:
            Sniffer(net.medium)
        net.run(until=8.0)
        p = DataPacket(src=0, dst=2, created_at=net.sim.now)
        net.packet_log.on_sent(p)
        net.nodes[0].send_data(p)
        net.sim.run(until=10.0)
        now = net.sim.now
        return (
            net.sim.events_executed,
            net.packet_log.delivered_count,
            net.medium.stats.frames_delivered,
            [n.battery.consumed_at(now) for n in net.nodes],
        )

    plain = run(False)
    assert plain[1] == 1  # the unicast exchange happened
    assert run(True) == plain
