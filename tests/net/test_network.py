"""Network builder and scenario-level readouts."""

import math

import pytest

from repro.net.network import Network, NetworkConfig
from repro.protocols.base import ProtocolParams

from tests.helpers import make_static_network, protocol_factory


def test_validate_rejects_oversized_cells():
    cfg = NetworkConfig(cell_side_m=150.0)  # > sqrt(2)*250/3 = 117.85
    with pytest.raises(ValueError):
        cfg.validate()


def test_validate_rejects_zero_hosts():
    cfg = NetworkConfig(n_hosts=0)
    with pytest.raises(ValueError):
        cfg.validate()


def test_node_count_and_ids():
    cfg = NetworkConfig(n_hosts=5, n_endpoints=2, seed=3)
    net = Network(cfg, protocol_factory("grid"))
    assert len(net.nodes) == 7
    assert [n.id for n in net.nodes] == list(range(7))
    assert [n.is_endpoint for n in net.nodes] == [False] * 5 + [True] * 2


def test_endpoints_have_infinite_batteries():
    cfg = NetworkConfig(n_hosts=2, n_endpoints=1, seed=3)
    net = Network(cfg, protocol_factory("gaf"))
    assert not net.nodes[0].battery.infinite
    assert net.nodes[2].battery.infinite


def test_alive_fraction_and_aen_exclude_endpoints():
    cfg = NetworkConfig(n_hosts=2, n_endpoints=2, seed=3, initial_energy_j=500.0)
    net = Network(cfg, protocol_factory("gaf"))
    assert net.alive_fraction() == 1.0
    assert net.aen() == 0.0


def test_aen_increases_with_time():
    net = make_static_network([(50, 50), (250, 50)], protocol="grid")
    net.run(until=50.0)
    aen_50 = net.aen()
    net.sim.run(until=100.0)
    assert net.aen() > aen_50 > 0.0


def test_random_flows_pick_valid_pairs():
    cfg = NetworkConfig(n_hosts=10, seed=5)
    net = Network(cfg, protocol_factory("grid"))
    flows = net.add_random_flows(4, rate_pps=1.0)
    assert len(flows) == 4
    for f in flows:
        assert f.src.id != f.dst_id


def test_random_flows_endpoints_only():
    cfg = NetworkConfig(n_hosts=6, n_endpoints=3, seed=5)
    net = Network(cfg, protocol_factory("gaf"))
    flows = net.add_random_flows(3, rate_pps=1.0, endpoints_only=True)
    endpoint_ids = {6, 7, 8}
    for f in flows:
        assert f.src.id in endpoint_ids
        assert f.dst_id in endpoint_ids


def test_same_seed_same_behaviour():
    def run(seed):
        cfg = NetworkConfig(n_hosts=8, seed=seed, initial_energy_j=50.0,
                            width_m=400.0, height_m=400.0)
        net = Network(cfg, protocol_factory("ecgrid"))
        net.add_random_flows(2, rate_pps=2.0)
        net.run(until=40.0)
        return (
            net.packet_log.sent_count,
            net.packet_log.delivered_count,
            round(net.aen(), 9),
            net.sim.events_executed,
        )

    assert run(11) == run(11)


def test_different_seed_different_behaviour():
    def run(seed):
        cfg = NetworkConfig(n_hosts=8, seed=seed, initial_energy_j=50.0,
                            width_m=400.0, height_m=400.0)
        net = Network(cfg, protocol_factory("ecgrid"))
        net.add_random_flows(2, rate_pps=2.0)
        net.run(until=40.0)
        return net.sim.events_executed

    assert run(11) != run(12)


def test_start_is_idempotent():
    net = make_static_network([(50, 50)])
    net.start()
    net.start()
    net.run(until=1.0)


def test_close_is_idempotent_and_final():
    net = make_static_network([(50, 50), (60, 60)])
    net.run(until=5.0)
    alive = net.sampler.alive_fraction
    rows = list(alive)
    net.close()
    net.close()
    assert net.sim.pending == 0
    assert list(alive) == rows and rows
    with pytest.raises(RuntimeError):
        net.run(until=10.0)


def test_sampler_records_death_times():
    net = make_static_network([(50, 50), (60, 60)], protocol="grid",
                              energy_j=5.0)
    net.run(until=30.0)
    assert net.sampler.first_death_time == pytest.approx(5.0 / 0.863, abs=0.5)
    assert net.sampler.all_dead_time is not None
    assert net.alive_fraction() == 0.0
