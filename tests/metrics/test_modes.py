"""Radio-mode time accounting."""

import pytest

from repro.energy.profile import PAPER_PROFILE, RadioMode
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_network
from repro.metrics.modes import ModeTracker

from tests.helpers import make_static_network


def test_grid_hosts_idle_forever():
    net = make_static_network([(50, 50), (250, 50)], protocol="grid")
    tracker = ModeTracker(net.sim, net.nodes)
    net.run(until=100.0)
    shares = tracker.mode_shares()
    assert shares.get("idle", 0.0) > 0.95


def test_ecgrid_sleepers_displace_idle():
    net = make_static_network([(30, 30), (50, 50), (70, 70)])
    tracker = ModeTracker(net.sim, net.nodes)
    net.run(until=100.0)
    shares = tracker.mode_shares()
    # Two of three hosts sleep almost the whole run.
    assert shares.get("sleep", 0.0) > 0.5
    assert shares.get("idle", 0.0) < 0.45


def test_times_sum_to_elapsed():
    net = make_static_network([(30, 30), (50, 50)])
    tracker = ModeTracker(net.sim, net.nodes)
    net.run(until=60.0)
    for node in net.nodes:
        total = sum(tracker.node_times(node.id).values())
        assert total == pytest.approx(60.0, abs=1e-6)


def test_energy_shares_weighted_by_power():
    net = make_static_network([(30, 30), (50, 50), (70, 70)])
    tracker = ModeTracker(net.sim, net.nodes)
    net.run(until=100.0)
    t_shares = tracker.mode_shares()
    e_shares = tracker.energy_shares(PAPER_PROFILE)
    # Idle at 863 mW outweighs sleep at 163 mW energy-wise.
    assert e_shares["idle"] / t_shares["idle"] > e_shares["sleep"] / t_shares["sleep"]
    assert sum(e_shares.values()) == pytest.approx(1.0)


def test_dead_nodes_accumulate_off_time():
    net = make_static_network([(50, 50), (250, 50)], protocol="grid",
                              energy_j=10.0)
    tracker = ModeTracker(net.sim, net.nodes)
    net.run(until=60.0)
    times = tracker.node_times(0)
    assert times.get(RadioMode.OFF, 0.0) > 40.0


@pytest.mark.parametrize("protocol", ["ecgrid", "grid"])
def test_energy_is_the_integral_of_the_mode_timeline(protocol):
    # A mobile network with traffic and overhearing; every host has a
    # finite battery and outlives the horizon.  Each mode flip, the
    # medium's RX flips included, must reach the tracker and the
    # battery alike.
    net = build_network(ExperimentConfig(
        protocol=protocol, n_hosts=30, width_m=500.0, height_m=500.0,
        n_flows=3, sim_time_s=60.0, seed=2,
    ))
    tracker = ModeTracker(net.sim, net.nodes)
    net.run(until=60.0)
    assert all(node.alive for node in net.nodes)
    assert tracker.total_times().get(RadioMode.RX, 0.0) > 0.0
    now = net.sim.now
    for node in net.nodes:
        expected = sum(
            t * PAPER_PROFILE.total_power(mode)
            for mode, t in tracker.node_times(node.id).items()
        )
        assert node.battery.consumed_at(now) == pytest.approx(
            expected, rel=1e-9
        ), node.id
