"""Shared test utilities: controlled scenario builders."""

from __future__ import annotations

from typing import Optional, Sequence

# A protocol class is its own factory.
from repro.experiments.config import protocol_class as protocol_factory
from repro.geo.vector import Vec2
from repro.mobility.static import StaticPosition
from repro.net.network import Network, NetworkConfig
from repro.protocols.base import ProtocolParams


def make_static_network(
    positions: Sequence[tuple],
    protocol: str = "ecgrid",
    width: float = 1000.0,
    height: float = 1000.0,
    cell_side: float = 100.0,
    energy_j: float = 500.0,
    seed: int = 7,
    params: Optional[ProtocolParams] = None,
    n_endpoints: int = 0,
) -> Network:
    """A network of motionless hosts at explicit positions.

    ``positions`` covers regular hosts first, then endpoints (if any);
    node ids follow list order.
    """
    n_regular = len(positions) - n_endpoints
    config = NetworkConfig(
        width_m=width,
        height_m=height,
        cell_side_m=cell_side,
        n_hosts=n_regular,
        n_endpoints=n_endpoints,
        initial_energy_j=energy_j,
        seed=seed,
    )
    pts = [Vec2(x, y) for x, y in positions]

    def mobility(_network, node_id):
        return StaticPosition(pts[node_id])

    return Network(
        config,
        protocol_factory(protocol),
        params or ProtocolParams(),
        mobility_factory=mobility,
    )


def make_mobile_network(
    models: Sequence,
    protocol: str = "ecgrid",
    width: float = 1000.0,
    height: float = 1000.0,
    cell_side: float = 100.0,
    energy_j: float = 500.0,
    seed: int = 7,
    params: Optional[ProtocolParams] = None,
    n_endpoints: int = 0,
) -> Network:
    """A network whose node i follows the given mobility model i."""
    config = NetworkConfig(
        width_m=width,
        height_m=height,
        cell_side_m=cell_side,
        n_hosts=len(models) - n_endpoints,
        n_endpoints=n_endpoints,
        initial_energy_j=energy_j,
        seed=seed,
    )
    return Network(
        config,
        protocol_factory(protocol),
        params or ProtocolParams(),
        mobility_factory=lambda _net, node_id: models[node_id],
    )


def set_battery(node, joules: float) -> None:
    """Force a node's remaining charge (test-only knob: batteries are
    constructed full, but election scenarios need unequal levels)."""
    node.battery._remaining = joules
    node.monitor._last_level = node.battery.level(node.sim.now)


def line_positions(n: int, spacing: float = 100.0, y: float = 50.0):
    """n hosts on a horizontal line, one per grid cell."""
    return [(spacing * i + spacing / 2.0, y) for i in range(n)]


def deliveries(network: Network):
    """(uid -> time) delivered map of a network's packet log."""
    return dict(network.packet_log.delivered_at)
