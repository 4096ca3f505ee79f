"""GridRoutingMixin internals: search regions, RERR chains, buffers,
duplicate caches, demotion cleanup."""

from dataclasses import replace

import pytest

from repro.core.base import Role
from repro.core.messages import Rerr, Rreq
from repro.core.routing import GridRoutingMixin
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_network
from repro.geo.region import Rect, whole_map_region
from repro.net.packet import DataPacket
from repro.protocols.base import ProtocolParams

from tests.helpers import make_static_network


def line_net(n=5, protocol="ecgrid", params=None):
    positions = [(50 + 100 * i, 50) for i in range(n)]
    net = make_static_network(positions, protocol=protocol, params=params)
    net.run(until=8.0)
    return net


def send(net, src, dst):
    p = DataPacket(src=src, dst=dst, created_at=net.sim.now)
    net.packet_log.on_sent(p)
    net.nodes_by_id[src].send_data(p)
    return p


# ----------------------------------------------------------------------
# Search regions
# ----------------------------------------------------------------------
def test_search_region_global_without_location():
    net = line_net()
    proto = net.nodes[0].protocol
    assert 99 not in proto.location_cache
    region = proto._search_region(99, retries=0)
    assert region == whole_map_region(net.grid)


def test_search_region_bbox_with_location():
    params = ProtocolParams(search_policy="bbox")
    net = line_net(params=params)
    proto = net.nodes[0].protocol
    proto.location_cache[4] = (4, 0)
    region = proto._search_region(4, retries=0)
    assert region == Rect(0, 0, 4, 0)


def test_search_region_margin_expands():
    net = line_net()  # default policy bbox_margin, margin 1
    proto = net.nodes[0].protocol
    proto.location_cache[4] = (4, 0)
    region = proto._search_region(4, retries=0)
    assert region == Rect(0, 0, 5, 1)  # clipped at y=0 and map edges


def test_search_region_escalates_to_global_on_retry():
    net = line_net()
    proto = net.nodes[0].protocol
    proto.location_cache[4] = (4, 0)
    assert proto._search_region(4, retries=1) == whole_map_region(net.grid)


def test_search_policy_global_always_floods():
    params = ProtocolParams(search_policy="global")
    net = line_net(params=params)
    proto = net.nodes[0].protocol
    proto.location_cache[4] = (4, 0)
    assert proto._search_region(4, retries=0) == whole_map_region(net.grid)


# ----------------------------------------------------------------------
# RREQ handling
# ----------------------------------------------------------------------
def test_rreq_outside_region_is_ignored():
    net = line_net()
    proto = net.nodes[2].protocol  # gateway of cell (2,0)
    before = net.counters.get("rreq_forwarded")
    msg = Rreq(src=99, s_seq=1, dst=88, rreq_id=1,
               region=Rect(5, 5, 9, 9),   # excludes (2,0)
               from_cell=(1, 0), origin_cell=(1, 0))
    proto._on_rreq(msg)
    assert net.counters.get("rreq_forwarded") == before


def test_duplicate_rreq_dropped():
    net = line_net()
    proto = net.nodes[2].protocol
    msg = Rreq(src=99, s_seq=1, dst=88, rreq_id=7,
               region=whole_map_region(net.grid),
               from_cell=(1, 0), origin_cell=(1, 0))
    before = net.counters.get("rreq_forwarded")
    proto._on_rreq(msg)
    first = net.counters.get("rreq_forwarded")
    proto._on_rreq(msg)
    assert net.counters.get("rreq_forwarded") == first
    assert first == before + 1


def test_rreq_installs_reverse_route():
    net = line_net()
    proto = net.nodes[2].protocol
    msg = Rreq(src=99, s_seq=5, dst=88, rreq_id=3,
               region=whole_map_region(net.grid),
               from_cell=(1, 0), origin_cell=(0, 0))
    proto._on_rreq(msg)
    entry = proto.routing.lookup(99, net.sim.now)
    assert entry is not None
    assert entry.next_cell == (1, 0)
    assert proto.location_cache[99] == (0, 0)


def test_seen_rreq_cache_is_bounded():
    from repro.core.routing import _SEEN_RREQ_LIMIT
    net = line_net(n=2)
    proto = net.nodes[0].protocol
    before = list(proto._seen_rreq)
    keys = [(12345, i) for i in range(_SEEN_RREQ_LIMIT + 100)]
    for key in keys:
        proto._remember_rreq(key)
    # The newest keys stay, oldest first; the oldest go.
    assert list(proto._seen_rreq) == (before + keys)[-_SEEN_RREQ_LIMIT:]


# ----------------------------------------------------------------------
# RERR propagation
# ----------------------------------------------------------------------
def test_rerr_invalidates_route_hop_by_hop():
    net = line_net()
    # Warm a route 0 -> 4.
    p = send(net, 0, 4)
    net.sim.run(until=net.sim.now + 3.0)
    assert p.uid in net.packet_log.delivered_at
    proto0 = net.nodes[0].protocol
    assert proto0.routing.lookup(4, net.sim.now) is not None
    # Inject an RERR as if the route broke downstream at cell (2,0).
    proto1 = net.nodes[1].protocol
    proto1._on_rerr(Rerr(src=0, dst=4, broken_cell=(2, 0)))
    assert proto1.routing.lookup(4, net.sim.now) is None
    net.sim.run(until=net.sim.now + 1.0)
    # Propagated to the source's gateway (node 0 itself is source + gw).
    assert proto0.routing.lookup(4, net.sim.now) is None


def test_rerr_stops_at_the_grid_cell_count_in_a_reverse_pointer_loop():
    """Two gateways whose routes toward the source point at each other
    used to bounce one RERR between them until the entries expired."""
    net = line_net()
    gw1, gw2 = net.nodes[1].protocol, net.nodes[2].protocol
    gw1.routing.update(0, gw2.my_cell, 0, net.sim.now, 100.0)
    gw2.routing.update(0, gw1.my_cell, 0, net.sim.now, 100.0)
    before = net.counters["rerr_sent"]
    gw1._on_rerr(Rerr(src=0, dst=4, broken_cell=(3, 0)))
    net.sim.run(until=net.sim.now + 3.0)
    cells = net.grid.cols * net.grid.rows
    assert 0 < net.counters["rerr_sent"] - before <= cells + 1
    assert net.counters["rerr_lost"] == 1


# ----------------------------------------------------------------------
# RREP loop guard
# ----------------------------------------------------------------------
def test_rrep_never_travels_more_hops_than_the_grid_has_cells(monkeypatch):
    """An RREP follows reverse pointers, which can form a cycle between
    gateways; on this GAF scenario one used to bounce past 600 hops on
    a 25-cell grid.  No loop-free path visits more cells than exist."""
    config = replace(
        ExperimentConfig(protocol="gaf", seed=3).scaled(0.2), sim_time_s=90.0
    )
    received = []
    on_rrep = GridRoutingMixin._on_rrep

    def record(self, rep):
        received.append(rep.hops)
        on_rrep(self, rep)

    monkeypatch.setattr(GridRoutingMixin, "_on_rrep", record)
    net = build_network(config)
    cells = net.grid.cols * net.grid.rows
    net.run(until=config.sim_time_s)
    net.close()
    assert received
    assert max(received) <= cells


# ----------------------------------------------------------------------
# Demotion cleanup
# ----------------------------------------------------------------------
def test_demotion_requeues_buffered_work():
    net = line_net(n=2)
    gw = net.nodes[0].protocol
    assert gw.is_gateway
    # Park a packet inside a pending discovery, then demote.
    pkt = DataPacket(src=0, dst=77, created_at=net.sim.now)
    gw._start_discovery(77, pkt)
    assert 77 in gw.pending
    gw.demote_to_active()
    assert not gw.pending
    assert pkt in gw.pending_local


def test_death_clears_routing_state():
    net = line_net(n=2)
    gw = net.nodes[0].protocol
    pkt = DataPacket(src=0, dst=77, created_at=net.sim.now)
    gw._start_discovery(77, pkt)
    net.nodes[0]._on_depleted()
    assert not gw.pending
    assert not gw.pending_local
    assert not gw._paging.buffers


# ----------------------------------------------------------------------
# Gateway-of lookups
# ----------------------------------------------------------------------
def test_gateway_of_own_cell():
    net = line_net(n=2)
    gw = net.nodes[0].protocol
    assert gw._gateway_of(gw.my_cell) == 0


def test_gateway_of_expires_stale_entries():
    net = line_net(n=2)
    gw = net.nodes[0].protocol
    gw.neighbor_gateways[(5, 5)] = (99, net.sim.now - 1000.0)
    assert gw._gateway_of((5, 5)) is None
    assert (5, 5) not in gw.neighbor_gateways
