"""Scenario construction: build a whole MANET from one config."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.des.core import Simulator
from repro.energy.battery import Battery
from repro.energy.profile import PAPER_PROFILE, PowerProfile
from repro.geo.grid import GridMap, max_grid_side
from repro.mac.csma import MacConfig
from repro.metrics.collectors import Counters, EnergySampler, PacketLog
from repro.mobility.waypoint import RandomWaypoint
from repro.net.node import Node
from repro.net.packet import DataPacket
from repro.obs.trace import NULL_TRACER
from repro.phy.medium import Medium, MediumConfig
from repro.phy.ras import RasChannel, RasConfig
from repro.protocols.base import ProtocolParams, RoutingProtocol
from repro.traffic.cbr import CbrFlow
from repro.traffic.flowset import FlowSpec, build_flows, pick_random_pairs

ProtocolFactory = Callable[[Node, ProtocolParams, Counters], RoutingProtocol]


@dataclass
class NetworkConfig:
    """Physical scenario parameters (defaults = paper §4)."""

    width_m: float = 1000.0
    height_m: float = 1000.0
    cell_side_m: float = 100.0
    n_hosts: int = 100
    #: Infinite-energy, always-active endpoint hosts (GAF "Model 1").
    n_endpoints: int = 0
    initial_energy_j: float = 500.0
    min_speed_mps: float = 0.0
    max_speed_mps: float = 1.0
    pause_time_s: float = 0.0
    seed: int = 1
    medium: MediumConfig = field(default_factory=MediumConfig)
    mac: MacConfig = field(default_factory=MacConfig)
    ras: RasConfig = field(default_factory=RasConfig)
    profile: PowerProfile = PAPER_PROFILE
    sample_interval_s: float = 10.0

    def validate(self) -> None:
        """Range-check the scenario.  :class:`Network` runs this list,
        and so does :meth:`ExperimentConfig.validate
        <repro.experiments.config.ExperimentConfig.validate>`, so a job
        server rejects a bad scenario at submit.  Each error starts
        with the name of the field at fault."""
        for name in (
            "width_m", "height_m", "cell_side_m", "initial_energy_j",
            "max_speed_mps", "sample_interval_s",
        ):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name}: must be > 0, got {value}")
        for name in ("n_endpoints", "min_speed_mps", "pause_time_s"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name}: must be >= 0, got {value}")
        if self.n_hosts < 1:
            raise ValueError(f"n_hosts: must be >= 1, got {self.n_hosts}")
        if self.min_speed_mps > self.max_speed_mps:
            raise ValueError(
                f"min_speed_mps: {self.min_speed_mps} exceeds "
                f"max_speed_mps {self.max_speed_mps}"
            )
        bound = max_grid_side(self.medium.range_m)
        if self.cell_side_m > bound + 1e-9:
            raise ValueError(
                f"cell_side_m: {self.cell_side_m} m violates the gateway "
                f"reachability constraint sqrt(2)*r/3 = {bound:.2f} m"
            )


class Network:
    """A fully wired scenario: simulator, grid, channel, hosts, metrics.

    ``protocol_factory(node, params, counters)`` attaches the routing
    protocol to each host; endpoints (``node.is_endpoint``) may be given
    different behaviour by the factory (GAF Model 1).
    """

    def __init__(
        self,
        config: NetworkConfig,
        protocol_factory: ProtocolFactory,
        params: Optional[ProtocolParams] = None,
        mobility_factory: Optional[Callable[["Network", int], object]] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.params = params or ProtocolParams()
        #: Kept so injected node recoveries can build fresh protocol
        #: instances (see :meth:`fresh_protocol`).
        self._protocol_factory = protocol_factory
        #: Protocol instances a fresh one replaced; :meth:`close` drops
        #: their state with the rest of the run's.
        self._replaced: List[RoutingProtocol] = []
        self.sim = Simulator(seed=config.seed)
        self.grid = GridMap(config.width_m, config.height_m, config.cell_side_m)
        self.medium = Medium(self.sim, self.grid, config.medium)
        self.ras = RasChannel(self.sim, self.medium, self.grid, config.ras)
        self.counters = Counters()
        self.packet_log = PacketLog()
        self.flows: List[CbrFlow] = []

        self.nodes: List[Node] = []
        total = config.n_hosts + config.n_endpoints
        for node_id in range(total):
            is_endpoint = node_id >= config.n_hosts
            if mobility_factory is not None:
                mobility = mobility_factory(self, node_id)
            else:
                mobility = RandomWaypoint(
                    self.sim.rng.stream(f"mob-{node_id}"),
                    config.width_m,
                    config.height_m,
                    config.min_speed_mps,
                    config.max_speed_mps,
                    config.pause_time_s,
                )
            battery = Battery(
                math.inf if is_endpoint else config.initial_energy_j
            )
            node = Node(
                self.sim,
                node_id,
                mobility,
                self.grid,
                self.medium,
                self.ras,
                config.profile,
                battery,
                mac_config=config.mac,
                is_endpoint=is_endpoint,
            )
            node.protocol = protocol_factory(node, self.params, self.counters)
            node.app_sink = self._on_app_delivery
            node.death_sink = self._on_node_death
            node.drop_sink = self._on_packet_drop
            self.nodes.append(node)

        self.nodes_by_id: Dict[int, Node] = {n.id: n for n in self.nodes}
        self.sampler = EnergySampler(
            self.sim, self.nodes, config.sample_interval_s
        )
        self._started = False
        self._closed = False
        #: Set by :meth:`inject_faults`; None for fault-free runs.
        self.fault_injector = None
        #: The null tracer unless :meth:`attach_tracer` installed one.
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Install a :class:`~repro.obs.trace.Tracer` on every traced
        component (nodes, MACs, RAS channel, packet log).  With no
        tracer attached every component holds the shared
        :data:`~repro.obs.trace.NULL_TRACER` and pays only a boolean
        test per guarded emission site."""
        self.tracer = tracer
        tracer.bind(self.sim)
        self.packet_log.tracer = tracer
        self.ras.tracer = tracer
        for node in self.nodes:
            node.tracer = tracer
            node.mac.tracer = tracer

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def add_flows(self, specs: Sequence[FlowSpec]) -> List[CbrFlow]:
        flows = build_flows(self.sim, self.nodes_by_id, specs, self.packet_log)
        self.flows.extend(flows)
        return flows

    def add_random_flows(
        self,
        n_flows: int,
        rate_pps: float,
        size_bytes: int = 512,
        endpoints_only: bool = False,
    ) -> List[CbrFlow]:
        """Random (src, dst) CBR flows.

        ``endpoints_only`` restricts the draw to Model-1 endpoints (GAF);
        otherwise any host may be chosen (Model 2).
        """
        if endpoints_only:
            candidates = [n.id for n in self.nodes if n.is_endpoint]
        else:
            candidates = [n.id for n in self.nodes]
        pairs = pick_random_pairs(
            self.sim.rng.stream("flows"), candidates, n_flows
        )
        specs = [
            FlowSpec(src, dst, rate_pps, size_bytes) for src, dst in pairs
        ]
        return self.add_flows(specs)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def inject_faults(self, plan):
        """Arm a :class:`~repro.faults.plan.FaultPlan` against this
        scenario (call before :meth:`start`).  Returns the armed
        :class:`~repro.faults.inject.FaultInjector`."""
        from repro.faults.inject import FaultInjector

        injector = FaultInjector(self, plan)
        injector.arm()
        self.fault_injector = injector
        return injector

    def revive(self, node_id: int, energy_frac: float = 0.5) -> bool:
        """Reboot a crashed host with a fresh protocol instance and
        ``energy_frac`` of its battery capacity.  Returns False if the
        host is unknown or still alive."""
        node = self.nodes_by_id.get(node_id)
        if node is None or node.alive:
            return False
        return node.revive(self.fresh_protocol(node), energy_frac)

    def fresh_protocol(self, node: Node) -> RoutingProtocol:
        """A new protocol instance for ``node``, to replace the one it
        runs when it reboots.  The replaced instance is kept for
        :meth:`close`."""
        if node.protocol is not None:
            self._replaced.append(node.protocol)
        return self._protocol_factory(node, self.params, self.counters)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sampler.start()
        for node in self.nodes:
            node.start()

    def run(self, until: float, instruments: Sequence[object] = ()) -> None:
        """Run the scenario to ``until``.

        ``instruments`` (profilers, trace recorders — anything with an
        ``on_dispatch`` method, see :meth:`Simulator.instrument`) are
        attached for the duration of the event loop only; the final
        metric sample below is outside their window.  Optional
        ``on_run_begin(sim)`` / ``on_run_end(sim, wall_s)`` hooks
        bracket the loop with its wall time.
        """
        import time as _time

        if self._closed:
            raise RuntimeError("cannot run a closed network")
        self.start()
        for inst in instruments:
            self.sim.instrument(inst)
            begin = getattr(inst, "on_run_begin", None)
            if begin is not None:
                begin(self.sim)
        t0 = _time.perf_counter()
        try:
            self.sim.run(until=until)
        finally:
            wall = _time.perf_counter() - t0
            for inst in instruments:
                end = getattr(inst, "on_run_end", None)
                if end is not None:
                    end(self.sim, wall)
                self.sim.uninstrument(inst)
        self.sampler.sample()

    def close(self) -> None:
        """Tear the finished run down so reference counting frees it.

        The wiring above ties a run into reference cycles: nodes and
        their parts hold one another's bound methods, and an armed
        timer and its pending event point at each other.  CPython frees
        cycles only in a full collection.  ``close`` clears the
        calendar, unbinds the tracer (the caller may keep it) and drops
        all state of every part this network wired, protocols included,
        so a new callback, timer or closure cannot bring a cycle back.
        Call it once the result is reduced; the network is unusable
        afterwards.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self.sim.clear()
        self.tracer.bind(None)
        parts = [self.medium, self.ras, self.fault_injector, *self._replaced]
        for node in self.nodes:
            parts += (node.protocol, node.mac, node.radio, node.monitor, node)
        for part in parts:
            if part is not None:
                vars(part).clear()

    # ------------------------------------------------------------------
    # Readouts
    # ------------------------------------------------------------------
    def alive_fraction(self) -> float:
        finite = [n for n in self.nodes if not n.battery.infinite]
        if not finite:
            return 1.0
        return sum(1 for n in finite if n.alive) / len(finite)

    def aen(self) -> float:
        """Mean normalized per-host energy consumption (paper eq. 2)."""
        finite = [n for n in self.nodes if not n.battery.infinite]
        if not finite:
            return 0.0
        now = self.sim.now
        total0 = sum(n.battery.capacity_j for n in finite)
        remaining = sum(n.battery.remaining_at(now) for n in finite)
        return (total0 - remaining) / total0

    # ------------------------------------------------------------------
    def _on_app_delivery(self, node: Node, packet: DataPacket) -> None:
        self.packet_log.on_delivered(packet, self.sim.now)

    def _on_packet_drop(self, node: Node, packet: DataPacket, reason: str) -> None:
        self.packet_log.on_dropped(packet, self.sim.now, reason)

    def _on_node_death(self, node: Node) -> None:
        self.sampler.note_death(self.sim.now)
