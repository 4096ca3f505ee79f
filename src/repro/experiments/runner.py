"""Build and execute experiments; collect the paper's figures of merit."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional

from repro.experiments.config import ExperimentConfig, protocol_class
from repro.metrics.timeseries import TimeSeries
from repro.net.network import Network


def _make_factory(config: ExperimentConfig):
    """The registered protocol class; GAF also takes the config's
    ``gaf`` tunables."""
    cls = protocol_class(config.protocol)
    return partial(cls, gaf=config.gaf) if config.protocol == "gaf" else cls


def build_network(config: ExperimentConfig) -> Network:
    """Instantiate (but do not run) the scenario a config describes."""
    config.validate()
    network = Network(
        config.network_config(), _make_factory(config), config.params
    )
    if config.n_flows > 0:
        network.add_random_flows(
            config.n_flows,
            config.flow_rate_pps,
            config.packet_bytes,
            endpoints_only=config.endpoints > 0,
        )
    if config.faults is not None and config.faults.events:
        network.inject_faults(config.faults)
    return network


@dataclass
class ExperimentResult:
    """Everything the paper's figures read off one run."""

    config: ExperimentConfig
    alive_fraction: TimeSeries
    aen: TimeSeries
    sent: int
    delivered: int
    delivery_rate: float
    #: Delivery over packets issued before the first host death — the
    #: paper-comparable number (§4C measures before GRID's die-off).
    delivery_rate_pre_death: float
    mean_latency_s: float
    latency_p95_s: float
    mean_hops: float
    duplicates: int
    first_death_s: Optional[float]
    all_dead_s: Optional[float]
    counters: Dict[str, int] = field(default_factory=dict)
    medium: Dict[str, int] = field(default_factory=dict)
    #: Packets the protocols discarded, total and per reason (buffer
    #: overflow, failed discovery, unreachable host, ...).
    dropped: int = 0
    drop_reasons: Dict[str, int] = field(default_factory=dict)
    #: Recovery scalars for faulted runs (see
    #: :func:`repro.metrics.recovery.recovery_summary`); empty without
    #: a fault plan.
    recovery: Dict[str, float] = field(default_factory=dict)
    #: Partition-quality scores (see
    #: :func:`repro.metrics.partition.partition_quality`); empty unless
    #: the config set ``evaluate_partition``.
    partition: Dict[str, float] = field(default_factory=dict)
    events_executed: int = 0
    #: Wall clock of the event loop alone, measured inside whichever
    #: process executed the run — never includes scenario construction,
    #: process-pool dispatch, or result-cache overhead.
    wall_time_s: float = 0.0

    # -- figure readouts -------------------------------------------------
    def alive_at(self, t: float) -> float:
        return self.alive_fraction.at(t)

    def aen_at(self, t: float) -> float:
        return self.aen.at(t)

    def network_lifetime_s(self, threshold: float = 1.0) -> Optional[float]:
        """First sampled time when the alive fraction drops below
        ``threshold`` (1.0 => first death; 0+eps => network down)."""
        return self.alive_fraction.first_time_below(threshold)

    def summary(self) -> str:
        lines = [
            f"run: {self.config.describe()}",
            (
                f"  delivery {self.delivery_rate * 100:.2f}% "
                f"({self.delivered}/{self.sent}, dup {self.duplicates}), "
                f"latency mean {self.mean_latency_s * 1000:.2f} ms "
                f"p95 {self.latency_p95_s * 1000:.2f} ms, "
                f"hops {self.mean_hops:.2f}"
            ),
            (
                f"  alive(end) {self.alive_fraction.last() * 100:.1f}%, "
                f"aen(end) {self.aen.last():.3f}, "
                f"first death {self._fmt(self.first_death_s)}, "
                f"all dead {self._fmt(self.all_dead_s)}"
            ),
            (
                f"  events {self.events_executed}, "
                f"wall {self.wall_time_s:.2f}s, "
                f"frames sent {self.medium.get('frames_sent', 0)}"
            ),
        ]
        if self.dropped:
            reasons = ", ".join(
                f"{k}={v}" for k, v in sorted(self.drop_reasons.items())
            )
            lines.append(f"  drops {self.dropped} ({reasons})")
        if self.recovery:
            lines.append(
                f"  faults {self.recovery.get('faults_injected', 0):.0f}, "
                f"delivery recovery mean "
                f"{self.recovery.get('mean_delivery_recovery_s', 0.0):.2f}s "
                f"max {self.recovery.get('max_delivery_recovery_s', 0.0):.2f}s"
            )
        return "\n".join(lines)

    @staticmethod
    def _fmt(t: Optional[float]) -> str:
        return "-" if t is None else f"{t:.0f}s"


def result_from_network(
    network: Network,
    config: ExperimentConfig,
    wall_time_s: float,
    recovery: Optional[Dict[str, float]] = None,
) -> ExperimentResult:
    """Reduce a finished network to the standard result record."""
    log = network.packet_log
    med = network.medium.stats
    return ExperimentResult(
        config=config,
        alive_fraction=network.sampler.alive_fraction,
        aen=network.sampler.aen,
        sent=log.sent_count,
        delivered=log.delivered_count,
        delivery_rate=log.delivery_rate(),
        delivery_rate_pre_death=log.delivery_rate_until(
            network.sampler.first_death_time
            if network.sampler.first_death_time is not None
            else config.sim_time_s
        ),
        mean_latency_s=log.mean_latency(),
        latency_p95_s=log.latency_percentile(0.95),
        mean_hops=log.mean_hops(),
        duplicates=log.duplicates,
        first_death_s=network.sampler.first_death_time,
        all_dead_s=network.sampler.all_dead_time,
        counters=network.counters.snapshot(),
        medium={
            "frames_sent": med.frames_sent,
            "frames_delivered": med.frames_delivered,
            "frames_corrupted": med.frames_corrupted,
            "frames_missed_asleep": med.frames_missed_asleep,
            "frames_fault_dropped": med.frames_fault_dropped,
            "bytes_sent": med.bytes_sent,
        },
        dropped=log.dropped_count,
        drop_reasons=log.drop_reasons(),
        recovery=recovery or {},
        events_executed=network.sim.events_executed,
        wall_time_s=wall_time_s,
    )


def run_experiment(
    config: ExperimentConfig,
    instruments=(),
    tracer=None,
) -> ExperimentResult:
    """Execute one full scenario and reduce it to a result record.

    ``instruments`` are attached to the event loop for the run (see
    :meth:`Network.run`); profiling a run changes its wall time but
    never its dispatch order or metrics.

    ``tracer`` (a :class:`repro.obs.trace.Tracer`) is attached to the
    network before the run; protocol/PHY/MAC events stream into it
    without perturbing the schedule.  A config that sets
    ``evaluate_partition`` subscribes a
    :class:`~repro.metrics.partition.PartitionRecorder` to it (or to a
    private tracer), which enables its ``gateway`` and ``fault`` streams.
    """
    network = build_network(config)
    recorder = None
    if config.evaluate_partition:
        from repro.metrics.partition import PartitionRecorder

        recorder = PartitionRecorder()
        if tracer is None:
            from repro.obs import Tracer

            # Routes events to the recorder, which keeps them all.
            tracer = Tracer(categories=(), ring=0)
        tracer.subscribe(recorder)
    try:
        if tracer is not None:
            network.attach_tracer(tracer)
        checker = None
        if network.fault_injector is not None:
            # Invariant clean-sample times feed the recovery metrics; the
            # checker only reads state, never perturbs the run.
            from repro.experiments.validate import InvariantChecker

            checker = InvariantChecker(
                network, interval_s=config.sample_interval_s
            )
        t0 = time.perf_counter()
        network.run(until=config.sim_time_s, instruments=instruments)
        wall = time.perf_counter() - t0

        recovery: Dict[str, float] = {}
        if network.fault_injector is not None:
            from repro.metrics.recovery import recovery_summary

            recovery = recovery_summary(
                network.fault_injector.plan,
                network.packet_log,
                config.sim_time_s,
                checker.report if checker is not None else None,
            )
        result = result_from_network(network, config, wall, recovery)
        if recorder is not None:
            result.partition = recorder.report(config.sim_time_s).to_dict()
        return result
    finally:
        if recorder is not None:
            tracer.unsubscribe(recorder)
        # After the reduce: the result keeps only plain values and the
        # sampler's series, and closing frees the run by reference count.
        network.close()
