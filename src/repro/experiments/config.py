"""Experiment configuration: one dataclass fully determines a run.

``ExperimentConfig()`` defaults reproduce the paper's §4 setup exactly:
1000 x 1000 m, 100-m grid, 2 Mbps / 250 m radios, 100 hosts at 500 J,
random waypoint, 10 CBR flows x 1 pkt/s x 512 B (10 pkt/s aggregate
load), 2000 s horizon.  :meth:`ExperimentConfig.scaled` shrinks a
scenario while preserving host density, per-host load and lifetime
*shape* so tests and benchmarks finish quickly.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Literal, Mapping, Optional

from repro.faults.plan import FaultPlan
from repro.protocols.base import ProtocolParams
from repro.protocols.gaf import GafParams
from repro.records import check, decode

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import NetworkConfig

#: Every registered protocol: name -> (module, class).  A class is its
#: own factory, ``cls(node, params, counters)``; its module loads on
#: first use (:func:`protocol_class`).
PROTOCOL_CLASSES = {
    "ecgrid": ("repro.core.protocol", "EcGridProtocol"),
    "grid": ("repro.protocols.grid", "GridProtocol"),
    "gaf": ("repro.protocols.gaf", "GafProtocol"),
    "aodv": ("repro.protocols.aodv", "AodvProtocol"),
    "span": ("repro.protocols.span", "SpanProtocol"),
    "dsdv": ("repro.protocols.dsdv", "DsdvProtocol"),
    "flooding": ("repro.protocols.flooding", "FloodingProtocol"),
}

#: Registered protocol names.
PROTOCOLS = tuple(PROTOCOL_CLASSES)


def protocol_class(name: str) -> type:
    """The class registered as protocol ``name``."""
    module, cls = PROTOCOL_CLASSES[name]
    return getattr(importlib.import_module(module), cls)

#: Version salt for :meth:`ExperimentConfig.cache_key`.  Bump whenever a
#: config field changes meaning (or the simulation semantics behind one
#: do), so previously cached results stop matching.
CONFIG_SCHEMA = 1

_CACHE_VERSION: Optional[str] = None


def cache_version() -> str:
    """Code-version fingerprint folded into every cache key.

    ``CONFIG_SCHEMA`` only invalidates caches when someone remembers to
    bump it; results computed by an older (possibly buggy) build of the
    simulator would otherwise keep satisfying lookups forever.  This
    combines the package version with a digest of the package sources,
    so *any* code change starts a fresh cache namespace.  Computed once
    per process (it walks every ``.py`` file under :mod:`repro`).
    """
    global _CACHE_VERSION
    if _CACHE_VERSION is None:
        import repro

        digest = hashlib.sha256()
        root = Path(repro.__file__).resolve().parent
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CACHE_VERSION = f"{repro.__version__}+{digest.hexdigest()[:16]}"
    return _CACHE_VERSION


@dataclass
class ExperimentConfig:
    """Everything that defines one simulation run (seed included)."""

    protocol: str = "ecgrid"
    # -- scenario ------------------------------------------------------
    width_m: float = 1000.0
    height_m: float = 1000.0
    cell_side_m: float = 100.0
    n_hosts: int = 100
    #: GAF Model-1 endpoints; None = protocol default (10 for GAF, 0
    #: otherwise, matching §4's two host models).
    n_endpoints: Optional[int] = None
    initial_energy_j: float = 500.0
    # -- mobility ------------------------------------------------------
    min_speed_mps: float = 0.0
    max_speed_mps: float = 1.0
    pause_time_s: float = 0.0
    # -- traffic -------------------------------------------------------
    n_flows: int = 10
    flow_rate_pps: float = 1.0
    packet_bytes: int = 512
    # -- channel ---------------------------------------------------------
    #: "unit_disk" or "gray_zone" (lossy fringe; robustness studies).
    loss_model: Literal["unit_disk", "gray_zone"] = "unit_disk"
    # -- run -----------------------------------------------------------
    sim_time_s: float = 2000.0
    seed: int = 1
    sample_interval_s: float = 10.0
    # -- fault injection -------------------------------------------------
    #: Declarative adversity injected into the run; None = no faults.
    #: Part of the config, so it participates in :meth:`cache_key` and
    #: can serve as a sweep axis.
    faults: Optional[FaultPlan] = None
    # -- observability ---------------------------------------------------
    #: Compute partition-quality scores (:mod:`repro.metrics.partition`)
    #: for this run: the runner traces the ``gateway`` stream and
    #: reduces it into ``ExperimentResult.partition``.  Off by default —
    #: the flag changes only what is *measured*, never the simulated
    #: schedule, but it is part of the config (and its cache key) so
    #: scored and unscored result records never alias.
    evaluate_partition: bool = False
    # -- protocol tunables ----------------------------------------------
    params: ProtocolParams = field(default_factory=ProtocolParams)
    gaf: GafParams = field(default_factory=GafParams)

    def validate(self) -> None:
        # Every field has its annotated type, nested tunables and fault
        # events included, and every float is finite: JSON accepts
        # Infinity and NaN, and an infinite horizon or rate, or a zero
        # sample interval, gives a run that never ends.
        check(self)
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; choose from {PROTOCOLS}"
            )
        if self.n_flows < 0 or self.sim_time_s <= 0:
            raise ValueError("need n_flows >= 0 and sim_time_s > 0")
        if self.flow_rate_pps <= 0:
            raise ValueError("need flow_rate_pps > 0")
        if self.packet_bytes < 1:
            raise ValueError(
                f"packet_bytes: must be >= 1, got {self.packet_bytes}"
            )
        from repro.core.election import ELECTION_POLICIES

        if self.params.election_policy not in ELECTION_POLICIES:
            raise ValueError(
                f"unknown election policy {self.params.election_policy!r}; "
                f"choose from {sorted(ELECTION_POLICIES)}"
            )
        # The scenario's range checks are the network's own list.
        self.network_config().validate()
        # Flows run between two distinct hosts, drawn from the Model-1
        # endpoints when there are any (GAF), else from every host.
        if self.n_flows > 0:
            field = "n_endpoints" if self.endpoints > 0 else "n_hosts"
            candidates = self.endpoints or self.n_hosts
            if candidates < 2:
                raise ValueError(
                    f"{field}: flows need at least two hosts to run "
                    f"between, got {candidates}"
                )

    def network_config(self) -> "NetworkConfig":
        """The scenario this config describes, as
        :class:`~repro.net.network.Network` takes it."""
        from repro.net.network import NetworkConfig
        from repro.phy.medium import MediumConfig

        return NetworkConfig(
            width_m=self.width_m,
            height_m=self.height_m,
            cell_side_m=self.cell_side_m,
            n_hosts=self.n_hosts,
            n_endpoints=self.endpoints,
            initial_energy_j=self.initial_energy_j,
            min_speed_mps=self.min_speed_mps,
            max_speed_mps=self.max_speed_mps,
            pause_time_s=self.pause_time_s,
            seed=self.seed,
            sample_interval_s=self.sample_interval_s,
            medium=MediumConfig(loss_model=self.loss_model),
        )

    @property
    def endpoints(self) -> int:
        if self.n_endpoints is not None:
            return self.n_endpoints
        return 10 if self.protocol == "gaf" else 0

    @property
    def aggregate_load_pps(self) -> float:
        """The paper quotes "network traffic load" as flows x rate."""
        return self.n_flows * self.flow_rate_pps

    def scaled(self, factor: float) -> "ExperimentConfig":
        """A smaller scenario with the same qualitative behaviour.

        Host count, area, flow count, energy and horizon all scale by
        ``factor`` (area by ``sqrt`` per axis), preserving host density
        (hosts per grid cell), per-host traffic load, and the *relative*
        position of lifetime knees within the horizon.
        """
        if factor <= 0 or factor > 1:
            raise ValueError("scale factor must be in (0, 1]")
        if factor == 1.0:
            return replace(self)
        side = math.sqrt(factor)
        return replace(
            self,
            width_m=self.width_m * side,
            height_m=self.height_m * side,
            n_hosts=max(8, round(self.n_hosts * factor)),
            n_endpoints=(
                None
                if self.n_endpoints is None
                else max(2, round(self.n_endpoints * factor))
            ),
            n_flows=max(2, round(self.n_flows * factor)),
            initial_energy_j=self.initial_energy_j * factor,
            sim_time_s=self.sim_time_s * factor,
        )

    # -- serialization / identity ----------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (nested param dataclasses become dicts)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`, type-checked field by field
        (:func:`repro.records.decode`)."""
        return decode(cls, data)

    def cache_key(self) -> str:
        """Stable content hash of the fully-resolved config.

        Two configs share a key iff every field (nested tunables and
        seed included) is equal, so a key identifies one deterministic
        simulation outcome.  The key salts in :data:`CONFIG_SCHEMA`
        (manual invalidation when a field changes meaning) and
        :func:`cache_version` (automatic invalidation whenever the
        simulator's code changes), so a stale cache from an older build
        can never satisfy a lookup from a newer one.
        """
        payload = json.dumps(
            {
                "schema": CONFIG_SCHEMA,
                "version": cache_version(),
                "config": self.to_dict(),
            },
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]

    def describe(self) -> str:
        return (
            f"{self.protocol} n={self.n_hosts} "
            f"area={self.width_m:.0f}x{self.height_m:.0f} "
            f"v<= {self.max_speed_mps} m/s pause={self.pause_time_s:.0f}s "
            f"load={self.aggregate_load_pps:.0f} pkt/s "
            f"E0={self.initial_energy_j:.0f}J T={self.sim_time_s:.0f}s "
            f"seed={self.seed}"
        )
