"""repro — reproduction of "Energy-Conserving Grid Routing Protocol in
Mobile Ad Hoc Networks" (Chao, Sheu, Hu — ICPP 2003).

The package is a full MANET simulation stack built for this paper:

- :mod:`repro.des` — discrete-event kernel;
- :mod:`repro.geo` / :mod:`repro.mobility` — grid geometry and analytic
  random-waypoint mobility;
- :mod:`repro.energy` / :mod:`repro.phy` / :mod:`repro.mac` — batteries,
  radios, the shared medium, RAS paging, CSMA/CA;
- :mod:`repro.core` — **ECGRID**, the paper's protocol;
- :mod:`repro.protocols` — the GRID and GAF baselines (+ flooding);
- :mod:`repro.experiments` — the harness regenerating Figures 4–8
  (import it through the :mod:`repro.api` facade);
- :mod:`repro.obs` — structured tracing, counters, invariant auditors;
- :mod:`repro.api` — the supported import surface of the experiment
  layer (``run`` / ``sweep`` / ``figure`` / ``load_result``);
- :mod:`repro.serve` — the asyncio job server (``ecgrid serve``).

Quick start::

    from repro import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(protocol="ecgrid",
                                             n_hosts=60,
                                             sim_time_s=400.0))
    print(result.summary())
"""

import importlib
from typing import Any

from repro._lazy import lazy_exports

#: Exported name -> the module that defines it.  Each resolves on first
#: use (PEP 562), so importing one subpackage does not load the rest.
_EXPORTS = {
    "Simulator": "repro.des",
    "GridMap": "repro.geo",
    "Vec2": "repro.geo",
    "max_grid_side": "repro.geo",
    "Battery": "repro.energy",
    "EnergyLevel": "repro.energy",
    "PowerProfile": "repro.energy",
    "PAPER_PROFILE": "repro.energy",
    "RadioMode": "repro.energy",
    "RandomWaypoint": "repro.mobility",
    "StaticPosition": "repro.mobility",
    "Network": "repro.net",
    "NetworkConfig": "repro.net",
    "Node": "repro.net",
    "DataPacket": "repro.net",
    "ProtocolParams": "repro.protocols",
    "EcGridProtocol": "repro.core",
    "GridProtocol": "repro.protocols.grid",
    "GafProtocol": "repro.protocols.gaf",
    "GafParams": "repro.protocols.gaf",
    "AodvProtocol": "repro.protocols.aodv",
    "AodvParams": "repro.protocols.aodv",
    "SpanProtocol": "repro.protocols.span",
    "SpanParams": "repro.protocols.span",
    "DsdvProtocol": "repro.protocols.dsdv",
    "DsdvParams": "repro.protocols.dsdv",
    "FloodingProtocol": "repro.protocols.flooding",
    "FaultPlan": "repro.faults",
    "NodeCrash": "repro.faults",
    "NodeRecover": "repro.faults",
    "PageLoss": "repro.faults",
    "MediumLossWindow": "repro.faults",
    "Partition": "repro.faults",
    "BatteryDrain": "repro.faults",
    "standard_fault_plan": "repro.faults",
    # The experiment layer is consumed through its facade -- the same
    # surface the CLI and the job server use (see docs/sweeps.md).
    "ExperimentConfig": "repro.api",
    "ExperimentResult": "repro.api",
    "FigureData": "repro.api",
    "ResultCache": "repro.api",
    "SweepRun": "repro.api",
    "SweepRunner": "repro.api",
    "SweepSpec": "repro.api",
    "figure": "repro.api",
    "load_result": "repro.api",
    "run_experiment": "repro.api",
    "CounterRegistry": "repro.obs",
    "Tracer": "repro.obs",
    "audit_report": "repro.obs",
    "load_jsonl": "repro.obs",
    "standard_auditors": "repro.obs",
}

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "api", "__version__"]


#: Subpackages, which ``repro.<name>`` also reaches without an import.
_SUBPACKAGES = frozenset({
    "api", "core", "des", "energy", "experiments", "faults", "geo", "mac",
    "metrics", "mobility", "net", "obs", "phy", "protocols", "serve",
    "traffic",
})


_export, __dir__ = lazy_exports(__name__, _EXPORTS)


def __getattr__(name: str) -> Any:
    if name in _SUBPACKAGES:
        return importlib.import_module(f"{__name__}.{name}")
    return _export(name)
