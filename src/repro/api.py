"""The single supported import surface of the experiment layer.

Everything a caller needs to run, sweep, cache, export, or plot
experiments is re-exported (or defined) here::

    from repro.api import ExperimentConfig, run, sweep, figure

    result = run(ExperimentConfig(protocol="ecgrid"), hosts=60, time=400)
    fig = figure("fig4", speed=1.0, scale=0.2, seeds=4)

Both the CLI (:mod:`repro.cli`) and the job server (:mod:`repro.serve`)
consume *only* this module — which is the proof that it is sufficient.
The deep paths (``repro.experiments.runner``, ``...sweep``, ``...cache``,
``...figures``) keep working, but the ``repro.experiments`` package root
exports nothing; new code should not reach past this facade.

The four verbs:

- :func:`run` — one experiment, optionally answered from a
  :class:`ResultCache`;
- :func:`sweep` — a :class:`SweepSpec` grid through a
  :class:`SweepRunner` (serial, pooled, cached);
- :func:`figure` — any registered paper figure / ablation;
- :func:`load_result` — a schema-versioned result record from disk,
  JSON text, or a parsed dict.
"""

from __future__ import annotations

import importlib
import os
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.core.election import (
    ELECTION_POLICIES,
    ElectionPolicy,
    get_policy,
)
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.config import (
    CONFIG_SCHEMA,
    PROTOCOLS,
    ExperimentConfig,
    cache_version,
)
from repro.experiments.export import (
    RESULT_SCHEMA,
    figure_to_csv,
    figure_to_dict,
    figure_to_json,
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
)
from repro.experiments.runner import (
    ExperimentResult,
    build_network,
    run_experiment,
)
from repro.experiments.sweep import (
    AXIS_ALIASES,
    ProgressFn,
    SweepError,
    SweepOutcome,
    SweepPoint,
    SweepRun,
    SweepRunner,
    SweepSpec,
    resolve_config,
)
from repro.faults.plan import FaultPlan
from repro.protocols.base import ProtocolParams

#: The heavier members, each loaded on first use (PEP 562): name ->
#: (module, name there).  A run or a sweep never touches them.
_LAZY = {
    "AdaptiveRunner": ("repro.experiments.adaptive", "AdaptiveRunner"),
    "DEFAULT_GATE_SCALARS": ("repro.experiments.adaptive", "DEFAULT_GATE_SCALARS"),
    "GATE_SCALARS": ("repro.experiments.adaptive", "GATE_SCALARS"),
    "PrecisionReport": ("repro.experiments.adaptive", "PrecisionReport"),
    "ReplicationPolicy": ("repro.experiments.adaptive", "ReplicationPolicy"),
    "adaptive_sweep": ("repro.experiments.adaptive", "adaptive_sweep"),
    "FIGURES": ("repro.experiments.figures", "FIGURES"),
    "FigureData": ("repro.experiments.figures", "FigureData"),
    "figure": ("repro.experiments.figures", "figure"),
    "figure_plan": ("repro.experiments.figures", "figure_plan"),
    "format_series_table": ("repro.experiments.report", "format_series_table"),
    "format_summary_table": ("repro.experiments.report", "format_summary_table"),
    "sparkline": ("repro.experiments.report", "sparkline"),
    "render_snapshot": ("repro.experiments.snapshot", "render"),
    "InvariantChecker": ("repro.experiments.validate", "InvariantChecker"),
    "InvariantReport": ("repro.experiments.validate", "InvariantReport"),
    "PartitionReport": ("repro.metrics.partition", "PartitionReport"),
    "partition_quality": ("repro.metrics.partition", "partition_quality"),
}

__all__ = [
    # verbs
    "run",
    "sweep",
    "figure",
    "load_result",
    # configs and results
    "ExperimentConfig",
    "ExperimentResult",
    "FaultPlan",
    "ProtocolParams",
    "PROTOCOLS",
    "CONFIG_SCHEMA",
    "cache_version",
    "run_experiment",
    "build_network",
    # sweep engine
    "AXIS_ALIASES",
    "ProgressFn",
    "SweepError",
    "SweepOutcome",
    "SweepPoint",
    "SweepRun",
    "SweepRunner",
    "SweepSpec",
    "resolve_config",
    # adaptive replication
    "AdaptiveRunner",
    "PrecisionReport",
    "ReplicationPolicy",
    "adaptive_sweep",
    "GATE_SCALARS",
    "DEFAULT_GATE_SCALARS",
    # caching
    "ResultCache",
    "default_cache_dir",
    # figures
    "FIGURES",
    "FigureData",
    "figure_plan",
    # election policies and partition scoring
    "ELECTION_POLICIES",
    "ElectionPolicy",
    "get_policy",
    "PartitionReport",
    "partition_quality",
    # export (schema-versioned, shared with the HTTP API)
    "RESULT_SCHEMA",
    "figure_to_csv",
    "figure_to_dict",
    "figure_to_json",
    "result_from_dict",
    "result_from_json",
    "result_to_dict",
    "result_to_json",
    # reporting / validation
    "format_series_table",
    "format_summary_table",
    "sparkline",
    "render_snapshot",
    "InvariantChecker",
    "InvariantReport",
]


def run(
    config: Optional[ExperimentConfig] = None,
    *,
    cache: Optional[ResultCache] = None,
    tracer: Any = None,
    instruments: Any = (),
    **overrides: Any,
) -> ExperimentResult:
    """Run one experiment; keyword overrides are sweep-axis spellings.

    ``overrides`` accept everything :func:`resolve_config` does —
    config field names, friendly aliases (``hosts=60``, ``time=400``),
    dotted tunable paths (``params.hello_period_s``), and ``scale``.

    With ``cache`` given, an exact-config hit is returned without
    simulating (unless a ``tracer`` is attached, in which case the run
    always executes so the caller actually receives trace events), and
    a miss is stored after running.
    """
    if config is None:
        config = ExperimentConfig()
    if overrides:
        config = resolve_config(config, overrides)
    if cache is not None and tracer is None:
        hit = cache.get(config)
        if hit is not None:
            return hit
    result = run_experiment(config, instruments=instruments, tracer=tracer)
    if cache is not None:
        cache.put(config, result)
    return result


def sweep(
    spec: SweepSpec,
    *,
    runner: Optional[SweepRunner] = None,
    workers: int = 0,
    cache: Optional[ResultCache] = None,
    timeout_s: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
) -> SweepRun:
    """Execute a :class:`SweepSpec` grid and return its :class:`SweepRun`.

    Pass a configured ``runner`` to control pooling/caching yourself;
    otherwise one is built from ``workers``/``cache``/``timeout_s``/
    ``progress``.
    """
    if runner is None:
        runner = SweepRunner(
            workers=workers, cache=cache, timeout_s=timeout_s,
            progress=progress,
        )
    return runner.run(spec)


def load_result(
    source: "Mapping[str, Any] | str | os.PathLike[str]",
) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from a schema-versioned record.

    ``source`` may be a path to a JSON file (a cache record or an
    exported result), a JSON string, or an already-parsed dict.
    Raises :class:`ValueError` on a stale or mismatched schema.
    """
    if isinstance(source, Mapping):
        return result_from_dict(source)
    if isinstance(source, os.PathLike):
        return result_from_json(Path(source).read_text())
    text = str(source)
    if text.lstrip().startswith("{"):
        return result_from_json(text)
    return result_from_json(Path(text).read_text())


def __getattr__(name: str) -> Any:
    entry = _LAZY.get(name)
    if entry is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = entry
    value = getattr(importlib.import_module(module), attr)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
