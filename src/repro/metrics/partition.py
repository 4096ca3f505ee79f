"""Partition-quality evaluator: score a run's gateway partition.

A gateway election policy induces a *partition history*: which host
covered which cell, when.  This module reduces the ``gateway`` trace
stream (plus ``fault`` events, when present — a crashed gateway's
tenure ends at the crash) to the quality scores the election-faceoff
figure ranks policies by:

- **load fairness**: coefficient of variation and Gini index of total
  gateway time per serving host — a fair policy spreads the beaconing
  and forwarding drain instead of burning out central hosts;
- **handoff churn**: tenure starts per covered cell per 100 s — cheap
  elections are worthless if the gateway role thrashes (every handoff
  costs RETIRE/TablesTransfer traffic and a paging-coverage wobble);
- **coverage gaps**: the fraction of covered-cell time with *no*
  gateway (ECGRID's wakeup guarantee is broken exactly then), plus the
  gap count and mean/max gap lengths;
- **distributions**: the nearest-rank percentiles of individual tenure
  lengths and of no-gateway gap lengths, which the ``gateway-tenure``
  figure plots.

Network lifetime, the fourth axis the faceoff reports, comes from the
standard :class:`~repro.experiments.runner.ExperimentResult` fields —
it needs no trace.  :func:`~repro.experiments.runner.run_experiment`
records a run with a :class:`PartitionRecorder` when its config sets
``evaluate_partition``; the report's flat dict lands in
``ExperimentResult.partition`` and rides the result cache.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.report import (
    Cell,
    gateway_tenures,
    no_gateway_intervals,
    percentiles,
)
from repro.obs.trace import TraceEvent

#: The percentiles a report keeps of each length distribution.
PERCENTILES = (10.0, 25.0, 50.0, 75.0, 90.0)


@dataclass(frozen=True)
class PartitionReport:
    """Quality scores of one run's gateway partition history."""

    #: Individual tenure intervals and distinct hosts that ever served.
    n_tenures: int
    n_gateways: int
    #: Load fairness over per-host total gateway time.
    load_cv: float
    load_gini: float
    #: Tenure starts per covered cell per 100 s.
    churn_per_100s: float
    #: No-gateway time as a fraction of covered-cell time.
    gap_fraction: float
    gap_count: int
    mean_gap_s: float
    max_gap_s: float
    covered_cells: int
    #: ``(q, seconds)`` at each of :data:`PERCENTILES` (nearest rank)
    #: of individual tenure lengths and of no-gateway gap lengths;
    #: empty without samples.
    tenure_percentiles: Tuple[Tuple[float, float], ...] = ()
    gap_percentiles: Tuple[Tuple[float, float], ...] = ()

    def to_dict(self) -> Dict[str, float]:
        """Flat, JSON-ready floats (the result-record representation);
        each percentile is a ``tenure_p{q}_s`` / ``gap_p{q}_s`` key."""
        flat = asdict(self)
        for stat in ("tenure", "gap"):
            for q, value in flat.pop(f"{stat}_percentiles"):
                flat[f"{stat}_p{q:g}_s"] = value
        return {k: float(v) for k, v in flat.items()}


class PartitionRecorder:
    """Subscribed to a run's tracer, as the auditors are, it keeps every
    ``gateway`` and ``fault`` event whatever the tracer's categories and
    ring, so the run's scores never depend on its caller's tracer."""

    categories = ("gateway", "fault")

    def __init__(self) -> None:
        self.gateway: List[TraceEvent] = []
        self.fault: List[TraceEvent] = []

    def on_event(self, event: TraceEvent) -> None:
        getattr(self, event.category).append(event)

    def report(self, horizon: float) -> PartitionReport:
        return partition_quality(self.gateway + self.fault, horizon)


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Population stddev over mean; 0 for empty or zero-mean samples."""
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return math.sqrt(var) / mean


def gini(values: Sequence[float]) -> float:
    """Gini index in [0, 1): 0 = perfectly even shares."""
    n = len(values)
    if n == 0:
        return 0.0
    total = sum(values)
    if total == 0:
        return 0.0
    ordered = sorted(values)
    weighted = sum((2 * (i + 1) - n - 1) * v for i, v in enumerate(ordered))
    return weighted / (n * total)


def partition_quality(
    events: Iterable[TraceEvent],
    horizon: float,
    cells: Optional[Iterable[Cell]] = None,
) -> PartitionReport:
    """Score a run's partition from its trace events.

    ``events`` may mix categories (``gateway`` and ``fault`` streams
    are merged by time here), ``horizon`` is the simulated duration,
    and ``cells`` optionally widens the coverage baseline beyond the
    cells that ever had a gateway (see
    :func:`repro.obs.report.no_gateway_intervals`).
    """
    # Streams arrive per category; tenure reconstruction needs one
    # time-ordered view.  The sort is stable, so the emission order of
    # same-timestamp events within a stream survives (a death demote
    # still precedes its fault.crash).
    ordered = sorted(events, key=lambda ev: ev.t)
    tenures = gateway_tenures(ordered, horizon)
    gaps = no_gateway_intervals(ordered, horizon, cells)

    totals: Dict[int, float] = {}
    for node, _cell, t0, t1 in tenures:
        totals[node] = totals.get(node, 0.0) + (t1 - t0)
    loads = list(totals.values())

    covered = len(gaps)
    gap_lengths: List[float] = [
        t1 - t0 for spans in gaps.values() for t0, t1 in spans
    ]
    denom = covered * horizon
    return PartitionReport(
        n_tenures=len(tenures),
        n_gateways=len(totals),
        load_cv=coefficient_of_variation(loads),
        load_gini=gini(loads),
        churn_per_100s=(
            len(tenures) / covered / horizon * 100.0 if denom else 0.0
        ),
        gap_fraction=sum(gap_lengths) / denom if denom else 0.0,
        gap_count=len(gap_lengths),
        mean_gap_s=(
            sum(gap_lengths) / len(gap_lengths) if gap_lengths else 0.0
        ),
        max_gap_s=max(gap_lengths, default=0.0),
        covered_cells=covered,
        tenure_percentiles=tuple(
            percentiles([t1 - t0 for *_, t0, t1 in tenures], PERCENTILES)
        ),
        gap_percentiles=tuple(percentiles(gap_lengths, PERCENTILES)),
    )
