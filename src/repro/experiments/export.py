"""Export experiment results and figure data to JSON / CSV.

The text tables in :mod:`repro.experiments.report` are for humans;
these exporters feed external plotting (matplotlib, gnuplot, pandas)
without adding any plotting dependency to the library.

Both exporters emit one discriminated, versioned schema — every record
carries ``"schema"`` (:data:`RESULT_SCHEMA`) and ``"kind"``
(``"result"`` / ``"figure"``) — shared byte-for-byte with the HTTP
responses of :mod:`repro.serve`, which imports the version constant
from here.  Results round-trip losslessly through
:func:`result_to_dict` / :func:`result_from_dict` — that round-trip is
what the on-disk sweep cache (:mod:`repro.experiments.cache`) is built
on.
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, Any, Dict, Mapping, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.metrics.timeseries import TimeSeries

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.figures import FigureData
    from repro.experiments.runner import ExperimentResult

#: Version of the exported result/figure dict layout — shared by the
#: on-disk cache, CLI ``--json`` export, and HTTP result responses.
#: Bump on any change to the keys or their meaning; cached results with
#: a stale schema are treated as misses.
#:
#: 2: added per-reason drop accounting (``dropped``, ``drop_reasons``)
#:    and fault-recovery scalars (``recovery``).
#: 3: unified result and figure records under one discriminated schema:
#:    every record now carries ``"kind"`` (``"result"`` / ``"figure"`` /
#:    ``"sweep"``) next to ``"schema"``, so a reader can dispatch
#:    without guessing from the key set.  Values are unchanged.
#:
#:    Additive (no bump): figure/sweep records produced under adaptive
#:    replication carry optional ``"ci"`` / ``"precision"`` keys;
#:    fixed-grid records are byte-identical to plain v3 and readers
#:    must treat both keys as optional (see docs/sweeps.md).
RESULT_SCHEMA = 3

__all__ = [
    "RESULT_SCHEMA",
    "result_to_dict",
    "result_from_dict",
    "result_to_json",
    "result_from_json",
    "figure_to_dict",
    "figure_to_csv",
    "figure_to_json",
]


def result_to_dict(result: "ExperimentResult") -> Dict[str, Any]:
    """A JSON-serializable record of one run (schema-versioned).

    Runs scored by the partition evaluator (``evaluate_partition``
    configs) additionally carry a ``"partition"`` key — additive and
    conditional like the adaptive ``"ci"``/``"precision"`` figure keys,
    so unscored records stay byte-identical on schema v3.
    """
    cfg = result.config.to_dict()
    # Nested param dataclasses serialize too (to_dict recurses).
    record = {
        "schema": RESULT_SCHEMA,
        "kind": "result",
        "config": cfg,
        "sent": result.sent,
        "delivered": result.delivered,
        "delivery_rate": result.delivery_rate,
        "delivery_rate_pre_death": result.delivery_rate_pre_death,
        "mean_latency_s": result.mean_latency_s,
        "latency_p95_s": result.latency_p95_s,
        "mean_hops": result.mean_hops,
        "duplicates": result.duplicates,
        "first_death_s": result.first_death_s,
        "all_dead_s": result.all_dead_s,
        "alive_fraction": result.alive_fraction.rows(),
        "aen": result.aen.rows(),
        "counters": result.counters,
        "medium": result.medium,
        "dropped": result.dropped,
        "drop_reasons": result.drop_reasons,
        "recovery": result.recovery,
        "events_executed": result.events_executed,
        "wall_time_s": result.wall_time_s,
    }
    if result.partition:
        record["partition"] = dict(result.partition)
    return record


def _series(name: str, rows: Sequence[Tuple[float, float]]) -> TimeSeries:
    ts = TimeSeries(name)
    for t, v in rows:
        ts.append(t, v)
    return ts


def result_from_dict(data: Mapping[str, Any]) -> "ExperimentResult":
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_dict`.

    Raises :class:`ValueError` on a schema mismatch so callers (the
    cache) can treat stale records as misses instead of mis-reading
    them.
    """
    from repro.experiments.runner import ExperimentResult

    if data.get("schema") != RESULT_SCHEMA:
        raise ValueError(
            f"result schema {data.get('schema')!r} != {RESULT_SCHEMA}"
        )
    if data.get("kind", "result") != "result":
        raise ValueError(
            f"record kind {data.get('kind')!r} is not a result record"
        )
    return ExperimentResult(
        config=ExperimentConfig.from_dict(data["config"]),
        alive_fraction=_series("alive_fraction", data["alive_fraction"]),
        aen=_series("aen", data["aen"]),
        sent=data["sent"],
        delivered=data["delivered"],
        delivery_rate=data["delivery_rate"],
        delivery_rate_pre_death=data["delivery_rate_pre_death"],
        mean_latency_s=data["mean_latency_s"],
        latency_p95_s=data["latency_p95_s"],
        mean_hops=data["mean_hops"],
        duplicates=data["duplicates"],
        first_death_s=data["first_death_s"],
        all_dead_s=data["all_dead_s"],
        counters=dict(data["counters"]),
        medium=dict(data["medium"]),
        dropped=data["dropped"],
        drop_reasons=dict(data["drop_reasons"]),
        recovery=dict(data["recovery"]),
        partition=dict(data.get("partition", {})),
        events_executed=data["events_executed"],
        wall_time_s=data["wall_time_s"],
    )


def result_to_json(result: "ExperimentResult", indent: int = 2) -> str:
    return json.dumps(result_to_dict(result), indent=indent, default=str)


def result_from_json(text: str) -> "ExperimentResult":
    return result_from_dict(json.loads(text))


def figure_to_csv(fig: "FigureData") -> str:
    """One CSV: the union of x values, one column per series."""
    xs = sorted({x for s in fig.series.values() for x, _ in s})
    maps = {label: dict(s) for label, s in fig.series.items()}
    labels = list(fig.series)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([fig.x_label] + labels)
    for x in xs:
        writer.writerow(
            [x] + [maps[label].get(x, "") for label in labels]
        )
    return out.getvalue()


def figure_to_dict(fig: "FigureData") -> Dict[str, Any]:
    """Schema-versioned figure record (the HTTP figure response body).

    ``series`` holds the mean curves, ``bands`` the pointwise sample
    stddev across seeds (all-zero for single-seed figures), ``raw`` the
    per-seed curves the mean was reduced from (in ``seeds`` order).
    Wall-clock times are deliberately absent: the record is a pure
    function of the config grid, so re-running the same figure —
    serially, in parallel, or from a warm cache — yields an identical
    record.

    Figures produced under adaptive replication additionally carry
    ``"ci"`` (pointwise t-CI half-width bands) and ``"precision"`` (the
    :class:`~repro.experiments.adaptive.PrecisionReport` dict).  These
    keys are *additive and conditional* — fixed-seed-grid exports stay
    byte-identical to pre-adaptive records, which is why they ride
    schema v3 instead of forcing a bump (readers must treat both as
    optional).
    """
    record = {
        "schema": RESULT_SCHEMA,
        "kind": "figure",
        "figure_id": fig.figure_id,
        "title": fig.title,
        "x_label": fig.x_label,
        "y_label": fig.y_label,
        "seeds": list(fig.seeds),
        "series": {k: list(v) for k, v in fig.series.items()},
        "bands": {k: list(v) for k, v in fig.bands.items()},
        "raw": {
            k: [list(s) for s in per_seed]
            for k, per_seed in fig.raw.items()
        },
    }
    if fig.precision is not None:
        record["ci"] = {k: list(v) for k, v in fig.ci.items()}
        record["precision"] = dict(fig.precision)
    return record


def figure_to_json(fig: "FigureData", indent: int = 2) -> str:
    """:func:`figure_to_dict`, serialized."""
    return json.dumps(figure_to_dict(fig), indent=indent)
