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
from dataclasses import fields
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Tuple

from repro.metrics.timeseries import TimeSeries
from repro.records import decode, decode_as

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

#: A time series' JSON form: its ``(t, value)`` rows.
_ROWS = List[Tuple[float, float]]

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
    """A JSON-serializable record of one run (schema-versioned): every
    :class:`ExperimentResult` field, the config as its dict and each
    time series as its ``(t, value)`` rows.

    Runs scored by the partition evaluator (``evaluate_partition``
    configs) additionally carry a ``"partition"`` key — additive and
    conditional like the adaptive ``"ci"``/``"precision"`` figure keys,
    so unscored records stay byte-identical on schema v3.
    """
    record: Dict[str, Any] = {"schema": RESULT_SCHEMA, "kind": "result"}
    for f in fields(result):
        value = getattr(result, f.name)
        if isinstance(value, TimeSeries):
            value = value.rows()
        elif f.name == "config":
            value = value.to_dict()
        elif f.name == "partition" and not value:
            continue
        record[f.name] = value
    return record


def result_from_dict(data: Mapping[str, Any]) -> "ExperimentResult":
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_dict`,
    type-checked field by field (:func:`repro.records.decode`).

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
    body = {k: v for k, v in data.items() if k not in ("schema", "kind")}
    for name in ("alive_fraction", "aen"):
        if name in body:
            series = TimeSeries(name)
            for t, v in decode_as(_ROWS, body[name], name):
                series.append(t, v)
            body[name] = series
    return decode(ExperimentResult, body)


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
        record["precision"] = fig.precision.to_dict()
    return record


def figure_to_json(fig: "FigureData", indent: int = 2) -> str:
    """:func:`figure_to_dict`, serialized."""
    return json.dumps(figure_to_dict(fig), indent=indent)
