"""Seed statistics: curve reducers, scalar summaries and t intervals.

One seed is one sample of the mobility/traffic/MAC randomness; the
paper's curves are (implicitly) single ns-2 runs, but a credible
reproduction should show the spread.  Seeds are replicated by the
sweep engine — a ``seed`` axis in a
:class:`~repro.experiments.sweep.SweepSpec`, which is what
``figure(name, seeds=N)`` builds and what the adaptive engine
(:mod:`repro.experiments.adaptive`) allocates — and this module reduces
what those runs return:

- :func:`resample_union`, :func:`mean_series` and :func:`stddev_series`
  turn per-seed curves into a figure's mean curves and stddev bands;
- :func:`summarize_scalars` is the (mean, sample stddev) of every
  headline scalar, the readout the adaptive gate watches;
- :func:`t_quantile`, :func:`ci_halfwidth` and :func:`ci_series` are
  dependency-free small-sample Student-t confidence intervals.

The module imports nothing else from the experiment layer at run time,
so the figures and the adaptive engine both import it at module top.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import ExperimentResult

Series = List[Tuple[float, float]]


def sample_variance(values: Sequence[float]) -> float:
    """Unbiased sample variance (``n - 1`` denominator); zero for fewer
    than two values."""
    n = len(values)
    if n < 2:
        return 0.0
    mean = sum(values) / n
    return sum((v - mean) ** 2 for v in values) / (n - 1)


# ----------------------------------------------------------------------
# Curves (per-seed series -> mean +- stddev on the union x-grid)
# ----------------------------------------------------------------------
def resample_union(
    series_list: Sequence[Series],
) -> Optional[Tuple[List[float], List[List[Optional[float]]]]]:
    """Step-resample every replicate onto the union of their x-grids.

    Replicates of event-driven series (death times, per-seed sampling
    phases) rarely share exact x values, so intersecting the grids
    would collapse the averaged curve to the few shared points, or to
    nothing at all.  Instead each series is evaluated at every union x
    by carrying its most recent sample forward.

    Carry-forward is only defined *after* a series' first sample.
    Before its first x a series has no value — its column holds ``None``
    there, and the reducers skip it.  Back-filling the first sample's
    value over the leading edge would bias means and deflate spreads
    wherever replicates start at different times.  Every union x is
    covered by at least one series (it came from one), so reducers never
    see an all-``None`` column slice.  When all replicates already share
    one grid this is exact (no interpolation happens and the original
    values pass through).

    Returns ``(grid, columns)`` with ``columns[i]`` the values of
    ``series_list[i]`` on ``grid`` (``None`` before its first sample),
    or ``None`` when there is nothing to resample (no series, or an
    empty series among them).
    """
    if not series_list or any(not s for s in series_list):
        return None
    grid = sorted({x for s in series_list for x, _ in s})
    columns: List[List[Optional[float]]] = []
    for s in series_list:
        pts = sorted(s)
        vals: List[Optional[float]] = []
        i = 0
        cur: Optional[float] = None
        for x in grid:
            while i < len(pts) and pts[i][0] <= x:
                cur = pts[i][1]
                i += 1
            vals.append(cur)
        columns.append(vals)
    return grid, columns


def mean_series(series_list: Sequence[Series]) -> Series:
    """Pointwise mean of the replicates on the union of their x-grids.

    At each union x the mean runs over the replicates that have started
    by then (see :func:`resample_union`); a late-starting replicate does
    not contribute fabricated values to the leading edge.
    """
    resampled = resample_union(series_list)
    if resampled is None:
        return []
    grid, cols = resampled
    out: Series = []
    for i, x in enumerate(grid):
        vals = [c[i] for c in cols if c[i] is not None]
        out.append((x, sum(vals) / len(vals)))
    return out


def stddev_series(series_list: Sequence[Series]) -> Series:
    """Pointwise sample stddev on the union x-grid, over the replicates
    defined at each x (0 where fewer than two have started)."""
    resampled = resample_union(series_list)
    if resampled is None:
        return []
    grid, cols = resampled
    out: Series = []
    for i, x in enumerate(grid):
        vals = [c[i] for c in cols if c[i] is not None]
        out.append((x, math.sqrt(sample_variance(vals))))
    return out


# ----------------------------------------------------------------------
# Headline scalars
# ----------------------------------------------------------------------
def summarize_scalars(
    results: Sequence[ExperimentResult],
) -> Dict[str, Tuple[float, float]]:
    """(mean, sample stddev) of each headline scalar across replicates.

    Raises :class:`ValueError` on an empty result list.  A replicate
    that saw no host death contributes its *own* horizon
    (``config.sim_time_s``) to ``first_death_s`` — replicates may run
    under different horizons (e.g. a mixed-scale sweep) and must not
    inherit the first result's.
    """
    if not results:
        raise ValueError(
            "summarize_scalars needs at least one result (got an empty "
            "sequence)"
        )

    def reduce(vals: List[float]) -> Tuple[float, float]:
        return (sum(vals) / len(vals), math.sqrt(sample_variance(vals)))

    return {
        "delivery_rate": reduce([r.delivery_rate for r in results]),
        "mean_latency_s": reduce([r.mean_latency_s for r in results]),
        "aen_end": reduce([r.aen.last() for r in results]),
        "alive_end": reduce([r.alive_fraction.last() for r in results]),
        "first_death_s": reduce([
            r.first_death_s
            if r.first_death_s is not None
            else r.config.sim_time_s
            for r in results
        ]),
    }


# ----------------------------------------------------------------------
# Small-sample confidence intervals (no scipy dependency)
# ----------------------------------------------------------------------
def t_quantile(p: float, df: int) -> float:
    """Student-t inverse CDF at probability ``p`` with ``df`` degrees
    of freedom.

    Exact closed forms for df 1 and 2; Hill's (1970) Cornish–Fisher
    expansion of the normal quantile otherwise — within ~0.005 of the
    table values for df >= 3, which is far inside the noise of the
    sample standard deviations it multiplies.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if p == 0.5:
        return 0.0
    if df == 1:
        return math.tan(math.pi * (p - 0.5))
    if df == 2:
        u = 2.0 * p - 1.0
        return u * math.sqrt(2.0 / (1.0 - u * u))
    x = NormalDist().inv_cdf(p)
    g1 = (x ** 3 + x) / 4.0
    g2 = (5 * x ** 5 + 16 * x ** 3 + 3 * x) / 96.0
    g3 = (3 * x ** 7 + 19 * x ** 5 + 17 * x ** 3 - 15 * x) / 384.0
    g4 = (
        79 * x ** 9 + 776 * x ** 7 + 1482 * x ** 5
        - 1920 * x ** 3 - 945 * x
    ) / 92160.0
    return x + g1 / df + g2 / df ** 2 + g3 / df ** 3 + g4 / df ** 4


def ci_halfwidth(values: Sequence[float], confidence: float = 0.95) -> float:
    """Half-width of the two-sided t confidence interval on the mean.

    Zero for fewer than two samples (no spread estimate exists — the
    caller must not read that as certainty; the adaptive gate never
    evaluates below its pilot size).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n = len(values)
    if n < 2:
        return 0.0
    return t_quantile(0.5 + confidence / 2.0, n - 1) * math.sqrt(
        sample_variance(values) / n
    )


def ci_series(
    series_list: Sequence[Series], confidence: float = 0.95
) -> Series:
    """Pointwise t-CI half-width band on the union x-grid.

    At each union x the interval runs over the replicates defined
    there (df = n-1 varies along the curve as late-starting replicates
    join); zero where fewer than two have started.
    """
    resampled = resample_union(series_list)
    if resampled is None:
        return []
    grid, cols = resampled
    out: Series = []
    for i, x in enumerate(grid):
        vals = [c[i] for c in cols if c[i] is not None]
        out.append((x, ci_halfwidth(vals, confidence)))
    return out
