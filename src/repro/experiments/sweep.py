"""Declarative experiment grids and their (parallel) execution.

:class:`SweepSpec` describes a cartesian grid of
:class:`~repro.experiments.config.ExperimentConfig`\\ s — protocol,
seed, speed, pause, host count, grid size, any config field, any
nested protocol tunable — as ``axis name -> list of values``.
:class:`SweepRunner` expands the grid and executes it:

- ``workers=0`` runs every point inline (serially, in-process); this
  is the determinism-sensitive reference path tests compare against.
- ``workers=N`` dispatches points to a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Each worker
  re-derives its result purely from the pickled config (a run is a
  pure function of its config, seed included), so serial and parallel
  execution produce identical metrics.
- An optional :class:`~repro.experiments.cache.ResultCache` short-
  circuits points whose exact config has been simulated before.
- Per-point ``timeout_s`` plus retry-once semantics: a point that
  fails or times out in a worker is re-run once inline; only a second
  failure raises :class:`SweepError`.

Results come back in grid-expansion order regardless of which worker
finished first, so everything downstream (figure aggregation, JSON
export) is order-stable.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, run_experiment

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.adaptive import PrecisionReport

#: Friendly axis spellings for the most-swept config fields.
AXIS_ALIASES = {
    "speed": "max_speed_mps",
    "pause": "pause_time_s",
    "hosts": "n_hosts",
    "grid": "cell_side_m",
    "energy": "initial_energy_j",
    "flows": "n_flows",
    "time": "sim_time_s",
    "election": "params.election_policy",
}

_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


class SweepError(RuntimeError):
    """A sweep point failed its run and its retry."""

    def __init__(self, point: "SweepPoint", cause: BaseException) -> None:
        super().__init__(
            f"sweep point #{point.index} {point.axes} failed after retry: "
            f"{cause!r}"
        )
        self.point = point
        self.cause = cause


def resolve_config(
    base: ExperimentConfig,
    overrides: Mapping[str, Any],
    scale: float = 1.0,
) -> ExperimentConfig:
    """``base`` + overrides, then :meth:`ExperimentConfig.scaled`.

    Override keys are config field names (or their ``AXIS_ALIASES``),
    dotted paths into the nested tunables (``params.hello_period_s``,
    ``gaf.sleep_time_s``), or the pseudo-field ``scale``.  Overrides
    apply *before* scaling, matching how the paper figures define their
    grids (a ``hosts=150`` axis means 150 paper-scale hosts).
    """
    plain: Dict[str, Any] = {}
    params = base.params
    gaf = base.gaf
    for key, value in overrides.items():
        key = AXIS_ALIASES.get(key, key)
        if key == "scale":
            scale = value
        elif key.startswith("params."):
            params = replace(params, **{key[len("params."):]: value})
        elif key.startswith("gaf."):
            gaf = replace(gaf, **{key[len("gaf."):]: value})
        elif key in _CONFIG_FIELDS:
            plain[key] = value
        else:
            raise ValueError(
                f"unknown sweep axis {key!r}: not an ExperimentConfig field, "
                f"alias, 'scale', or dotted params./gaf. path"
            )
    cfg = replace(base, params=params, gaf=gaf, **plain)
    return cfg.scaled(scale)


@dataclass(frozen=True)
class SweepPoint:
    """One expanded grid point: its axis coordinates and full config."""

    index: int
    axes: Mapping[str, Any]
    config: ExperimentConfig

    def key(self) -> str:
        """Human-readable coordinate label, e.g. ``protocol=ecgrid;seed=2``."""
        return ";".join(f"{k}={v}" for k, v in self.axes.items())


@dataclass
class SweepSpec:
    """A named grid of experiment configs.

    ``axes`` maps axis names (see :func:`resolve_config`) to value
    lists; expansion is their cartesian product in insertion order,
    last axis fastest.  ``scale`` shrinks every expanded config via
    :meth:`ExperimentConfig.scaled` after the axis overrides apply.
    """

    name: str
    base: ExperimentConfig = field(default_factory=ExperimentConfig)
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    scale: float = 1.0

    def __len__(self) -> int:
        return math.prod(len(vs) for vs in self.axes.values()) if self.axes else 1

    def expand(self) -> List[SweepPoint]:
        """The full grid, in deterministic cartesian-product order."""
        names = list(self.axes)
        points: List[SweepPoint] = []
        for index, combo in enumerate(
            itertools.product(*(self.axes[n] for n in names))
        ):
            coords = dict(zip(names, combo))
            cfg = resolve_config(self.base, coords, self.scale)
            points.append(SweepPoint(index=index, axes=coords, config=cfg))
        return points


@dataclass
class SweepOutcome:
    """One executed (or cache-served) point."""

    point: SweepPoint
    result: ExperimentResult
    cached: bool = False
    retried: bool = False
    #: Parent-side wall time for this point, pool/cache overhead
    #: included — contrast with ``result.wall_time_s``, which is the
    #: simulation alone as measured inside the executing process.
    elapsed_s: float = 0.0


@dataclass
class SweepRun:
    """Everything a finished sweep produced, in grid order."""

    spec: SweepSpec
    outcomes: List[SweepOutcome]
    #: Precision report of an adaptive execution; ``None`` for fixed
    #: grids.
    precision: Optional["PrecisionReport"] = None

    @property
    def results(self) -> List[ExperimentResult]:
        return [o.result for o in self.outcomes]

    @property
    def executed(self) -> int:
        """Points actually simulated (cache misses)."""
        return sum(1 for o in self.outcomes if not o.cached)

    @property
    def cached(self) -> int:
        """Points served from the result cache."""
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def retried(self) -> int:
        return sum(1 for o in self.outcomes if o.retried)


#: ``progress(done, total, outcome)`` — called in the parent process,
#: in grid order, after each point completes.
ProgressFn = Callable[[int, int, SweepOutcome], None]


def _execute(config: ExperimentConfig) -> ExperimentResult:
    """Worker entry point: re-derive the result purely from the config."""
    return run_experiment(config)


class SweepRunner:
    """Executes :class:`SweepSpec` grids, optionally in parallel/cached.

    Parameters
    ----------
    workers:
        0 = inline serial execution (exact, no subprocesses); N >= 1 =
        a process pool of N workers.
    cache:
        Optional :class:`ResultCache`; hits skip simulation entirely
        and misses are stored after running.
    timeout_s:
        Per-point wall-clock budget when running in a pool.  A point
        that exceeds it is retried once inline.
    progress:
        Optional callback, see :data:`ProgressFn`.

    A pooled :meth:`run` builds its process pool and shuts it down
    before returning.  A ctrl-C, a hung worker or an aborting progress
    callback abandons the pool (``wait=False``, pending points
    cancelled) instead of blocking in the executor join; the runner
    stays usable.
    """

    def __init__(
        self,
        workers: int = 0,
        cache: Optional[ResultCache] = None,
        timeout_s: Optional[float] = None,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self.cache = cache
        self.timeout_s = timeout_s
        self.progress = progress
        self._total = 0
        self._done = 0

    def run(self, spec: SweepSpec) -> SweepRun:
        return self.run_points(spec, spec.expand())

    def run_points(
        self, spec: SweepSpec, points: Sequence[SweepPoint]
    ) -> SweepRun:
        """Execute an explicit point list through the cache/pool machinery.

        :meth:`run` is ``run_points(spec, spec.expand())``; schedulers
        that allocate points incrementally (the adaptive replication
        engine) submit their own lists.  Points are re-indexed to their
        list position, and outcomes come back in list order.
        """
        points = [
            p if p.index == i else replace(p, index=i)
            for i, p in enumerate(points)
        ]
        outcomes: List[Optional[SweepOutcome]] = [None] * len(points)
        self._total = len(points)
        self._done = 0

        # Serve what we can from the cache; only misses hit the pool.
        pending: List[SweepPoint] = []
        for point in points:
            cached = None if self.cache is None else self.cache.get(point.config)
            if cached is not None:
                self._emit(outcomes, SweepOutcome(point, cached, cached=True))
            else:
                pending.append(point)

        if pending:
            if self.workers == 0:
                self._run_serial(pending, outcomes)
            else:
                self._run_pool(pending, outcomes)

        assert all(o is not None for o in outcomes)
        return SweepRun(spec=spec, outcomes=list(outcomes))

    # -- execution strategies --------------------------------------------
    def _emit(
        self, outcomes: List[Optional[SweepOutcome]], outcome: SweepOutcome
    ) -> None:
        outcomes[outcome.point.index] = outcome
        self._done += 1
        if self.progress:
            self.progress(self._done, self._total, outcome)

    def _finish(
        self,
        outcomes: List[Optional[SweepOutcome]],
        point: SweepPoint,
        result: ExperimentResult,
        t0: float,
        retried: bool,
    ) -> None:
        if self.cache is not None:
            self.cache.put(point.config, result)
        self._emit(
            outcomes,
            SweepOutcome(
                point,
                result,
                retried=retried,
                elapsed_s=time.perf_counter() - t0,
            ),
        )

    def _retry_inline(
        self,
        outcomes: List[Optional[SweepOutcome]],
        point: SweepPoint,
        t0: float,
        cause: BaseException,
    ) -> None:
        try:
            result = run_experiment(point.config)
        except Exception as exc:
            raise SweepError(point, exc) from cause
        self._finish(outcomes, point, result, t0, retried=True)

    def _run_serial(
        self,
        pending: Sequence[SweepPoint],
        outcomes: List[Optional[SweepOutcome]],
    ) -> None:
        for point in pending:
            t0 = time.perf_counter()
            try:
                result = run_experiment(point.config)
            except Exception as exc:
                self._retry_inline(outcomes, point, t0, exc)
                continue
            self._finish(outcomes, point, result, t0, retried=False)

    def _run_pool(
        self,
        pending: Sequence[SweepPoint],
        outcomes: List[Optional[SweepOutcome]],
    ) -> None:
        # Imported here: multiprocessing is a large import that only
        # pooled sweeps need.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FuturesTimeout

        t0 = time.perf_counter()
        pool = ProcessPoolExecutor(max_workers=self.workers)
        clean = True
        try:
            futures = [(p, pool.submit(_execute, p.config)) for p in pending]
            # Collect in submission (= grid) order; points still complete
            # concurrently, so elapsed_s here is time-since-dispatch, not
            # exclusive per-point cost.
            for point, future in futures:
                try:
                    result = future.result(timeout=self.timeout_s)
                except (Exception, FuturesTimeout) as exc:
                    # A hung worker cannot be reclaimed; don't wait on it.
                    if isinstance(exc, FuturesTimeout):
                        clean = False
                    self._retry_inline(outcomes, point, t0, exc)
                    continue
                self._finish(outcomes, point, result, t0, retried=False)
        except BaseException:
            # Ctrl-C mid-sweep, a failed retry, a progress callback
            # aborting the run: never block in the executor join.
            clean = False
            raise
        finally:
            pool.shutdown(wait=clean, cancel_futures=not clean)
