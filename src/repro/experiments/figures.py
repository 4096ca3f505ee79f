"""Regeneration of every figure in the paper's evaluation (§4).

The paper's evaluation is Figures 4–8 (it has no tables); four
ablations probe the design choices §3 motivates but does not quantify.
Each figure is registered in :data:`FIGURES` as a declarative
:class:`~repro.experiments.sweep.SweepSpec` grid plus an aggregation
step, and regenerated through the one entry point::

    figure("fig4", speed=10.0, scale=0.2, seeds=4,
           runner=SweepRunner(workers=4, cache=ResultCache(...)))

``scale=1.0`` reruns the paper's exact parameters (slow: full 2000 s,
100+ hosts); benchmarks use scaled-down variants that preserve density
and load, so the *shape* claims (who wins, by what factor, where the
knees are) remain comparable.  With ``seeds=N`` every curve is the
pointwise mean over N seeds and ``FigureData.bands`` carries the
sample stddev (the per-seed raw curves stay in ``FigureData.raw``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments.adaptive import AdaptiveRunner, ReplicationPolicy
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_series_table
from repro.experiments.runner import ExperimentResult
from repro.experiments.stats import ci_series, mean_series, stddev_series
from repro.experiments.sweep import SweepPoint, SweepRun, SweepRunner, SweepSpec

Series = List[Tuple[float, float]]

#: The three protocols of Figs. 4–7.
COMPARED = ("grid", "ecgrid", "gaf")

#: ``extract(point, result)`` yields ``(label, x, y)`` contributions of
#: one run to a figure; seeds sharing a (label, x) cell get averaged.
ExtractFn = Callable[[SweepPoint, ExperimentResult], Iterable[Tuple[str, float, float]]]


@dataclass
class FigureData:
    """One regenerated figure: labelled (x, y) series plus run records.

    ``series`` holds the mean curves (the figure as plotted), ``bands``
    the pointwise sample stddev across seeds (zero for one seed), and
    ``raw`` the per-seed curves behind each mean, ordered like
    ``seeds``.  ``ci`` is the pointwise Student-t confidence half-width
    band on each mean curve (same x-grid discipline as ``bands``), and
    ``precision`` the adaptive-replication report
    (:meth:`repro.experiments.adaptive.PrecisionReport.to_dict`) when
    the figure was produced under a ``target_ci`` — ``None`` for fixed
    seed grids, whose exports stay byte-identical.
    """

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: Dict[str, Series]
    results: Dict[str, ExperimentResult] = field(default_factory=dict)
    bands: Dict[str, Series] = field(default_factory=dict)
    raw: Dict[str, List[Series]] = field(default_factory=dict)
    seeds: List[int] = field(default_factory=list)
    ci: Dict[str, Series] = field(default_factory=dict)
    precision: Optional[Dict[str, Any]] = None

    def to_text(self) -> str:
        return format_series_table(
            f"[{self.figure_id}] {self.title}  (y: {self.y_label})",
            self.x_label,
            self.series,
        )


def _base(speed: float, scale: float, seed: int, **overrides) -> ExperimentConfig:
    """The paper's common setup: 100 hosts, 10 pkt/s aggregate load,
    constant mobility (pause 0) unless overridden."""
    cfg = ExperimentConfig(
        max_speed_mps=speed,
        pause_time_s=0.0,
        seed=seed,
    )
    cfg = replace(cfg, **overrides)
    return cfg.scaled(scale)


def _assemble(
    figure_id: str,
    title: str,
    x_label: str,
    y_label: str,
    run: SweepRun,
    extract: ExtractFn,
    seeds: Sequence[int],
) -> FigureData:
    """Reduce a sweep to mean curves ± stddev bands across seeds."""
    per_label: Dict[str, Dict[int, Series]] = {}
    results: Dict[str, ExperimentResult] = {}
    for outcome in run.outcomes:
        point, result = outcome.point, outcome.result
        seed = point.axes.get("seed", point.config.seed)
        for label, x, y in extract(point, result):
            per_label.setdefault(label, {}).setdefault(seed, []).append((x, y))
        results[point.key()] = result
    return _reduce_seeds(
        figure_id, title, x_label, y_label, per_label, results, seeds
    )


def _reduce_seeds(
    figure_id: str,
    title: str,
    x_label: str,
    y_label: str,
    per_label: Dict[str, Dict[int, Series]],
    results: Dict[str, ExperimentResult],
    seeds: Sequence[int],
) -> FigureData:
    """The one reduction every figure ends in: ``per_label[label][seed]``
    holds one seed's (x, y) points of a curve; ``raw`` keeps the sorted
    per-seed curves in ``seeds`` order (seeds without points skipped),
    ``series`` their pointwise mean and ``bands`` their stddev."""
    series: Dict[str, Series] = {}
    bands: Dict[str, Series] = {}
    raw: Dict[str, List[Series]] = {}
    for label, by_seed in per_label.items():
        replicates = [sorted(by_seed[s]) for s in seeds if s in by_seed]
        raw[label] = replicates
        series[label] = mean_series(replicates)
        bands[label] = stddev_series(replicates)
    return FigureData(
        figure_id, title, x_label, y_label,
        series, results, bands, raw, list(seeds),
    )


def _default_runner(runner: Optional[SweepRunner]) -> SweepRunner:
    return runner if runner is not None else SweepRunner()


# ----------------------------------------------------------------------
# Shared workloads
# ----------------------------------------------------------------------
def lifetime_spec(
    speed: float = 1.0,
    scale: float = 1.0,
    seeds: Sequence[int] = (1,),
    protocols: Sequence[str] = COMPARED,
) -> SweepSpec:
    """The shared grid behind Figs. 4 and 5."""
    return SweepSpec(
        name="lifetime",
        base=ExperimentConfig(max_speed_mps=speed, pause_time_s=0.0),
        axes={"protocol": list(protocols), "seed": list(seeds)},
        scale=scale,
    )


def pause_sweep_spec(
    speed: float,
    scale: float,
    seeds: Sequence[int] = (1,),
    pauses: Optional[Sequence[float]] = None,
    protocols: Sequence[str] = COMPARED,
) -> SweepSpec:
    """Shared grid behind Figs. 6 and 7.

    The paper measures both at simulation time 590 s (where GRID's
    hosts exhaust); scaled runs use the proportional horizon.  The base
    config is pre-scaled here (pause values are post-scale seconds), so
    the spec itself carries ``scale=1.0``.
    """
    if pauses is None:
        pauses = [p * scale for p in (0, 100, 200, 300, 400, 500, 600)]
    base = _base(speed, scale, seeds[0])
    base = replace(base, sim_time_s=590.0 * scale)
    return SweepSpec(
        name="pause-sweep",
        base=base,
        axes={
            "protocol": list(protocols),
            "pause_time_s": list(pauses),
            "seed": list(seeds),
        },
    )


# ----------------------------------------------------------------------
# Figure implementations (registered in FIGURES)
# ----------------------------------------------------------------------
def _series_extract(attr: str) -> ExtractFn:
    """Whole sampled curve (``alive_fraction`` / ``aen``) per protocol."""
    def extract(point: SweepPoint, result: ExperimentResult):
        label = point.axes["protocol"]
        return [(label, t, v) for t, v in getattr(result, attr)]
    return extract


def _fig4(runner, speed, scale, seeds, protocols=COMPARED) -> FigureData:
    run = runner.run(lifetime_spec(speed, scale, seeds, protocols))
    return _assemble(
        "fig4",
        f"Fraction of alive hosts vs time (speed {speed} m/s)",
        "t(s)",
        "alive fraction",
        run,
        _series_extract("alive_fraction"),
        seeds,
    )


def _fig5(runner, speed, scale, seeds, protocols=COMPARED) -> FigureData:
    run = runner.run(lifetime_spec(speed, scale, seeds, protocols))
    return _assemble(
        "fig5",
        f"Mean energy consumption per host (aen) vs time (speed {speed} m/s)",
        "t(s)",
        "aen",
        run,
        _series_extract("aen"),
        seeds,
    )


def _fig6(runner, speed, scale, seeds, pauses=None, protocols=COMPARED) -> FigureData:
    run = runner.run(pause_sweep_spec(speed, scale, seeds, pauses, protocols))

    def extract(point, result):
        return [(
            point.axes["protocol"],
            point.axes["pause_time_s"],
            result.mean_latency_s * 1000.0,
        )]

    return _assemble(
        "fig6",
        f"Packet delivery latency vs pause time (speed {speed} m/s)",
        "pause(s)",
        "latency (ms)",
        run,
        extract,
        seeds,
    )


def _fig7(runner, speed, scale, seeds, pauses=None, protocols=COMPARED) -> FigureData:
    run = runner.run(pause_sweep_spec(speed, scale, seeds, pauses, protocols))

    def extract(point, result):
        return [(
            point.axes["protocol"],
            point.axes["pause_time_s"],
            result.delivery_rate * 100.0,
        )]

    return _assemble(
        "fig7",
        f"Packet delivery rate vs pause time (speed {speed} m/s)",
        "pause(s)",
        "delivery (%)",
        run,
        extract,
        seeds,
    )


def _fig8(
    runner, speed, scale, seeds,
    densities: Sequence[int] = (50, 100, 150, 200),
    protocols: Sequence[str] = ("grid", "ecgrid"),
) -> FigureData:
    spec = SweepSpec(
        name="fig8-density",
        base=ExperimentConfig(max_speed_mps=speed, pause_time_s=0.0),
        axes={
            "protocol": list(protocols),
            "hosts": list(densities),
            "seed": list(seeds),
        },
        scale=scale,
    )
    run = runner.run(spec)

    def extract(point, result):
        # Label by the post-scale host count actually simulated.
        label = f"{point.axes['protocol']}-n{point.config.n_hosts}"
        return [(label, t, v) for t, v in result.alive_fraction]

    return _assemble(
        "fig8",
        f"Alive hosts vs time across host density (speed {speed} m/s)",
        "t(s)",
        "alive fraction",
        run,
        extract,
        seeds,
    )


# ----------------------------------------------------------------------
# Ablations (design choices §3 calls out)
# ----------------------------------------------------------------------
def _ablation_hello(
    runner, speed, scale, seeds,
    periods: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
) -> FigureData:
    """§4A attributes ECGRID's gap to GAF to HELLO overhead: sweep the
    HELLO period and watch energy vs responsiveness trade."""
    spec = SweepSpec(
        name="ablation-hello",
        base=ExperimentConfig(
            protocol="ecgrid", max_speed_mps=speed, pause_time_s=0.0
        ),
        axes={"params.hello_period_s": list(periods), "seed": list(seeds)},
        scale=scale,
    )
    run = runner.run(spec)

    def extract(point, result):
        period = point.axes["params.hello_period_s"]
        return [
            ("aen_end", period, result.aen.last()),
            ("delivery_pct", period, result.delivery_rate * 100.0),
            ("hello_sent", period, float(result.counters.get("hello_sent", 0))),
        ]

    return _assemble(
        "ablation-hello",
        "ECGRID HELLO-period sweep",
        "hello period (s)",
        "aen / delivery% / count",
        run,
        extract,
        seeds,
    )


def _ablation_loadbalance(runner, speed, scale, seeds) -> FigureData:
    """§3.2's load-balance rotation: does disabling it concentrate
    drain on long-lived gateways (earlier first death)?"""
    spec = SweepSpec(
        name="ablation-loadbalance",
        base=ExperimentConfig(
            protocol="ecgrid", max_speed_mps=speed, pause_time_s=0.0
        ),
        axes={"params.load_balance": [False, True], "seed": list(seeds)},
        scale=scale,
    )
    run = runner.run(spec)

    def extract(point, result):
        x = 1.0 if point.axes["params.load_balance"] else 0.0
        death = (
            result.first_death_s
            if result.first_death_s is not None
            else point.config.sim_time_s
        )
        return [
            ("first_death_s", x, death),
            ("alive_end", x, result.alive_fraction.last()),
            ("aen_end", x, result.aen.last()),
        ]

    return _assemble(
        "ablation-loadbalance",
        "ECGRID with/without load-balance gateway rotation",
        "load_balance",
        "seconds / fraction",
        run,
        extract,
        seeds,
    )


def _ablation_search(
    runner, speed, scale, seeds,
    policies: Sequence[str] = ("bbox", "bbox_margin", "global"),
) -> FigureData:
    """§3.3's search-area confinement (the RREQ `range` field): the
    bounding rectangle suppresses the broadcast storm; the margin ring
    buys robustness to stale location info; `global` is plain AODV-ish
    flooding over gateways."""
    policies = list(policies)
    spec = SweepSpec(
        name="ablation-search",
        base=ExperimentConfig(
            protocol="ecgrid", max_speed_mps=speed, pause_time_s=0.0
        ),
        axes={"params.search_policy": policies, "seed": list(seeds)},
        scale=scale,
    )
    run = runner.run(spec)

    def extract(point, result):
        x = float(policies.index(point.axes["params.search_policy"]))
        return [
            ("rreq_forwarded", x, float(result.counters.get("rreq_forwarded", 0))),
            ("delivery_pct", x, result.delivery_rate * 100.0),
            ("latency_ms", x, result.mean_latency_s * 1000.0),
        ]

    return _assemble(
        "ablation-search",
        f"RREQ confinement policies {tuple(policies)}",
        "policy index",
        "count / % / ms",
        run,
        extract,
        seeds,
    )


def _ablation_gridsize(
    runner, speed, scale, seeds,
    sides: Sequence[float] = (50.0, 80.0, 100.0, 117.0),
) -> FigureData:
    """Grid side d vs the sqrt(2)r/3 bound: smaller cells mean more
    gateways awake (less saving); the bound maximizes sleepers while
    keeping gateway-to-gateway reachability."""
    spec = SweepSpec(
        name="ablation-gridsize",
        base=ExperimentConfig(
            protocol="ecgrid", max_speed_mps=speed, pause_time_s=0.0
        ),
        axes={"cell_side_m": list(sides), "seed": list(seeds)},
        scale=scale,
    )
    run = runner.run(spec)

    def extract(point, result):
        side = point.axes["cell_side_m"]
        return [
            ("alive_end", side, result.alive_fraction.last()),
            ("aen_end", side, result.aen.last()),
            ("delivery_pct", side, result.delivery_rate * 100.0),
        ]

    return _assemble(
        "ablation-gridsize",
        "ECGRID grid-side sweep (bound: sqrt(2)*250/3 = 117.85 m)",
        "cell side (m)",
        "fraction / %",
        run,
        extract,
        seeds,
    )


# ----------------------------------------------------------------------
# Resilience under injected faults (not in the paper; validates the
# protocols' self-healing claims under explicit adversity)
# ----------------------------------------------------------------------
def _resilience(
    runner, speed, scale, seeds,
    intensities: Sequence[float] = (0.0, 0.25, 0.5, 0.75),
    protocols: Sequence[str] = COMPARED,
) -> FigureData:
    """Delivery rate and post-fault recovery latency vs fault
    intensity.  Each intensity compiles to a :func:`standard_fault_plan
    <repro.faults.plan.standard_fault_plan>` mixing partitions, lossy
    windows, paging loss, crashes (with partial recovery) and battery
    drains, built against the post-scale horizon and geometry so
    intensities stay comparable across scales."""
    from repro.faults.plan import standard_fault_plan

    base = _base(speed, scale, seeds[0])
    plans = [
        standard_fault_plan(
            i,
            sim_time_s=base.sim_time_s,
            width_m=base.width_m,
            height_m=base.height_m,
            n_hosts=base.n_hosts,
            initial_energy_j=base.initial_energy_j,
        )
        for i in intensities
    ]
    intensity_of = dict(zip(plans, intensities))
    spec = SweepSpec(
        name="resilience",
        base=base,
        axes={
            "protocol": list(protocols),
            "faults": plans,
            "seed": list(seeds),
        },
    )
    run = runner.run(spec)

    def extract(point, result):
        x = intensity_of[point.axes["faults"]]
        proto = point.axes["protocol"]
        out = [(f"{proto}:delivery_pct", x, result.delivery_rate * 100.0)]
        rec = result.recovery.get("mean_delivery_recovery_s")
        if rec is not None:
            out.append((f"{proto}:recovery_s", x, rec))
        return out

    return _assemble(
        "resilience",
        f"Delivery and fault-recovery latency vs fault intensity "
        f"(speed {speed} m/s)",
        "fault intensity",
        "delivery (%) / recovery (s)",
        run,
        extract,
        seeds,
    )


# ----------------------------------------------------------------------
# Trace-derived panels (not in the paper; read off the observability
# layer's gateway/cell event streams — see docs/observability.md)
# ----------------------------------------------------------------------
def _gateway_tenure(
    runner, speed, scale, seeds,
    protocols: Sequence[str] = COMPARED,
    qs: Sequence[float] = (10.0, 25.0, 50.0, 75.0, 90.0),
) -> FigureData:
    """Gateway tenure and no-gateway gap distributions per protocol.

    Each run is traced with the ``gateway``/``cell`` categories and
    reduced through :mod:`repro.obs.report`: ``{proto}:tenure_s`` is the
    empirical distribution of individual gateway tenures (election to
    demotion), ``{proto}:no_gw_s`` the distribution of per-cell
    intervals during which no gateway covered the cell.  Runs bypass
    the sweep engine and its result cache — cached
    :class:`~repro.experiments.runner.ExperimentResult` records do not
    carry traces — so :func:`figure` refuses adaptive replication here.
    """
    from repro.experiments.runner import run_experiment
    from repro.obs import Tracer
    from repro.obs.report import (
        gateway_tenures,
        no_gateway_intervals,
        percentiles,
    )

    per_label: Dict[str, Dict[int, Series]] = {}
    results: Dict[str, ExperimentResult] = {}
    for proto in protocols:
        for seed in seeds:
            cfg = _base(speed, scale, seed, protocol=proto)
            tracer = Tracer(categories=("gateway", "cell"))
            result = run_experiment(cfg, tracer=tracer)
            results[f"protocol={proto}/seed={seed}"] = result
            events = list(tracer.events("gateway"))
            tenures = gateway_tenures(events, cfg.sim_time_s)
            gaps = [
                t1 - t0
                for spans in no_gateway_intervals(
                    events, cfg.sim_time_s
                ).values()
                for t0, t1 in spans
            ]
            for label, values in (
                (f"{proto}:tenure_s", [t1 - t0 for _, _, t0, t1 in tenures]),
                (f"{proto}:no_gw_s", gaps),
            ):
                pts = percentiles(values, qs)
                if pts:
                    per_label.setdefault(label, {})[seed] = pts
    return _reduce_seeds(
        "gateway-tenure",
        f"Gateway tenure / no-gateway gap distributions "
        f"(speed {speed} m/s)",
        "percentile",
        "seconds",
        per_label,
        results,
        seeds,
    )


# ----------------------------------------------------------------------
# Election-policy faceoff (ROADMAP item 5: rank gateway-election
# policies on partition quality; see docs/election.md)
# ----------------------------------------------------------------------
#: The policies the faceoff ranks by default (every registered one).
ELECTION_COMPARED = ("paper", "grid", "dwell", "load", "random")


def _election_faceoff(
    runner, speed, scale, seeds,
    policies: Sequence[str] = ELECTION_COMPARED,
    scenarios: Optional[Sequence[Tuple[str, Dict[str, Any]]]] = None,
) -> FigureData:
    """Rank gateway-election policies on partition quality across
    scenario shapes.

    One sweep per scenario shape runs ``policies x seeds`` through the
    supplied engine (plain or adaptive) with ``evaluate_partition``
    set, so each worker scores its own run's gateway partition
    (:mod:`repro.metrics.partition`) and the scores ride the result
    cache with everything else.  Series are labelled
    ``{policy}:{metric}`` over the scenario index: the evaluator's
    load-fairness (CV / Gini), churn and coverage-gap scores, plus
    ``lifetime_frac`` (first host death as a fraction of the horizon,
    1.0 = nobody died).  Scenario shapes default to the paper baseline
    (``cruise``), an 8 m/s high-churn variant (``sprint``), and a
    pause-dominated near-static variant (``parked``).

    Under adaptive replication each scenario is its own sweep, so the
    attached precision report covers the *last* scenario's arms.
    """
    if scenarios is None:
        scenarios = (
            ("cruise", {}),
            ("sprint", {"max_speed_mps": max(8.0, 8.0 * speed)}),
            # Near-static: a slow crawl plus long pauses.  The crawl
            # matters — random waypoint only pauses *after* the first
            # leg completes, so a fast-speed/long-pause variant is
            # indistinguishable from cruise on a scaled-down horizon.
            # scaled() leaves pause times alone; pin the pause to the
            # scaled horizon explicitly (~60% of it parked).
            ("parked", {
                "max_speed_mps": 0.1,
                "pause_time_s": 1200.0 * scale,
            }),
        )
    per_label: Dict[str, Dict[int, Series]] = {}
    results: Dict[str, ExperimentResult] = {}
    for x, (scenario, overrides) in enumerate(scenarios):
        base = _base(
            speed, scale, seeds[0],
            protocol="ecgrid", evaluate_partition=True, **overrides,
        )
        run = runner.run(SweepSpec(
            name=f"election-faceoff-{scenario}",
            base=base,
            axes={
                "params.election_policy": list(policies),
                "seed": list(seeds),
            },
        ))
        for outcome in run.outcomes:
            point, result = outcome.point, outcome.result
            policy = point.axes["params.election_policy"]
            seed = point.axes.get("seed", point.config.seed)
            results[f"scenario={scenario};{point.key()}"] = result
            horizon = point.config.sim_time_s
            death = result.first_death_s
            scores = {
                "load_cv": result.partition.get("load_cv", 0.0),
                "load_gini": result.partition.get("load_gini", 0.0),
                "churn_per_100s": result.partition.get(
                    "churn_per_100s", 0.0
                ),
                "gap_fraction": result.partition.get("gap_fraction", 0.0),
                "lifetime_frac": (
                    death if death is not None else horizon
                ) / horizon,
            }
            for metric, value in scores.items():
                per_label.setdefault(
                    f"{policy}:{metric}", {}
                ).setdefault(seed, []).append((float(x), value))
    names = ", ".join(name for name, _ in scenarios)
    return _reduce_seeds(
        "election-faceoff",
        f"Election-policy partition quality across scenarios "
        f"(speed {speed} m/s)",
        f"scenario index ({names})",
        "score",
        per_label,
        results,
        seeds,
    )


#: Every regenerable figure, keyed by its canonical (CLI) name.  Each
#: entry is ``impl(runner, speed, scale, seeds, **axes) -> FigureData``.
FIGURES: Dict[str, Callable[..., FigureData]] = {
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "ablation-hello": _ablation_hello,
    "ablation-loadbalance": _ablation_loadbalance,
    "ablation-search": _ablation_search,
    "ablation-gridsize": _ablation_gridsize,
    "resilience": _resilience,
    "gateway-tenure": _gateway_tenure,
    "election-faceoff": _election_faceoff,
}

#: Figures whose runs bypass the sweep engine (each is traced, and
#: cached results carry no traces), so no scheduler can allocate their
#: seeds: :func:`figure` refuses adaptive replication for them.
NON_ADAPTIVE_FIGURES = frozenset({"gateway-tenure"})


def figure(
    name: str,
    *,
    speed: float = 1.0,
    scale: float = 1.0,
    seed: int = 1,
    seeds: int = 1,
    runner: Optional[SweepRunner] = None,
    target_ci: Optional[float] = None,
    max_seeds: Optional[int] = None,
    min_seeds: int = 3,
    batch: int = 2,
    confidence: float = 0.95,
    **axes,
) -> FigureData:
    """Regenerate any registered figure through the sweep engine.

    ``seeds=N`` replicates the grid over seeds ``seed .. seed+N-1`` and
    reduces curves to mean ± stddev.  ``runner`` selects parallelism
    and caching (default: inline serial, uncached).  Remaining keyword
    arguments are figure-specific axes (``protocols=``, ``densities=``,
    ``pauses=``, ``periods=``, ``policies=``, ``sides=``).

    ``target_ci`` switches to *adaptive replication*
    (:mod:`repro.experiments.adaptive`): seeds are allocated per arm in
    rounds from ``seed`` upward until every headline scalar's relative
    CI half-width is within the target or the arm hits ``max_seeds``
    (``seeds=N`` is ignored; ``min_seeds``/``batch``/``confidence``
    tune the schedule).  The result carries the precision report in
    ``FigureData.precision`` and the seeds actually used in
    ``FigureData.seeds``.  Passing a pre-built
    :class:`~repro.experiments.adaptive.AdaptiveRunner` as ``runner``
    (the serve path does) uses its policy directly.  The figures in
    :data:`NON_ADAPTIVE_FIGURES` (the trace-derived ``gateway-tenure``
    panel) run outside the sweep engine and have no adaptive mode: with
    ``target_ci`` or an ``AdaptiveRunner`` they raise
    :class:`ValueError` before simulating anything.
    """
    key = name.replace("_", "-")
    if key not in FIGURES:
        raise ValueError(
            f"unknown figure {name!r}; choose from {sorted(FIGURES)}"
        )
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    if key in NON_ADAPTIVE_FIGURES and (
        target_ci is not None or isinstance(runner, AdaptiveRunner)
    ):
        raise ValueError(
            f"{key} runs outside the sweep engine and has no adaptive "
            f"replication; use seeds=N instead of target_ci"
        )
    engine: Optional[AdaptiveRunner] = None
    if isinstance(runner, AdaptiveRunner):
        engine = runner
    elif target_ci is not None:
        policy = ReplicationPolicy(
            target_ci=target_ci,
            min_seeds=min_seeds,
            max_seeds=max_seeds if max_seeds is not None else 16,
            batch=batch,
            confidence=confidence,
        )
        engine = AdaptiveRunner(policy, _default_runner(runner))
    elif max_seeds is not None:
        raise ValueError("max_seeds requires target_ci (adaptive mode)")
    if engine is not None:
        # The spec's seed axis is the full allocatable pool; the
        # scheduler decides the prefix each arm actually runs.
        seed_list = list(range(seed, seed + engine.policy.max_seeds))
        mark = len(engine.reports)
        fig = FIGURES[key](engine, speed, scale, seed_list, **axes)
        new_reports = engine.reports[mark:]
        if new_reports:
            report = new_reports[-1]
            fig.precision = report.to_dict()
            fig.seeds = report.used_seeds
            fig.title += (
                f"  (adaptive: {report.total_runs} runs, "
                f"{'target met' if report.all_met else 'capped'})"
            )
    else:
        seed_list = list(range(seed, seed + seeds))
        fig = FIGURES[key](
            _default_runner(runner), speed, scale, seed_list, **axes
        )
        if len(seed_list) > 1:
            fig.title += f"  (mean of {len(seed_list)} seeds)"
    fig.ci = {
        label: ci_series(replicates, confidence)
        for label, replicates in fig.raw.items()
    }
    return fig
