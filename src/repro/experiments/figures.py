"""Regeneration of every figure in the paper's evaluation (§4).

The paper's evaluation is Figures 4–8 (it has no tables); four
ablations probe the design choices §3 motivates but does not quantify.
Each figure is registered in :data:`FIGURES` as a plan builder: it
declares the :class:`~repro.experiments.sweep.SweepSpec` grids the
figure runs and how one run reads into its curves
(:class:`FigurePlan`), and runs nothing itself.  The one entry point
runs a plan's sweeps and reduces them::

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

from repro.experiments.adaptive import (
    AdaptiveRunner,
    PrecisionReport,
    ReplicationPolicy,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_series_table
from repro.experiments.runner import ExperimentResult
from repro.experiments.stats import ci_series, mean_series, stddev_series
from repro.experiments.sweep import SweepPoint, SweepRunner, SweepSpec

Series = List[Tuple[float, float]]

#: The three protocols of Figs. 4–7.
COMPARED = ("grid", "ecgrid", "gaf")

#: ``extract(spec, point, result)`` yields ``(label, x, y)``
#: contributions of one run of sweep ``spec`` to a figure; seeds
#: sharing a (label, x) cell get averaged.
ExtractFn = Callable[
    [SweepSpec, SweepPoint, ExperimentResult],
    Iterable[Tuple[str, float, float]],
]


@dataclass(frozen=True)
class FigurePlan:
    """What one figure runs, and how each run reads into its curves.

    ``sweeps`` run in order.  A plan with more than one sweep needs
    distinct sweep names: :func:`figure` keys its results and the arms
    of its merged precision report by them.
    """

    title: str
    x_label: str
    y_label: str
    sweeps: Sequence[SweepSpec]
    extract: ExtractFn


@dataclass
class FigureData:
    """One regenerated figure: labelled (x, y) series plus run records.

    ``series`` holds the mean curves (the figure as plotted), ``bands``
    the pointwise sample stddev across seeds (zero for one seed), and
    ``raw`` the per-seed curves behind each mean, ordered like
    ``seeds``.  ``ci`` is the pointwise Student-t confidence half-width
    band on each mean curve (same x-grid discipline as ``bands``), and
    ``precision`` the adaptive-replication
    :class:`~repro.experiments.adaptive.PrecisionReport` when the
    figure was produced under a ``target_ci`` — ``None`` for fixed
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
    precision: Optional[PrecisionReport] = None

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


def _ecgrid_spec(
    name: str, speed: float, scale: float, axis: str, values, seeds
) -> SweepSpec:
    """One ECGRID tunable swept against the seeds (the ablations)."""
    return SweepSpec(
        name=name,
        base=ExperimentConfig(
            protocol="ecgrid", max_speed_mps=speed, pause_time_s=0.0
        ),
        axes={axis: list(values), "seed": list(seeds)},
        scale=scale,
    )


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
# Figure plans (registered in FIGURES)
# ----------------------------------------------------------------------
def _series_extract(attr: str) -> ExtractFn:
    """Whole sampled curve (``alive_fraction`` / ``aen``) per protocol."""
    def extract(spec, point, result):
        label = point.axes["protocol"]
        return [(label, t, v) for t, v in getattr(result, attr)]
    return extract


def _pause_extract(read: Callable[[ExperimentResult], float]) -> ExtractFn:
    """One scalar per protocol over the pause axis (Figs. 6 and 7)."""
    def extract(spec, point, result):
        return [(
            point.axes["protocol"], point.axes["pause_time_s"], read(result),
        )]
    return extract


def _fig4(speed, scale, seeds, protocols=COMPARED) -> FigurePlan:
    return FigurePlan(
        f"Fraction of alive hosts vs time (speed {speed} m/s)",
        "t(s)",
        "alive fraction",
        [lifetime_spec(speed, scale, seeds, protocols)],
        _series_extract("alive_fraction"),
    )


def _fig5(speed, scale, seeds, protocols=COMPARED) -> FigurePlan:
    return FigurePlan(
        f"Mean energy consumption per host (aen) vs time (speed {speed} m/s)",
        "t(s)",
        "aen",
        [lifetime_spec(speed, scale, seeds, protocols)],
        _series_extract("aen"),
    )


def _fig6(speed, scale, seeds, pauses=None, protocols=COMPARED) -> FigurePlan:
    return FigurePlan(
        f"Packet delivery latency vs pause time (speed {speed} m/s)",
        "pause(s)",
        "latency (ms)",
        [pause_sweep_spec(speed, scale, seeds, pauses, protocols)],
        _pause_extract(lambda result: result.mean_latency_s * 1000.0),
    )


def _fig7(speed, scale, seeds, pauses=None, protocols=COMPARED) -> FigurePlan:
    return FigurePlan(
        f"Packet delivery rate vs pause time (speed {speed} m/s)",
        "pause(s)",
        "delivery (%)",
        [pause_sweep_spec(speed, scale, seeds, pauses, protocols)],
        _pause_extract(lambda result: result.delivery_rate * 100.0),
    )


def _fig8(
    speed, scale, seeds,
    densities: Sequence[int] = (50, 100, 150, 200),
    protocols: Sequence[str] = ("grid", "ecgrid"),
) -> FigurePlan:
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

    def extract(spec, point, result):
        # Label by the post-scale host count actually simulated.
        label = f"{point.axes['protocol']}-n{point.config.n_hosts}"
        return [(label, t, v) for t, v in result.alive_fraction]

    return FigurePlan(
        f"Alive hosts vs time across host density (speed {speed} m/s)",
        "t(s)",
        "alive fraction",
        [spec],
        extract,
    )


# ----------------------------------------------------------------------
# Ablations (design choices §3 calls out)
# ----------------------------------------------------------------------
def _ablation_hello(
    speed, scale, seeds,
    periods: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
) -> FigurePlan:
    """§4A attributes ECGRID's gap to GAF to HELLO overhead: sweep the
    HELLO period and watch energy vs responsiveness trade."""

    def extract(spec, point, result):
        period = point.axes["params.hello_period_s"]
        return [
            ("aen_end", period, result.aen.last()),
            ("delivery_pct", period, result.delivery_rate * 100.0),
            ("hello_sent", period, float(result.counters.get("hello_sent", 0))),
        ]

    return FigurePlan(
        "ECGRID HELLO-period sweep",
        "hello period (s)",
        "aen / delivery% / count",
        [_ecgrid_spec(
            "ablation-hello", speed, scale, "params.hello_period_s",
            periods, seeds,
        )],
        extract,
    )


def _ablation_loadbalance(speed, scale, seeds) -> FigurePlan:
    """§3.2's load-balance rotation: does disabling it concentrate
    drain on long-lived gateways (earlier first death)?"""

    def extract(spec, point, result):
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

    return FigurePlan(
        "ECGRID with/without load-balance gateway rotation",
        "load_balance",
        "seconds / fraction",
        [_ecgrid_spec(
            "ablation-loadbalance", speed, scale, "params.load_balance",
            [False, True], seeds,
        )],
        extract,
    )


def _ablation_search(
    speed, scale, seeds,
    policies: Sequence[str] = ("bbox", "bbox_margin", "global"),
) -> FigurePlan:
    """§3.3's search-area confinement (the RREQ `range` field): the
    bounding rectangle suppresses the broadcast storm; the margin ring
    buys robustness to stale location info; `global` is plain AODV-ish
    flooding over gateways."""
    policies = list(policies)

    def extract(spec, point, result):
        x = float(policies.index(point.axes["params.search_policy"]))
        return [
            ("rreq_forwarded", x, float(result.counters.get("rreq_forwarded", 0))),
            ("delivery_pct", x, result.delivery_rate * 100.0),
            ("latency_ms", x, result.mean_latency_s * 1000.0),
        ]

    return FigurePlan(
        f"RREQ confinement policies {tuple(policies)}",
        "policy index",
        "count / % / ms",
        [_ecgrid_spec(
            "ablation-search", speed, scale, "params.search_policy",
            policies, seeds,
        )],
        extract,
    )


def _ablation_gridsize(
    speed, scale, seeds,
    sides: Sequence[float] = (50.0, 80.0, 100.0, 117.0),
) -> FigurePlan:
    """Grid side d vs the sqrt(2)r/3 bound: smaller cells mean more
    gateways awake (less saving); the bound maximizes sleepers while
    keeping gateway-to-gateway reachability."""

    def extract(spec, point, result):
        side = point.axes["cell_side_m"]
        return [
            ("alive_end", side, result.alive_fraction.last()),
            ("aen_end", side, result.aen.last()),
            ("delivery_pct", side, result.delivery_rate * 100.0),
        ]

    return FigurePlan(
        "ECGRID grid-side sweep (bound: sqrt(2)*250/3 = 117.85 m)",
        "cell side (m)",
        "fraction / %",
        [_ecgrid_spec(
            "ablation-gridsize", speed, scale, "cell_side_m", sides, seeds,
        )],
        extract,
    )


# ----------------------------------------------------------------------
# Resilience under injected faults (not in the paper; validates the
# protocols' self-healing claims under explicit adversity)
# ----------------------------------------------------------------------
def _resilience(
    speed, scale, seeds,
    intensities: Sequence[float] = (0.0, 0.25, 0.5, 0.75),
    protocols: Sequence[str] = COMPARED,
) -> FigurePlan:
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

    def extract(spec, point, result):
        x = intensity_of[point.axes["faults"]]
        proto = point.axes["protocol"]
        out = [(f"{proto}:delivery_pct", x, result.delivery_rate * 100.0)]
        rec = result.recovery.get("mean_delivery_recovery_s")
        if rec is not None:
            out.append((f"{proto}:recovery_s", x, rec))
        return out

    return FigurePlan(
        f"Delivery and fault-recovery latency vs fault intensity "
        f"(speed {speed} m/s)",
        "fault intensity",
        "delivery (%) / recovery (s)",
        [spec],
        extract,
    )


# ----------------------------------------------------------------------
# Partition-derived panels (not in the paper; each run scores its own
# gateway/fault event streams — see docs/observability.md)
# ----------------------------------------------------------------------
def _gateway_tenure(
    speed, scale, seeds,
    protocols: Sequence[str] = COMPARED,
) -> FigurePlan:
    """Gateway tenure and no-gateway gap distributions per protocol.

    Each run's partition record (``evaluate_partition``) keeps the
    percentiles of its individual gateway tenures (election to
    demotion) and of its per-cell intervals with no gateway;
    ``{proto}:tenure_s`` and ``{proto}:no_gw_s`` plot them over the
    percentile.
    """
    from repro.metrics.partition import PERCENTILES

    spec = SweepSpec(
        name="gateway-tenure",
        base=_base(speed, scale, seeds[0], evaluate_partition=True),
        axes={"protocol": list(protocols), "seed": list(seeds)},
    )

    def extract(spec, point, result):
        proto = point.axes["protocol"]
        for label, stat in (("tenure_s", "tenure"), ("no_gw_s", "gap")):
            for q in PERCENTILES:
                value = result.partition.get(f"{stat}_p{q:g}_s")
                if value is not None:
                    yield f"{proto}:{label}", q, value

    return FigurePlan(
        f"Gateway tenure / no-gateway gap distributions "
        f"(speed {speed} m/s)",
        "percentile",
        "seconds",
        [spec],
        extract,
    )


# ----------------------------------------------------------------------
# Election-policy faceoff (rank gateway-election policies on partition
# quality; see docs/election.md)
# ----------------------------------------------------------------------
#: The policies the faceoff ranks by default (every registered one).
ELECTION_COMPARED = ("paper", "grid", "dwell", "load", "random")


def _election_faceoff(
    speed, scale, seeds,
    policies: Sequence[str] = ELECTION_COMPARED,
    scenarios: Optional[Sequence[Tuple[str, Dict[str, Any]]]] = None,
) -> FigurePlan:
    """Rank gateway-election policies on partition quality across
    scenario shapes.

    One sweep per scenario shape, named ``scenario={name}``, runs
    ``policies x seeds`` with ``evaluate_partition`` set, so each
    worker scores its own run's gateway partition
    (:mod:`repro.metrics.partition`) and the scores ride the result
    cache with everything else.  Series are labelled
    ``{policy}:{metric}`` over the scenario index: the evaluator's
    load-fairness (CV / Gini), churn and coverage-gap scores, plus
    ``lifetime_frac`` (first host death as a fraction of the horizon,
    1.0 = nobody died).  Scenario shapes default to the paper baseline
    (``cruise``), an 8 m/s high-churn variant (``sprint``), and a
    pause-dominated near-static variant (``parked``).
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
    sweeps = [
        SweepSpec(
            name=f"scenario={scenario}",
            base=_base(
                speed, scale, seeds[0],
                protocol="ecgrid", evaluate_partition=True, **overrides,
            ),
            axes={
                "params.election_policy": list(policies),
                "seed": list(seeds),
            },
        )
        for scenario, overrides in scenarios
    ]
    index = {spec.name: float(x) for x, spec in enumerate(sweeps)}

    def extract(spec, point, result):
        policy = point.axes["params.election_policy"]
        horizon = point.config.sim_time_s
        death = result.first_death_s
        scores = {
            "load_cv": result.partition.get("load_cv", 0.0),
            "load_gini": result.partition.get("load_gini", 0.0),
            "churn_per_100s": result.partition.get("churn_per_100s", 0.0),
            "gap_fraction": result.partition.get("gap_fraction", 0.0),
            "lifetime_frac": (
                death if death is not None else horizon
            ) / horizon,
        }
        for metric, value in scores.items():
            yield f"{policy}:{metric}", index[spec.name], value

    names = ", ".join(name for name, _ in scenarios)
    return FigurePlan(
        f"Election-policy partition quality across scenarios "
        f"(speed {speed} m/s)",
        f"scenario index ({names})",
        "score",
        sweeps,
        extract,
    )


#: Every regenerable figure, keyed by its canonical (CLI) name.  Each
#: entry is a plan builder, ``plan(speed, scale, seeds, **axes) ->
#: FigurePlan``.
FIGURES: Dict[str, Callable[..., FigurePlan]] = {
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


def figure_plan(
    name: str,
    speed: float = 1.0,
    scale: float = 1.0,
    seeds: Sequence[int] = (1,),
    **axes,
) -> FigurePlan:
    """The plan of the registered figure ``name`` over ``seeds``.

    Builds the figure's sweeps and simulates nothing; the job server
    validates a figure payload by expanding them.  ``_`` in ``name``
    reads as ``-``.  Sweeps named alike (two faceoff scenarios with one
    name) are refused: their results and precision arms would collide.
    """
    key = name.replace("_", "-")
    if key not in FIGURES:
        raise ValueError(
            f"unknown figure {name!r}; choose from {sorted(FIGURES)}"
        )
    if not seeds:
        raise ValueError("seeds must be >= 1")
    plan = FIGURES[key](speed, scale, list(seeds), **axes)
    names = [spec.name for spec in plan.sweeps]
    if len(set(names)) < len(names):
        raise ValueError(f"sweep names must be distinct, got {names}")
    return plan


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
    ``pauses=``, ``periods=``, ``policies=``, ``sides=``,
    ``intensities=``, ``scenarios=``).

    ``target_ci`` switches to *adaptive replication*
    (:mod:`repro.experiments.adaptive`): seeds are allocated per arm in
    rounds from ``seed`` upward until every headline scalar's relative
    CI half-width is within the target or the arm hits ``max_seeds``
    (``seeds=N`` is ignored; ``min_seeds``/``batch``/``confidence``
    tune the schedule).  The result carries the precision report in
    ``FigureData.precision`` and the seeds actually used in
    ``FigureData.seeds``.  Passing a pre-built
    :class:`~repro.experiments.adaptive.AdaptiveRunner` as ``runner``
    (the serve path does) uses its policy directly, and the policy's
    confidence, not the ``confidence`` argument, sets ``FigureData.ci``.

    This is the only code that runs a figure's sweeps: each sweep of
    the plan goes through the engine in order, and every run is
    reduced here.  A plan with several sweeps keys ``results`` as
    ``{sweep name};{point key}`` and merges their precision reports
    under the same prefix (:meth:`PrecisionReport.merge`).
    """
    engine = runner if runner is not None else SweepRunner()
    adaptive = isinstance(engine, AdaptiveRunner)
    if not adaptive and target_ci is not None:
        engine = AdaptiveRunner(
            ReplicationPolicy(
                target_ci=target_ci,
                min_seeds=min_seeds,
                max_seeds=max_seeds if max_seeds is not None else 16,
                batch=batch,
                confidence=confidence,
            ),
            engine,
        )
        adaptive = True
    elif not adaptive and max_seeds is not None:
        raise ValueError("max_seeds requires target_ci (adaptive mode)")
    if adaptive:
        confidence = engine.policy.confidence
    # An adaptive engine's seed axis is the full allocatable pool; its
    # scheduler decides the prefix each arm actually runs.
    pool = engine.policy.max_seeds if adaptive else seeds
    seed_list = list(range(seed, seed + pool))
    plan = figure_plan(name, speed, scale, seed_list, **axes)
    multi = len(plan.sweeps) > 1

    per_label: Dict[str, Dict[int, Series]] = {}
    results: Dict[str, ExperimentResult] = {}
    reports: List[Tuple[str, PrecisionReport]] = []
    for spec in plan.sweeps:
        run = engine.run(spec)
        if run.precision is not None:
            reports.append((spec.name, run.precision))
        prefix = f"{spec.name};" if multi else ""
        for outcome in run.outcomes:
            point, result = outcome.point, outcome.result
            seed_of = point.axes.get("seed", point.config.seed)
            for label, x, y in plan.extract(spec, point, result):
                per_label.setdefault(label, {}).setdefault(seed_of, []).append(
                    (x, y)
                )
            results[prefix + point.key()] = result

    # ``raw`` keeps the sorted per-seed curves in seed order (seeds
    # without points skipped), ``series`` their pointwise mean and
    # ``bands`` their stddev.
    fig = FigureData(
        name.replace("_", "-"), plan.title, plan.x_label, plan.y_label,
        {}, results, seeds=seed_list,
    )
    for label, by_seed in per_label.items():
        replicates = [sorted(by_seed[s]) for s in seed_list if s in by_seed]
        fig.raw[label] = replicates
        fig.series[label] = mean_series(replicates)
        fig.bands[label] = stddev_series(replicates)
        fig.ci[label] = ci_series(replicates, confidence)
    if reports:
        fig.precision = (
            PrecisionReport.merge(reports) if multi else reports[0][1]
        )
        fig.seeds = fig.precision.used_seeds
        fig.title += (
            f"  (adaptive: {fig.precision.total_runs} runs, "
            f"{'target met' if fig.precision.all_met else 'capped'})"
        )
    elif not adaptive and len(seed_list) > 1:
        fig.title += f"  (mean of {len(seed_list)} seeds)"
    return fig
