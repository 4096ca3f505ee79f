"""Adaptive replication: CI-driven seed allocation over the sweep engine.

Every figure used to burn a *fixed* seed grid per sweep point no matter
how tight or noisy each curve already was.  This module replaces that
with a sequential design: run a small pilot on every arm, look at the
confidence-interval half-widths of the headline scalars
(:func:`repro.experiments.stats.summarize_scalars`), and keep adding
seeds *only* to the arms whose precision still misses the target —
stopping each arm early and hard-capping allocation at
``max_seeds``.

**Arms and common random numbers.**  An *arm* is one combination of
the non-seed axes of a :class:`~repro.experiments.sweep.SweepSpec`
(for the paper's head-to-head figures: one protocol, or one
protocol × pause point).  Seeds are allocated to every arm as a prefix
of one shared pool (``seed, seed+1, ...``), so two arms always share
their first ``min(n_a, n_b)`` seeds.  Because the simulator derives
mobility and traffic from named RNG substreams of the seed alone, the
same seed means the *same realization* across protocols — protocol
deltas are therefore computed on paired per-seed differences, whose
variance is far below that of independent means (the classic
common-random-numbers reduction).  The pairing diagnostics live in the
precision report's ``deltas`` entries.

**Sequential gate.**  An arm stops once, for every gated scalar, the
two-sided Student-t half-width is within ``target_ci`` of the mean
(relative half-width).  Looking at the data repeatedly inflates the
chance that some look's interval is optimistically narrow, so the
per-look intervals are widened Bonferroni-style: with ``L`` possible
looks (pilot + one per batch up to the cap), each look spends
``alpha / L`` of the total error budget — i.e. the t quantile is taken
at ``1 - alpha / (2 L)`` instead of ``1 - alpha / 2``.  This is a
conservative spending schedule: an arm declared "met" has *at least*
the nominal coverage, at the price of occasionally running one batch
longer than an uncorrected gate would.

Every replicate is an ordinary cache-keyed
:class:`~repro.experiments.config.ExperimentConfig` point executed
through :meth:`SweepRunner.run_points
<repro.experiments.sweep.SweepRunner.run_points>`, so adaptive runs
resume from a warm result cache instantly and allocate the identical
seed sequence (the scheduler is a pure function of the simulated
metrics, which are themselves pure functions of the configs).

See ``docs/sweeps.md`` ("Adaptive replication") for the user-facing
walkthrough and ``tests/perf/test_adaptive_savings.py`` for the
fixed-grid vs adaptive cost comparison it gates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments.runner import ExperimentResult
from repro.experiments.stats import (
    ci_halfwidth,
    sample_variance,
    summarize_scalars,
    t_quantile,
)
from repro.experiments.sweep import (
    SweepOutcome,
    SweepPoint,
    SweepRun,
    SweepRunner,
    SweepSpec,
    resolve_config,
)

__all__ = [
    "GATE_SCALARS",
    "DEFAULT_GATE_SCALARS",
    "ReplicationPolicy",
    "PrecisionReport",
    "AdaptiveRunner",
    "adaptive_sweep",
]

#: Headline scalars the gate may watch (the keys of
#: :func:`repro.experiments.stats.summarize_scalars`).
GATE_SCALARS = (
    "delivery_rate",
    "mean_latency_s",
    "aen_end",
    "alive_end",
    "first_death_s",
)

#: Default gate: the scalars the paper's comparisons are judged on.
#: ``mean_latency_s`` is deliberately absent — its per-seed spread is
#: dominated by a few pathological discoveries and would force nearly
#: every arm to the cap (opt in per policy when latency is the claim).
DEFAULT_GATE_SCALARS = ("delivery_rate", "aen_end", "first_death_s")

#: Relative half-widths divide by ``max(|mean|, _REL_FLOOR)`` so a
#: zero-mean scalar with zero spread still counts as met.
_REL_FLOOR = 1e-12


@dataclass(frozen=True)
class ReplicationPolicy:
    """The stopping rule of one adaptive run.

    ``target_ci`` is the *relative* CI half-width every gated scalar
    must reach (0.05 = the interval spans ±5% of the mean); ``0.0``
    never stops early, which turns the scheduler into a fixed design
    of ``max_seeds`` replicates (the bench uses this to price the
    matched fixed grid).  ``min_seeds`` is the pilot, ``batch`` the
    per-round increment, ``max_seeds`` the hard cap, and
    ``confidence`` the *total* coverage the Bonferroni spending
    schedule protects across all looks.
    """

    target_ci: float
    min_seeds: int = 3
    max_seeds: int = 16
    batch: int = 2
    confidence: float = 0.95
    gate_scalars: Tuple[str, ...] = DEFAULT_GATE_SCALARS

    def __post_init__(self) -> None:
        if self.target_ci < 0.0:
            raise ValueError("target_ci must be >= 0")
        if self.min_seeds < 2:
            raise ValueError("min_seeds must be >= 2 (a CI needs spread)")
        if self.max_seeds < self.min_seeds:
            raise ValueError("max_seeds must be >= min_seeds")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if not self.gate_scalars:
            raise ValueError("gate_scalars must name at least one scalar")
        unknown = set(self.gate_scalars) - set(GATE_SCALARS)
        if unknown:
            raise ValueError(
                f"unknown gate scalar(s) {sorted(unknown)}; "
                f"choose from {GATE_SCALARS}"
            )

    def look_sizes(self) -> List[int]:
        """Cumulative replicate counts at which the gate evaluates:
        ``[min_seeds, min_seeds + batch, ..., max_seeds]``."""
        sizes = [self.min_seeds]
        while sizes[-1] < self.max_seeds:
            sizes.append(min(self.max_seeds, sizes[-1] + self.batch))
        return sizes

    def looks(self) -> int:
        return len(self.look_sizes())

    def look_quantile(self) -> float:
        """The t-quantile probability each look uses: Bonferroni
        spending of ``1 - confidence`` across all possible looks."""
        alpha = (1.0 - self.confidence) / self.looks()
        return 1.0 - alpha / 2.0


def _jsonable(value: Any) -> Any:
    """Axis values as JSON-serializable report entries (fault plans and
    other rich axis objects degrade to their string form)."""
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


@dataclass
class _ArmState:
    """Internal per-arm ledger of the scheduler."""

    axes: Dict[str, Any]
    seeds: List[int] = field(default_factory=list)
    outcomes: List[SweepOutcome] = field(default_factory=list)
    met: bool = False
    capped: bool = False
    looks: int = 0
    #: Last-look gate readout: scalar -> mean/sd/halfwidth/rel_halfwidth.
    scalars: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def key(self) -> str:
        if not self.axes:
            return "base"
        return ";".join(f"{k}={_jsonable(v)}" for k, v in self.axes.items())

    @property
    def results(self) -> List[ExperimentResult]:
        return [o.result for o in self.outcomes]

    def report_entry(self) -> Dict[str, Any]:
        worst = max(
            (s["rel_halfwidth"] for s in self.scalars.values()),
            default=0.0,
        )
        return {
            "key": self.key,
            "axes": {k: _jsonable(v) for k, v in self.axes.items()},
            "seeds": list(self.seeds),
            "met": self.met,
            "capped": self.capped,
            "looks": self.looks,
            "worst_rel_halfwidth": worst,
            "scalars": {k: dict(v) for k, v in self.scalars.items()},
        }


@dataclass
class PrecisionReport:
    """What an adaptive run spent and what precision it bought.

    ``arms`` entries carry the allocated seed list, the met/capped
    verdict, and the final per-scalar mean / sd / half-width /
    relative half-width; ``deltas`` the CRN-paired protocol
    differences (mean, paired-t half-width, and the variance-reduction
    factor over an unpaired comparison).  The report stays this object
    on ``SweepRun.precision`` and ``FigureData.precision``;
    :meth:`to_dict` is the form exported with figures and served over
    HTTP.  It deliberately omits ``executed``/``cached`` — those count
    cache traffic, and the export must stay a pure function of the
    config grid so that a warm-cache re-run is byte-identical to the
    cold one.
    """

    policy: ReplicationPolicy
    arms: List[Dict[str, Any]]
    deltas: List[Dict[str, Any]]
    looks: int
    total_runs: int
    #: Cache accounting of this particular execution (not exported).
    executed: int
    cached: int

    @property
    def all_met(self) -> bool:
        return all(a["met"] for a in self.arms)

    @property
    def used_seeds(self) -> List[int]:
        return sorted({s for a in self.arms for s in a["seeds"]})

    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": asdict(self.policy),
            "looks": self.looks,
            "planned_looks": self.policy.looks(),
            "total_runs": self.total_runs,
            "all_met": self.all_met,
            "arms": [dict(a) for a in self.arms],
            "deltas": [dict(d) for d in self.deltas],
        }

    @classmethod
    def merge(
        cls, parts: Sequence[Tuple[str, "PrecisionReport"]]
    ) -> "PrecisionReport":
        """One report over several adaptive sweeps run under one policy,
        each given as ``(label, report)``: every arm key, and both arm
        keys of every delta, become ``{label};{key}``."""
        return cls(
            policy=parts[0][1].policy,
            arms=[
                {**arm, "key": f"{label};{arm['key']}"}
                for label, report in parts
                for arm in report.arms
            ],
            deltas=[
                {**delta, "arms": [f"{label};{k}" for k in delta["arms"]]}
                for label, report in parts
                for delta in report.deltas
            ],
            looks=max(report.looks for _, report in parts),
            total_runs=sum(report.total_runs for _, report in parts),
            executed=sum(report.executed for _, report in parts),
            cached=sum(report.cached for _, report in parts),
        )

    def summary(self) -> str:
        p = self.policy
        lines = [
            f"adaptive: {self.total_runs} run(s) ({self.executed} simulated, "
            f"{self.cached} cached) over "
            f"{self.looks}/{p.looks()} look(s); target ±{p.target_ci:.3g} "
            f"rel @ {p.confidence:.0%} on {', '.join(p.gate_scalars)}"
        ]
        for arm in self.arms:
            verdict = (
                "met" if arm["met"]
                else "CAPPED" if arm["capped"] else "pending"
            )
            lines.append(
                f"  {arm['key']:<28} seeds={len(arm['seeds']):<3d} "
                f"{verdict:<7} worst rel half-width "
                f"{arm['worst_rel_halfwidth']:.4f}"
            )
        for delta in self.deltas:
            a, b = delta["arms"]
            parts = []
            for name, s in delta["scalars"].items():
                gain = s.get("crn_gain")
                gain_txt = f", CRN gain {gain:.1f}x" if gain else ""
                parts.append(
                    f"{name} {s['mean']:+.4g} ± {s['halfwidth']:.3g}"
                    f"{gain_txt}"
                )
            lines.append(
                f"  Δ {a} − {b} ({delta['pairs']} paired seeds): "
                + "; ".join(parts)
            )
        return "\n".join(lines)


#: ``on_round(info)`` — called after every gate evaluation with the
#: allocation snapshot (look number, per-arm seed counts, verdicts).
RoundFn = Callable[[Dict[str, Any]], None]


class AdaptiveRunner:
    """A drop-in ``run(spec)`` engine that allocates the seed axis
    adaptively.

    Wraps an ordinary :class:`SweepRunner` (built fresh when omitted)
    whose pool, cache, timeout, and progress callback execute every
    point; this class only decides *which* points exist.  Specs
    without a ``seed`` axis pass through unchanged.  After each
    :meth:`run`, :attr:`last_report` holds the
    :class:`PrecisionReport` (also attached to the returned run as
    ``SweepRun.precision``).
    """

    def __init__(
        self,
        policy: ReplicationPolicy,
        runner: Optional[SweepRunner] = None,
        on_round: Optional[RoundFn] = None,
    ) -> None:
        self.policy = policy
        self.runner = runner if runner is not None else SweepRunner()
        self.on_round = on_round
        self.last_report: Optional[PrecisionReport] = None

    def run(self, spec: SweepSpec) -> SweepRun:
        if "seed" not in spec.axes:
            return self.runner.run(spec)
        run, self.last_report = self._run_adaptive(spec)
        return run

    def _seed_pool(self, spec: SweepSpec) -> List[int]:
        """The shared ordered seed pool: the spec's seed axis, truncated
        to the cap or extended with consecutive seeds up to it."""
        pool = list(spec.axes["seed"])[: self.policy.max_seeds]
        while len(pool) < self.policy.max_seeds:
            pool.append(pool[-1] + 1)
        return pool

    def _run_adaptive(
        self, spec: SweepSpec
    ) -> Tuple[SweepRun, PrecisionReport]:
        policy = self.policy
        pool = self._seed_pool(spec)
        arm_names = [k for k in spec.axes if k != "seed"]
        arms = [
            _ArmState(axes=dict(zip(arm_names, combo)))
            for combo in itertools.product(
                *(spec.axes[k] for k in arm_names)
            )
        ]
        quantile = policy.look_quantile()
        active = list(arms)
        looks_taken = 0
        for look, n in enumerate(policy.look_sizes(), start=1):
            if not active:
                break
            # Allocate this look's batch to every still-active arm and
            # run it as one point list (full pool parallelism across
            # arms; cache hits short-circuit).
            batch: List[Tuple[_ArmState, int, SweepPoint]] = []
            for arm in active:
                for seed in pool[len(arm.seeds):n]:
                    coords = {**arm.axes, "seed": seed}
                    batch.append((
                        arm,
                        seed,
                        SweepPoint(
                            index=len(batch),
                            axes=coords,
                            config=resolve_config(
                                spec.base, coords, spec.scale
                            ),
                        ),
                    ))
            chunk = self.runner.run_points(
                spec, [point for _, _, point in batch]
            )
            for (arm, seed, _), outcome in zip(batch, chunk.outcomes):
                arm.seeds.append(seed)
                arm.outcomes.append(outcome)
            looks_taken = look
            still: List[_ArmState] = []
            for arm in active:
                arm.looks += 1
                self._evaluate(arm, quantile)
                if arm.met:
                    continue
                if n >= policy.max_seeds:
                    arm.capped = True
                else:
                    still.append(arm)
            if self.on_round is not None:
                self.on_round({
                    "look": look,
                    "n": n,
                    "seeds": {a.key: len(a.seeds) for a in arms},
                    "met": [a.key for a in arms if a.met],
                    "capped": [a.key for a in arms if a.capped],
                    "active": [a.key for a in still],
                })
            active = still
        report = self._report(spec, arms, looks_taken)
        outcomes: List[SweepOutcome] = []
        for arm in arms:
            for outcome in arm.outcomes:
                outcome.point = replace(
                    outcome.point, index=len(outcomes)
                )
                outcomes.append(outcome)
        return SweepRun(spec=spec, outcomes=outcomes, precision=report), report

    def _evaluate(self, arm: _ArmState, quantile: float) -> None:
        """One gate look: spending-corrected t half-widths on the
        gated scalars; ``met`` iff all are inside the target."""
        summary = summarize_scalars(arm.results)
        n = len(arm.results)
        crit = t_quantile(quantile, n - 1)
        arm.scalars = {}
        for name in self.policy.gate_scalars:
            mean, sd = summary[name]
            halfwidth = crit * sd / math.sqrt(n)
            rel = (
                0.0 if halfwidth == 0.0
                else halfwidth / max(abs(mean), _REL_FLOOR)
            )
            arm.scalars[name] = {
                "mean": mean,
                "sd": sd,
                "halfwidth": halfwidth,
                "rel_halfwidth": rel,
            }
        arm.met = all(
            s["rel_halfwidth"] <= self.policy.target_ci
            for s in arm.scalars.values()
        )

    def _report(
        self, spec: SweepSpec, arms: List[_ArmState], looks: int
    ) -> PrecisionReport:
        return PrecisionReport(
            policy=self.policy,
            arms=[arm.report_entry() for arm in arms],
            deltas=self._deltas(arms),
            looks=looks,
            total_runs=sum(len(a.seeds) for a in arms),
            executed=sum(
                1 for a in arms for o in a.outcomes if not o.cached
            ),
            cached=sum(
                1 for a in arms for o in a.outcomes if o.cached
            ),
        )

    def _deltas(self, arms: List[_ArmState]) -> List[Dict[str, Any]]:
        """CRN-paired protocol differences.

        Arms sharing every non-protocol coordinate pair up; their
        common seed prefix gives matched realizations, so the delta CI
        comes from the paired per-seed differences.  ``crn_gain`` is
        the ratio of the unpaired (independent-samples) half-width to
        the paired one — how much variance the shared randomness
        removed.
        """
        if not arms or "protocol" not in arms[0].axes:
            return []

        def rest_key(arm: _ArmState) -> str:
            return ";".join(
                f"{k}={_jsonable(v)}"
                for k, v in arm.axes.items()
                if k != "protocol"
            )

        groups: Dict[str, List[_ArmState]] = {}
        for arm in arms:
            groups.setdefault(rest_key(arm), []).append(arm)
        deltas: List[Dict[str, Any]] = []
        for group in groups.values():
            for a, b in itertools.combinations(group, 2):
                pairs = min(len(a.seeds), len(b.seeds))
                if pairs < 2:
                    continue
                # Per-seed scalar readouts through the same reducer the
                # gate uses (a 1-sample summary's mean IS the value).
                va = [
                    {k: v[0] for k, v in summarize_scalars([r]).items()}
                    for r in a.results[:pairs]
                ]
                vb = [
                    {k: v[0] for k, v in summarize_scalars([r]).items()}
                    for r in b.results[:pairs]
                ]
                scalars: Dict[str, Dict[str, Any]] = {}
                crit = t_quantile(
                    0.5 + self.policy.confidence / 2.0, pairs - 1
                )
                for name in self.policy.gate_scalars:
                    diffs = [
                        va[i][name] - vb[i][name] for i in range(pairs)
                    ]
                    mean_d = sum(diffs) / pairs
                    hw_d = ci_halfwidth(diffs, self.policy.confidence)
                    var_a = sample_variance([v[name] for v in va])
                    var_b = sample_variance([v[name] for v in vb])
                    hw_ind = crit * math.sqrt((var_a + var_b) / pairs)
                    scalars[name] = {
                        "mean": mean_d,
                        "halfwidth": hw_d,
                        "crn_gain": (
                            hw_ind / hw_d if hw_d > 0.0 else None
                        ),
                    }
                deltas.append({
                    "arms": [a.key, b.key],
                    "pairs": pairs,
                    "scalars": scalars,
                })
        return deltas


def adaptive_sweep(
    spec: SweepSpec,
    policy: ReplicationPolicy,
    runner: Optional[SweepRunner] = None,
    on_round: Optional[RoundFn] = None,
) -> Tuple[SweepRun, PrecisionReport]:
    """Run ``spec`` under ``policy`` and return ``(run, report)``.

    Convenience wrapper over :class:`AdaptiveRunner` for one-shot use;
    a runner passed in is *not* shut down (the caller owns it), while
    the default inline runner needs no teardown.
    """
    engine = AdaptiveRunner(policy, runner=runner, on_round=on_round)
    run = engine.run(spec)
    report = engine.last_report
    if report is None:
        raise ValueError(
            f"spec {spec.name!r} has no 'seed' axis; adaptive replication "
            f"allocates seeds and needs one (add axes={{'seed': [1]}})"
        )
    return run, report
