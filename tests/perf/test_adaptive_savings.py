"""Tier-2 guard on the adaptive-replication savings claim.

Compares, on the fig4-lifetime workload (docs/performance.md), an
adaptive pass under a pinned policy with a fixed grid sized to the
worst arm's final seed count: the grid a non-adaptive design must
budget for the same worst-arm precision, since it cannot size arms
individually.  The headline claim — ≥2x fewer runs at matched
worst-arm precision — must keep holding as the simulator and the
scheduler evolve.
"""

import pytest

from repro.api import (
    AdaptiveRunner,
    ExperimentConfig,
    ReplicationPolicy,
    SweepRunner,
    SweepSpec,
)

pytestmark = pytest.mark.tier2

#: The paper's Fig. 4 lifetime sweep at scale 0.12.  GRID and ECGRID
#: die nearly deterministically while GAF's first death is noisy, so
#: adaptivity concentrates seeds on one arm.
FIG4_LIFETIME = SweepSpec(
    name="fig4-lifetime",
    base=ExperimentConfig(max_speed_mps=1.0, pause_time_s=0.0),
    axes={"protocol": ["grid", "ecgrid", "gaf"], "seed": [1]},
    scale=0.12,
)

#: Gates ``first_death_s``, the paper's lifetime claim, at ±6 %.
POLICY = ReplicationPolicy(
    target_ci=0.06, min_seeds=3, max_seeds=16, batch=2,
    gate_scalars=("first_death_s",),
)


def _precision(policy):
    """Run the sweep under ``policy``, serial and uncached; its report."""
    runner = AdaptiveRunner(policy, SweepRunner(workers=0, cache=None))
    runner.run(FIG4_LIFETIME)
    return runner.last_report


def test_fig4_adaptive_halves_the_run_count():
    adaptive = _precision(POLICY)
    seeds = {a["key"]: len(a["seeds"]) for a in adaptive.arms}
    met = [a["key"] for a in adaptive.arms if a["met"]]
    capped = [a["key"] for a in adaptive.arms if a["capped"]]
    # The comparison is meaningful: the scheduler actually stopped the
    # quiet arms early instead of running everything to the cap.
    assert met, f"arms missed the target: {adaptive.arms}"
    assert not capped
    assert min(seeds.values()) < max(seeds.values()), (
        "no allocation asymmetry left to exploit: " + repr(seeds)
    )
    # The fixed design matches the worst arm's precision: target_ci=0
    # never stops early, so it is one look of n_fixed seeds per arm...
    n_fixed = max(seeds.values())
    fixed = _precision(ReplicationPolicy(
        target_ci=0.0,
        min_seeds=n_fixed,
        max_seeds=n_fixed,
        batch=1,
        confidence=POLICY.confidence,
        gate_scalars=POLICY.gate_scalars,
    ))
    assert fixed.total_runs == n_fixed * len(seeds)
    # ...and costs at least twice the runs.  No wall-clock assertion:
    # on this workload the skipped runs are the cheap arms' (see the
    # "Measured numbers" caveats in docs/performance.md).
    run_ratio = fixed.total_runs / adaptive.total_runs
    assert run_ratio >= 2.0, (seeds, fixed.total_runs, adaptive.total_runs)
