"""Tier-2 budget on what tracing costs.

Runs a dense 500-host ECGRID scenario at the paper's host density
(500 hosts on a 2236 m square, 10 flows, 60 s, seed 1) twice untraced
and twice with a default-category :class:`~repro.obs.trace.Tracer`
attached (the ``sim`` category stays off), and compares the fastest
run of each: event counts are deterministic, so the minimum is the run
least perturbed by scheduler noise.  Tracing must never perturb the
schedule, so the event counts must match exactly, and it may cost at
most :data:`BUDGET` of extra wall time.

Run with ``python -m pytest -m tier2 tests/obs/test_trace_overhead.py -s``
to see the measured overhead.
"""

import pytest

from repro.api import ExperimentConfig, run_experiment
from repro.obs import Tracer

pytestmark = pytest.mark.tier2

#: Tracing may cost at most this fraction of extra wall time.
BUDGET = 0.15

SCENARIO = ExperimentConfig(
    protocol="ecgrid", n_hosts=500, width_m=2236.0, height_m=2236.0,
    n_flows=10, sim_time_s=60.0, seed=1,
)

REPEATS = 2


def _fastest(traced):
    runs = [
        run_experiment(SCENARIO, tracer=Tracer() if traced else None)
        for _ in range(REPEATS)
    ]
    return min(runs, key=lambda result: result.wall_time_s)


def test_tracing_stays_within_the_overhead_budget():
    off = _fastest(traced=False)
    on = _fastest(traced=True)
    assert on.events_executed == off.events_executed, (
        f"tracing changed the event count: {off.events_executed} "
        f"untraced vs {on.events_executed} traced"
    )
    overhead = on.wall_time_s / off.wall_time_s - 1.0
    report = (
        f"trace overhead {off.wall_time_s:.2f}s -> {on.wall_time_s:.2f}s "
        f"({overhead * 100:+.1f}%, budget {BUDGET * 100:.0f}%, "
        f"{off.events_executed} events)"
    )
    print(report)
    assert overhead <= BUDGET, report
