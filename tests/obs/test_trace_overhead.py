"""Tier-2 budget on what tracing costs.

Runs a dense 500-host ECGRID scenario at the paper's host density
(500 hosts on a 2236 m square, 10 flows, 60 s, seed 1) in
:data:`PAIRS` pairs of one untraced run and one run with a
default-category :class:`~repro.obs.trace.Tracer` attached (every
category on).  Each run is timed in CPU time around ``run_experiment``,
and the pairs alternate which side runs first, so a shift in machine
speed falls on both sides; the verdict is the median per-pair ratio.
Tracing must never perturb the schedule, so the event counts must
match exactly, and it may cost at most :data:`BUDGET` of extra CPU time.

Run with ``python -m pytest -m tier2 tests/obs/test_trace_overhead.py -s``
to see every pair and the verdict.
"""

import statistics
import time

import pytest

from repro.api import ExperimentConfig, run_experiment
from repro.obs import Tracer

pytestmark = pytest.mark.tier2

#: Tracing may cost at most this fraction of extra CPU time.
BUDGET = 0.15

SCENARIO = ExperimentConfig(
    protocol="ecgrid", n_hosts=500, width_m=2236.0, height_m=2236.0,
    n_flows=10, sim_time_s=60.0, seed=1,
)

PAIRS = 5


def _timed(traced):
    """``(CPU seconds, events executed)`` of one run."""
    start = time.process_time()
    result = run_experiment(SCENARIO, tracer=Tracer() if traced else None)
    return time.process_time() - start, result.events_executed


def test_tracing_stays_within_the_overhead_budget():
    ratios = []
    for i in range(PAIRS):
        order = (False, True) if i % 2 == 0 else (True, False)
        runs = {traced: _timed(traced) for traced in order}
        (off_s, events), (on_s, on_events) = runs[False], runs[True]
        assert on_events == events, (
            f"tracing changed the event count: {events} "
            f"untraced vs {on_events} traced"
        )
        ratios.append(on_s / off_s)
        print(
            f"pair {i + 1}: {off_s:.2f}s untraced, {on_s:.2f}s traced "
            f"({(on_s / off_s - 1.0) * 100:+.1f}%)"
        )
    overhead = statistics.median(ratios) - 1.0
    report = (
        f"trace overhead {overhead * 100:+.1f}% (median of {PAIRS} "
        f"pairs, budget {BUDGET * 100:.0f}%, {events} events)"
    )
    print(report)
    assert overhead <= BUDGET, report
