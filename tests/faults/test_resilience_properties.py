"""Tier-2 stress properties: across seeds and fault intensities the
protocol invariants recover after the adversity ends, and the paging
buffers obey the fixed bookkeeping throughout the run.

These sweep a grid of faulted scenarios and are deliberately excluded
from the tier-1 suite (see ``[tool.pytest.ini_options]`` markers); run
them with ``pytest -m tier2``.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_network, run_experiment
from repro.experiments.validate import InvariantChecker
from repro.faults.plan import standard_fault_plan

pytestmark = pytest.mark.tier2

TINY = dict(
    n_hosts=10, width_m=300.0, height_m=300.0, n_flows=3,
    sim_time_s=40.0, initial_energy_j=80.0, sample_interval_s=1.0,
)


def faulted_config(seed: int, intensity: float) -> ExperimentConfig:
    plan = standard_fault_plan(
        intensity,
        sim_time_s=TINY["sim_time_s"],
        width_m=TINY["width_m"],
        height_m=TINY["height_m"],
        n_hosts=TINY["n_hosts"],
        initial_energy_j=TINY["initial_energy_j"],
    )
    return ExperimentConfig(protocol="ecgrid", seed=seed, faults=plan, **TINY)


def check_page_buffers(network, failures):
    """The fixed bookkeeping, checked live: a non-empty gateway buffer
    always has a flush in flight, and only on a living host."""
    for node in network.nodes:
        paging = getattr(node.protocol, "_paging", None)
        if paging is None or not paging.buffers:
            continue
        for dest, buf in paging.buffers.items():
            if not buf:
                continue
            if not node.alive:
                failures.append(
                    f"t={network.sim.now}: dead node {node.id} still "
                    f"buffers for {dest}"
                )
            if dest not in paging.flush_pending:
                failures.append(
                    f"t={network.sim.now}: node {node.id} buffers for "
                    f"{dest} with no flush in flight"
                )


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("intensity", [0.25, 0.75])
def test_invariants_recover_and_buffers_never_stick(seed, intensity):
    config = faulted_config(seed, intensity)
    network = build_network(config)
    checker = InvariantChecker(network, interval_s=config.sample_interval_s)
    failures: list = []

    def tick():
        check_page_buffers(network, failures)
        network.sim.after(0.5, tick, priority=102)

    network.sim.after(0.5, tick, priority=102)
    network.start()
    network.sim.run(until=config.sim_time_s)

    assert failures == []
    # The standard plan's last adversity window closes at 0.75 * T;
    # after it the single-gateway invariant must be observed intact.
    settle_at = 0.80 * config.sim_time_s
    report = checker.report
    assert report.samples > 0
    assert report.first_clean_at_or_after(settle_at) is not None, (
        f"no violation-free sample after t={settle_at}: "
        f"{report.violations[-5:]}"
    )


@pytest.mark.parametrize("seed", [11, 12])
def test_faulted_runs_stay_deterministic_across_seeds(seed):
    config = faulted_config(seed, 0.5)
    a = run_experiment(config)
    b = run_experiment(config)
    assert a.delivery_rate == b.delivery_rate
    assert a.recovery == b.recovery
    assert a.drop_reasons == b.drop_reasons
    assert a.events_executed == b.events_executed
