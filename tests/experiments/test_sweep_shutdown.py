"""SweepRunner pool lifecycle: every pooled run releases its pool, and
an aborted run abandons it without blocking."""

import multiprocessing
import time

import pytest

from repro.api import ExperimentConfig, SweepRunner, SweepSpec

TINY = ExperimentConfig(
    protocol="grid", n_hosts=6, width_m=250.0, height_m=250.0,
    n_flows=1, sim_time_s=5.0, initial_energy_j=50.0, seed=4,
)


def tiny_spec(n_seeds=2, name="shutdown"):
    return SweepSpec(
        name=name, base=TINY, axes={"seed": list(range(1, n_seeds + 1))}
    )


def test_pooled_run_releases_pool_by_default():
    before = set(multiprocessing.active_children())
    run = SweepRunner(workers=2).run(tiny_spec())
    assert run.executed == 2
    # A clean run joins its workers before returning.
    assert set(multiprocessing.active_children()) <= before


def test_abort_mid_sweep_abandons_pool_without_blocking():
    """A progress callback aborting the sweep (the job server's cancel
    path) must not hang in the executor join, and the runner stays
    usable."""
    def bomb(done, total, outcome):
        raise KeyboardInterrupt("abort between points")

    runner = SweepRunner(workers=2, progress=bomb)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        runner.run(tiny_spec(n_seeds=4))
    assert time.perf_counter() - t0 < 30.0
    runner.progress = None
    run = runner.run(tiny_spec(name="shutdown-after-abort"))
    assert run.executed == 2
