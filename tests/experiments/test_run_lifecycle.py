"""A finished run frees its network by reference counting alone.

Every owner that throws a network away (``run_experiment``, the sweep
runner) closes it once the result is reduced.  The checks run with the
cyclic collector disabled: the network, its simulator and a node must
already be gone when the call returns, and a collection afterwards must
find no ``repro`` object left in a cycle.
This is the completeness check for :meth:`Network.close`: a new
callback, timer or closure that ties a run into a cycle fails it.
"""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.experiments import runner
from repro.experiments.config import PROTOCOLS, ExperimentConfig
from repro.experiments.sweep import SweepRunner, SweepSpec
from repro.faults.plan import standard_fault_plan
from repro.obs import Tracer


def scenario(protocol="ecgrid", **overrides):
    config = ExperimentConfig(protocol=protocol, seed=3).scaled(0.12)
    if protocol == "gaf":
        # GAF dispatches ~10,000 events per simulated second here; 20 s
        # already passes discovery, active terms, sleeps and demotions.
        config = replace(config, sim_time_s=20.0)
    return replace(config, **overrides)


def faulted():
    c = scenario()
    plan = standard_fault_plan(
        1.0,
        sim_time_s=c.sim_time_s,
        width_m=c.width_m,
        height_m=c.height_m,
        n_hosts=c.n_hosts,
        initial_energy_j=c.initial_energy_j,
    )
    return replace(c, faults=plan)


#: Outlives its run on purpose, as a caller's tracer may.
KEPT_TRACER = Tracer()

RUNS = {
    **{
        p: (lambda p=p: runner.run_experiment(scenario(p)))
        for p in PROTOCOLS
    },
    "ecgrid-faults": lambda: runner.run_experiment(faulted()),
    "ecgrid-partition": lambda: runner.run_experiment(
        scenario(evaluate_partition=True)
    ),
    "ecgrid-kept-tracer": lambda: runner.run_experiment(
        scenario(), tracer=KEPT_TRACER
    ),
    "sweep-serial": lambda: SweepRunner(workers=0).run(
        SweepSpec("lifecycle", base=scenario())
    ),
}


@pytest.fixture
def built(monkeypatch):
    """Weak references to each network the runners build: the network,
    its simulator and its first node."""
    refs = []
    build = runner.build_network

    def capture(config):
        network = build(config)
        refs.append(
            (
                weakref.ref(network),
                weakref.ref(network.sim),
                weakref.ref(network.nodes[0]),
            )
        )
        return network

    monkeypatch.setattr(runner, "build_network", capture)
    return refs


def repro_garbage():
    """Type names of the ``repro`` objects a full collection finds
    unreachable (kept for inspection by ``DEBUG_SAVEALL``)."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sorted(
            {
                type(obj).__qualname__
                for obj in gc.garbage
                if type(obj).__module__.startswith("repro")
            }
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("name", list(RUNS))
def test_finished_run_frees_its_network(name, built):
    gc.collect()
    gc.disable()
    try:
        RUNS[name]()
        assert built, "no network was built"
        alive = [ref for refs in built for ref in refs if ref() is not None]
        assert alive == []
        assert repro_garbage() == []
    finally:
        gc.enable()


def test_kept_tracer_keeps_its_events_not_the_run(built):
    """The caller's tracer holds the events it recorded, never the
    simulator (nor its per-host RNG streams) it was bound to."""
    config = scenario()
    reference = Tracer(categories=("gateway",))
    network = runner.build_network(config)
    network.attach_tracer(reference)
    network.run(until=config.sim_time_s)
    expected = reference.events("gateway")
    assert expected

    tracer = Tracer(categories=("gateway",))
    gc.collect()
    gc.disable()
    try:
        runner.run_experiment(config, tracer=tracer)
        sim = built[-1][1]
        assert sim() is None
    finally:
        gc.enable()
    assert tracer.events("gateway") == expected
