"""The kernel equivalence harness.

``tests/data/golden_kernel.json`` pins the exact dispatch-sequence and
end-state digests the *pre-optimization* seed kernel produced for nine
reference scenarios (3 protocols x 3 seeds).  These tests rerun each
scenario on the current kernel and require bit-for-bit agreement, which
is the proof obligation for every hot-path optimization: same events,
same order, same floating-point state — not merely "similar metrics".

``tests/data/golden_fig5.json`` additionally pins one full figure
export, so the sweep/figure pipeline above the kernel is covered too.

``tests/data/golden_trace_streams.json`` pins what the protocol tracer
emits on the same nine scenarios: every event of every category, in
emission order, hashed with its time, name, node and fields.  A
refactor of an emit site that reorders, drops or reshapes an event
moves that digest even when the dispatch sequence stays put.

Regenerating (only after an *intentional* semantic change, from a
checkout whose behaviour is the new reference)::

    PYTHONPATH=src:tests python tests/perf/test_golden_trace.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_network
from repro.obs.trace import CATEGORIES, Tracer
from repro.perf.trace import (
    TRACE_SCHEMA,
    TraceRecorder,
    golden_run,
    state_digest,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
GOLDEN = json.loads((DATA_DIR / "golden_kernel.json").read_text())
STREAMS = json.loads((DATA_DIR / "golden_trace_streams.json").read_text())

#: The pinned scenario shape (small enough to run 9x in tier-1, busy
#: enough to exercise MAC contention, sleep cycling, and node death).
PROTOCOLS = ("ecgrid", "grid", "gaf")
SEEDS = (1, 2, 3)


def scenario_config(protocol: str, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        protocol=protocol,
        n_hosts=24,
        width_m=500.0,
        height_m=500.0,
        sim_time_s=80.0,
        n_flows=4,
        max_speed_mps=2.0,
        initial_energy_j=40.0,
        seed=seed,
    )


def test_golden_file_schema_matches_code():
    assert GOLDEN["schema"] == TRACE_SCHEMA
    assert len(GOLDEN["scenarios"]) == len(PROTOCOLS) * len(SEEDS)


@pytest.mark.parametrize(
    "scenario",
    GOLDEN["scenarios"],
    ids=lambda sc: f"{sc['protocol']}-seed{sc['seed']}",
)
def test_kernel_reproduces_golden_digests(scenario):
    config = scenario_config(scenario["protocol"], scenario["seed"])
    trace, state, record = golden_run(config)
    assert record["events_executed"] == scenario["events_executed"]
    assert trace == scenario["trace_sha256"], (
        "dispatch sequence diverged from the golden kernel — some "
        "optimization changed event order or timing"
    )
    assert state == scenario["state_sha256"], (
        "end-of-run state diverged from the golden kernel (same "
        "dispatch order, different arithmetic?)"
    )


@pytest.mark.parametrize(
    "scenario",
    GOLDEN["scenarios"],
    ids=lambda sc: f"{sc['protocol']}-seed{sc['seed']}",
)
def test_sliced_horizon_reproduces_golden_digests(scenario):
    """``ecgrid watch`` runs the calendar to the horizon in windows.  The
    heap pops the same (time, priority, seq) order however the horizon
    is sliced, so the windowed run must match the one-call digests."""
    config = scenario_config(scenario["protocol"], scenario["seed"])
    network = build_network(config)
    network.start()
    recorder = TraceRecorder()
    network.sim.instrument(recorder)
    t = 0.0
    while t < config.sim_time_s:
        t = min(t + 1.0, config.sim_time_s)
        network.sim.run(until=t)
    network.sim.uninstrument(recorder)
    network.sampler.sample()
    assert network.sim.events_executed == scenario["events_executed"]
    assert recorder.digest() == scenario["trace_sha256"]
    assert state_digest(network) == scenario["state_sha256"]
    network.close()


class _StreamDigest:
    """Tracer subscriber hashing every event in emission order.

    Each packet uid is hashed as its run-local ordinal (order of first
    appearance), so the digest does not depend on how uids are
    numbered.
    """

    categories = CATEGORIES

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._uids = {}
        self.events = 0

    def on_event(self, event) -> None:
        values = event.fields
        if "uid" in values:
            values = dict(values)
            values["uid"] = self._uids.setdefault(values["uid"], len(self._uids))
        fields = {k: repr(values[k]) for k in sorted(values)}
        self._hash.update(
            json.dumps([repr(event.t), event.name, event.node, fields]).encode()
        )
        self.events += 1

    def digest(self) -> str:
        return self._hash.hexdigest()


def trace_stream_run(config: ExperimentConfig):
    """Run one scenario with every trace category on; return (events
    traced, their digest, events dispatched)."""
    network = build_network(config)
    tracer = Tracer()
    stream = _StreamDigest()
    tracer.subscribe(stream)
    network.attach_tracer(tracer)
    network.run(until=config.sim_time_s)
    executed = network.sim.events_executed
    network.close()
    return stream.events, stream.digest(), executed


@pytest.mark.parametrize(
    "scenario",
    STREAMS["scenarios"],
    ids=lambda sc: f"{sc['protocol']}-seed{sc['seed']}",
)
def test_trace_stream_reproduces_golden_digest(scenario):
    config = scenario_config(scenario["protocol"], scenario["seed"])
    count, digest, executed = trace_stream_run(config)
    kernel = next(
        sc for sc in GOLDEN["scenarios"]
        if (sc["protocol"], sc["seed"]) == (scenario["protocol"], scenario["seed"])
    )
    # Tracing observes only: the dispatch count is the untraced one.
    assert executed == kernel["events_executed"]
    assert count == scenario["trace_events"]
    assert digest == scenario["stream_sha256"], (
        "the traced event stream diverged — an emit site now reorders, "
        "drops or reshapes an event"
    )


def test_fig5_export_byte_identical():
    """One pinned figure, through the full sweep pipeline, to the byte."""
    from repro.experiments import figures
    from repro.experiments.export import figure_to_json
    from repro.experiments.sweep import SweepRunner

    golden = (DATA_DIR / "golden_fig5.json").read_text()
    fig = figures.figure(
        "fig5",
        speed=1.0,
        scale=0.12,
        seed=1,
        seeds=1,
        runner=SweepRunner(workers=0, cache=None),
    )
    assert figure_to_json(fig) == golden


def _regenerate() -> None:  # pragma: no cover
    scenarios = []
    for protocol in PROTOCOLS:
        for seed in SEEDS:
            trace, state, record = golden_run(scenario_config(protocol, seed))
            scenarios.append(
                {
                    "protocol": protocol,
                    "seed": seed,
                    "events_executed": record["events_executed"],
                    "trace_sha256": trace,
                    "state_sha256": state,
                }
            )
            print(f"{protocol} seed {seed}: {record['events_executed']} events")
    out = DATA_DIR / "golden_kernel.json"
    out.write_text(
        json.dumps({"schema": TRACE_SCHEMA, "scenarios": scenarios}, indent=1)
        + "\n"
    )
    print(f"wrote {out}")
    streams = []
    for protocol in PROTOCOLS:
        for seed in SEEDS:
            count, digest, _ = trace_stream_run(scenario_config(protocol, seed))
            streams.append(
                {
                    "protocol": protocol,
                    "seed": seed,
                    "trace_events": count,
                    "stream_sha256": digest,
                }
            )
            print(f"{protocol} seed {seed}: {count} trace events")
    out = DATA_DIR / "golden_trace_streams.json"
    out.write_text(json.dumps({"scenarios": streams}, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
