"""The kernel profiler: attribution, totals, and loop equivalence."""

from repro.des.core import Simulator
from repro.des.timer import Timer
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_network, run_experiment
from repro.perf.profile import KernelProfiler, callback_name
from repro.perf.trace import TraceRecorder, state_digest_record

CONFIG = ExperimentConfig(
    protocol="ecgrid",
    n_hosts=20,
    width_m=450.0,
    height_m=450.0,
    sim_time_s=60.0,
    n_flows=3,
    max_speed_mps=2.0,
    initial_energy_j=30.0,
    seed=3,
)


def test_profiler_attributes_reference_run():
    profiler = KernelProfiler()
    result = run_experiment(CONFIG, instruments=(profiler,))
    # Every dispatched event was seen and bucketed.
    assert profiler.events == result.events_executed
    assert sum(b.count for b in profiler.categories.values()) == profiler.events
    # The acceptance bar: >=90% of callback time lands in a named
    # category (not an ``other:`` bucket).
    assert profiler.attribution >= 0.90, (
        f"only {profiler.attribution * 100:.1f}% of callback time "
        f"attributed; categories: {sorted(profiler.categories)}"
    )
    # The busy categories a reference run must exhibit.
    for expected in ("mac", "medium-completion", "hello-beacon"):
        assert expected in profiler.categories, sorted(profiler.categories)
    assert profiler.wall_seconds > 0.0
    assert 0.0 < profiler.callback_seconds <= profiler.wall_seconds
    assert profiler.heap_high_water > 0
    assert profiler.events_per_sec() > 0.0


def test_profiler_report_and_dict_round_trip():
    profiler = KernelProfiler()
    run_experiment(CONFIG, instruments=(profiler,))
    report = profiler.report()
    assert "events/sec" in report
    assert "heap high-water" in report
    assert "attribution" in report
    data = profiler.to_dict()
    assert data["events"] == profiler.events
    assert data["heap_high_water"] == profiler.heap_high_water
    assert set(data["categories"]) == set(profiler.categories)


def test_cprofile_capture_smoke():
    profiler = KernelProfiler(cprofile=True)
    run_experiment(CONFIG, instruments=(profiler,))
    stats = profiler.cprofile_stats(limit=5)
    assert "function calls" in stats


def test_instrumented_loop_matches_fast_loop():
    """Attaching instruments must not change what the kernel computes:
    the fast and instrumented run loops land on the same end state."""
    fast = build_network(CONFIG)
    fast.run(until=CONFIG.sim_time_s)

    observed = build_network(CONFIG)
    recorder = TraceRecorder()
    observed.run(
        until=CONFIG.sim_time_s, instruments=(KernelProfiler(), recorder)
    )
    assert state_digest_record(fast) == state_digest_record(observed)
    assert recorder.events == fast.sim.events_executed


def test_callback_name_is_stable():
    assert callback_name(CONFIG.cache_key) == "ExperimentConfig.cache_key"
    class Cb:
        def __call__(self):  # pragma: no cover
            pass
    assert callback_name(Cb()) == "Cb"


class _SpanLikeProtocol:
    """SPAN's two one-shot timer callbacks, which the category rules
    tell apart: ``_announce_check`` is a hello-beacon, ``_window_open``
    falls through to the protocol bucket."""

    def _announce_check(self):
        pass

    def _window_open(self):
        pass


def test_one_shot_timers_are_bucketed_by_their_callback():
    """Every one-shot timer dispatches as ``Timer._fire``; each must
    still land in the bucket of the callback it wraps."""
    sim = Simulator()
    owner = _SpanLikeProtocol()
    Timer(sim, owner._announce_check).start(1.0)
    Timer(sim, owner._window_open).start(2.0)
    profiler = KernelProfiler()
    sim.instrument(profiler)
    sim.run()
    counts = {c: b.count for c, b in profiler.categories.items()}
    assert counts == {"hello-beacon": 1, "protocol": 1}
