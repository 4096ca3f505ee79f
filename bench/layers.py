"""Outside-in layer attribution for the benchmark's traced pass.

:class:`Layers` wraps the public method at each layer boundary of the
simulator -- PHY medium, RAS paging, CSMA MAC, grid-family protocol,
battery accounting, DES scheduling, result cache -- plus the experiment
runner's build and reduce steps, and restores every original attribute
on :meth:`Layers.remove`.  Nothing under ``src/`` knows it is being
measured: the classes are found by building a toy network through the
public API and reading the types of its parts, and the wrappers must be
installed before the measured networks are built so that bound methods
captured at construction are wrapped too.

Self time comes from a per-thread span stack: a wrapped call's duration
minus the duration of the wrapped calls nested inside it.  Event-loop
callbacks are bucketed by :class:`~repro.perf.profile.KernelProfiler`;
:class:`SplitProfiler` also records, per bucket, the time its callbacks
spent inside wrapped calls, so a bucket's self time is its callback time
minus that nested time.

Hot boundaries keep a count, inclusive time and self time; every
:data:`SAMPLE_EVERY`-th call is also kept as a full span.  Coarse
boundaries (each run, its build, event loop and reduce) are always full
spans.  A span is ``{id, name, start, end, parent, trace}``; ``trace``
is shared by every span of one run.
"""

from __future__ import annotations

import functools
import itertools
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.api as api
from repro.api import ExperimentConfig, ResultCache, SweepRunner, build_network
from repro.perf.profile import KernelProfiler

#: One full span is kept per this many calls of each hot boundary.
SAMPLE_EVERY = 1000

#: Timed boundaries: (stat name, part of a toy network, method).
TIMED = (
    ("phy.transmit", "medium", "transmit"),
    ("phy.carrier_sense", "medium", "channel_busy"),
    ("phy.radios_near", "medium", "radios_near"),
    ("ras.page_host", "ras", "page_host"),
    ("ras.page_grid", "ras", "page_grid"),
    ("mac.send", "mac", "send"),
    ("protocol.on_message", "protocol", "on_message"),
    ("protocol.send_data", "protocol", "send_data"),
    ("energy.set_draw", "monitor", "set_draw"),
    ("cache.get", "cache", "get"),
    ("cache.put", "cache", "put"),
)

#: Count-only boundaries.  ``Simulator.call_soon`` schedules through
#: ``at``, so counting ``at`` and ``after`` counts every schedule once.
COUNTED = (
    ("des.at", "sim", "at"),
    ("des.after", "sim", "after"),
)


def _owner(cls: type, name: str) -> type:
    """The class in ``cls``'s MRO that defines ``name``."""
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {name!r}")


def boundary_methods() -> Dict[str, Tuple[type, str]]:
    """``stat name -> (defining class, method name)`` for every boundary."""
    net = build_network(
        ExperimentConfig(
            n_hosts=8, width_m=300.0, height_m=300.0, n_flows=1, sim_time_s=1.0
        )
    )
    node = net.nodes[0]
    parts = {
        "sim": type(net.sim),
        "medium": type(net.medium),
        "ras": type(net.ras),
        "mac": type(node.mac),
        "monitor": type(node.monitor),
        "protocol": type(node.protocol),
        "cache": ResultCache,
    }
    return {
        name: (_owner(parts[part], method), method)
        for name, part, method in TIMED + COUNTED
    }


class SplitProfiler(KernelProfiler):
    """A :class:`KernelProfiler` that also measures wrapped calls nested
    inside each callback bucket (see the module docstring)."""

    def __init__(self, layers: "Layers") -> None:
        super().__init__()
        self._layers = layers
        self.nested: Dict[str, float] = {}
        self._category_of: Dict[str, str] = {}

    def on_run_begin(self, sim: Any) -> None:
        self._layers._thread().top = 0.0
        super().on_run_begin(sim)

    def on_dispatch(self, event: Any, elapsed: float, queue_len: int) -> None:
        fn = event.fn
        name = getattr(fn, "__qualname__", None) or type(fn).__name__
        category = self._category_of.get(name)
        if category is None:
            # First sighting of this callback: find the bucket the base
            # profiler charged it to; its rule depends on the name alone.
            before = {c: b.count for c, b in self.categories.items()}
            super().on_dispatch(event, elapsed, queue_len)
            category = next(
                c for c, b in self.categories.items()
                if b.count != before.get(c, 0)
            )
            self._category_of[name] = category
        else:
            super().on_dispatch(event, elapsed, queue_len)
        local = self._layers._local
        nested = local.top
        if nested:
            local.top = 0.0
            self.nested[category] = self.nested.get(category, 0.0) + nested


class Layers:
    """Installs the boundary wrappers; a context manager."""

    def __init__(self) -> None:
        self._methods = boundary_methods()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_stats: List[Dict[str, List[float]]] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        self._ids = itertools.count(1)
        #: Full spans, in completion order.
        self.spans: List[Dict[str, Any]] = []
        #: One record per finished run (see :meth:`_reduce_wrapper`).
        self.runs: List[Dict[str, Any]] = []
        #: Summed profiles of every run: bucket -> [count, seconds, nested].
        self.buckets: Dict[str, List[float]] = {}
        self.profile = {"events": 0, "wall_s": 0.0, "callback_s": 0.0,
                        "heap_high_water": 0}

    # -- install / remove ---------------------------------------------
    def install(self) -> "Layers":
        for name, (cls, method) in self._methods.items():
            original = vars(cls)[method]
            make = self._counted if name.startswith("des.") else self._timed
            self._patch(cls, method, make(name, original))
        runner_globals = api.run_experiment.__globals__
        self._patch_global(
            runner_globals, "build_network", self._build_wrapper(runner_globals["build_network"])
        )
        self._patch_global(
            runner_globals,
            "result_from_network",
            self._reduce_wrapper(runner_globals["result_from_network"]),
        )
        # Attach a profiler to every run the API verbs and the sweep
        # runner start (and to direct calls of api.run_experiment).
        for namespace in (vars(api), SweepRunner.run_points.__globals__):
            self._patch_global(
                namespace, "run_experiment", self._profiled(namespace["run_experiment"])
            )
        return self

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Layers":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.remove()

    def _patch(self, cls: type, attr: str, value: Any) -> None:
        self._saved.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, value)

    def _patch_global(self, namespace: Dict[str, Any], attr: str, value: Any) -> None:
        self._saved.append((namespace, attr, namespace[attr]))
        namespace[attr] = value

    # -- per-thread state ---------------------------------------------
    def _thread(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.top = 0.0
            local.trace = None
            local.run = None
            local.stats = {name: [0, 0.0, 0.0] for name in self._methods}
            with self._lock:
                self._thread_stats.append(local.stats)
        return local

    def stats(self) -> Dict[str, List[float]]:
        """``name -> [calls, inclusive s, self s]`` summed over threads."""
        out = {name: [0, 0.0, 0.0] for name in self._methods}
        with self._lock:
            for per_thread in self._thread_stats:
                for name, (calls, incl, own) in per_thread.items():
                    total = out[name]
                    total[0] += calls
                    total[1] += incl
                    total[2] += own
        return out

    def span(self, name: str, start: float, end: float,
             parent: Optional[int] = None, trace: Optional[str] = None) -> int:
        """Record one full span; returns its id."""
        span_id = next(self._ids)
        self.spans.append({"id": span_id, "name": name, "start": start,
                           "end": end, "parent": parent, "trace": trace})
        return span_id

    # -- wrappers -------------------------------------------------------
    def _counted(self, name: str, fn: Callable) -> Callable:
        local = self._local
        thread = self._thread

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                local.stats[name][0] += 1
            except AttributeError:
                thread().stats[name][0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name: str, fn: Callable) -> Callable:
        local = self._local
        thread = self._thread
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = thread().stack
            entry = [0.0, name]
            stack.append(entry)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                stat = local.stats[name]
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - entry[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    local.top += dt
                if stat[0] % SAMPLE_EVERY == 1:
                    run = local.run
                    spans.append({
                        "id": next(ids), "name": name, "start": t0, "end": t1,
                        "parent": run["loop_id"] if run else None,
                        "within": stack[-1][1] if stack else None,
                        "trace": local.trace,
                    })

        return wrapper

    def _build_wrapper(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def build_network(config: Any) -> Any:
            local = self._thread()
            run_id = next(self._ids)
            local.trace = f"run-{run_id}"
            t0 = perf_counter()
            network = fn(config)
            t1 = perf_counter()
            local.run = {"id": run_id, "t0": t0, "built": t1, "loop_id": next(self._ids),
                         "protocol": config.protocol}
            self.span("build", t0, t1, parent=run_id, trace=local.trace)
            return network

        return build_network

    def _reduce_wrapper(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def result_from_network(network: Any, *args: Any, **kwargs: Any) -> Any:
            local = self._thread()
            t0 = perf_counter()
            result = fn(network, *args, **kwargs)
            t1 = perf_counter()
            run = local.run
            trace = local.trace
            mac = [node.mac.stats for node in network.nodes]
            self.spans.append({"id": run["loop_id"], "name": "loop", "start": run["built"],
                               "end": t0, "parent": run["id"], "trace": trace})
            self.span("reduce", t0, t1, parent=run["id"], trace=trace)
            self.spans.append({"id": run["id"], "name": "run", "start": run["t0"],
                               "end": t1, "parent": None, "trace": trace})
            self.runs.append({
                "trace": trace,
                "protocol": run["protocol"],
                "wall_s": t1 - run["t0"],
                "build_s": run["built"] - run["t0"],
                "reduce_s": t1 - t0,
                "sent": result.sent,
                "medium": dict(result.medium),
                "mac_retries": sum(s.retries for s in mac),
                "mac_failures": sum(s.failures for s in mac),
                "mac_queue_drops": sum(s.queue_drops for s in mac),
            })
            local.run = None
            return result

        return result_from_network

    def _profiled(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def run_experiment(config: Any, instruments: Any = (), *args: Any, **kwargs: Any) -> Any:
            profiler = SplitProfiler(self)
            result = fn(config, list(instruments) + [profiler], *args, **kwargs)
            self._add_profile(profiler)
            return result

        return run_experiment

    def _add_profile(self, profiler: SplitProfiler) -> None:
        with self._lock:
            total = self.profile
            total["events"] += profiler.events
            total["wall_s"] += profiler.wall_seconds
            total["callback_s"] += profiler.callback_seconds
            total["heap_high_water"] = max(total["heap_high_water"], profiler.heap_high_water)
            for category, bucket in profiler.categories.items():
                acc = self.buckets.setdefault(category, [0, 0.0, 0.0])
                acc[0] += bucket.count
                acc[1] += bucket.seconds
                acc[2] += profiler.nested.get(category, 0.0)

    # -- readout -------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Everything :func:`layer_metrics` needs, as plain data."""
        with self._lock:
            buckets = {c: list(v) for c, v in self.buckets.items()}
            profile = dict(self.profile)
        return {
            "stats": self.stats(),
            "buckets": buckets,
            "profile": profile,
            "runs": list(self.runs),
        }


def layer_metrics(snap: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics from a :meth:`Layers.snapshot`.

    Times are reported as shares of the summed wall of the traced
    ``run_experiment`` calls, so a layer that a workload never enters
    reads 0 rather than a time, and shares from machines of different
    speed compare directly.  ``run.wall_s`` gives the base.
    """
    stats = snap["stats"]
    buckets = snap["buckets"]
    prof = snap["profile"]
    runs = snap["runs"]
    run_wall = sum(r["wall_s"] for r in runs) or 1.0

    def own(name: str) -> float:
        return stats[name][2] / run_wall

    def bucket(category: str) -> Tuple[int, float]:
        count, seconds, nested = buckets.get(category, (0, 0.0, 0.0))
        return int(count), (seconds - nested) / run_wall

    frames = sum(r["medium"]["frames_sent"] for r in runs)
    delivered = sum(r["medium"]["frames_delivered"] for r in runs)
    sent = sum(r["sent"] for r in runs)
    by_protocol = {p: 0.0 for p in ("grid", "ecgrid", "gaf")}
    for r in runs:
        by_protocol[r["protocol"]] = by_protocol.get(r["protocol"], 0.0) + r["wall_s"]
    crossings, crossing_frac = bucket("mobility-crossing")
    return {
        "des.events": prof["events"],
        "des.events_per_s": prof["events"] / prof["wall_s"] if prof["wall_s"] else 0.0,
        "des.schedules": stats["des.at"][0] + stats["des.after"][0],
        "des.heap_high_water": prof["heap_high_water"],
        "des.dispatch_frac": (prof["wall_s"] - prof["callback_s"]) / run_wall,
        "mac.self_frac": bucket("mac")[1],
        "mac.send_calls": stats["mac.send"][0],
        "mac.retries": sum(r["mac_retries"] for r in runs),
        "mac.failures": sum(r["mac_failures"] for r in runs),
        "mac.queue_drops": sum(r["mac_queue_drops"] for r in runs),
        "phy.transmit_calls": stats["phy.transmit"][0],
        "phy.transmit_self_frac": own("phy.transmit"),
        "phy.carrier_sense_calls": stats["phy.carrier_sense"][0],
        "phy.carrier_sense_frac": own("phy.carrier_sense"),
        "phy.radios_near_calls": stats["phy.radios_near"][0],
        "phy.radios_near_frac": own("phy.radios_near"),
        "phy.completion_self_frac": bucket("medium-completion")[1],
        "phy.frames_sent": frames,
        "phy.frames_corrupted": sum(r["medium"]["frames_corrupted"] for r in runs),
        "phy.frames_missed_asleep": sum(r["medium"]["frames_missed_asleep"] for r in runs),
        "phy.receptions_per_frame": delivered / frames if frames else 0.0,
        "phy.frames_per_data_packet": frames / sent if sent else 0.0,
        "ras.pages": stats["ras.page_host"][0] + stats["ras.page_grid"][0],
        "ras.page_frac": own("ras.page_host") + own("ras.page_grid"),
        "energy.set_draw_calls": stats["energy.set_draw"][0],
        "energy.set_draw_frac": own("energy.set_draw"),
        "energy.battery_self_frac": bucket("battery")[1],
        "mobility.crossings": crossings,
        "mobility.crossing_frac": crossing_frac,
        "protocol.on_message_calls": stats["protocol.on_message"][0],
        "protocol.on_message_self_frac": own("protocol.on_message"),
        "protocol.send_data_calls": stats["protocol.send_data"][0],
        "protocol.hello_frac": bucket("hello-beacon")[1],
        "experiments.build_frac": sum(r["build_s"] for r in runs) / run_wall,
        "experiments.reduce_frac": sum(r["reduce_s"] for r in runs) / run_wall,
        "run.count": len(runs),
        "run.wall_s": sum(r["wall_s"] for r in runs),
        "run.max_wall_s": max((r["wall_s"] for r in runs), default=0.0),
        **{f"run.share.{p}": w / run_wall for p, w in sorted(by_protocol.items())},
        "cache.get_calls": stats["cache.get"][0],
        "cache.put_calls": stats["cache.put"][0],
    }
