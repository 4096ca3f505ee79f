"""Event-loop profiling: who is the simulation spending its time on?

The profiler attaches to a :class:`~repro.des.core.Simulator` as a
dispatch instrument and buckets every executed event into a named
callback category (MAC, medium completion, mobility crossing,
hello/beacon, ...) by the callback's qualified name.  Timer-wrapped
callbacks (:class:`~repro.des.timer.Timer` / ``PeriodicTimer``) are
unwrapped so a HELLO beacon is attributed to the protocol, not to
``Timer._fire``.

Detached, it costs one list truth test per event: the run loop times
callbacks only while at least one instrument is attached.
"""

from __future__ import annotations

import cProfile
import pstats
import io
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

#: Substring -> category rules, applied in order to the (unwrapped)
#: callback qualname.  First match wins.
CATEGORY_RULES: Tuple[Tuple[str, str], ...] = (
    ("hello", "hello-beacon"),
    ("beacon", "hello-beacon"),
    ("advertise", "hello-beacon"),
    ("_announce", "hello-beacon"),
    ("CsmaMac.", "mac"),
    ("Medium._finish", "medium-completion"),
    ("Node._on_crossing", "mobility-crossing"),
    ("EnergySampler.", "metric-sampling"),
    ("._tick", "metric-sampling"),
    ("BatteryMonitor.", "battery"),
    ("CbrFlow.", "traffic"),
    ("Node._on_paged", "ras-paging"),
    ("RasChannel.", "ras-paging"),
    ("Radio.", "phy"),
    ("Protocol", "protocol"),
    ("Routing", "protocol"),
    ("Gateway", "protocol"),
)

#: The categories the profiler is expected to attribute the bulk of a
#: reference run to (see docs/performance.md).
NAMED_CATEGORIES = tuple(dict.fromkeys(cat for _, cat in CATEGORY_RULES))


def callback_name(fn: Any) -> str:
    """Stable, address-free name for a scheduled callback."""
    name = getattr(fn, "__qualname__", None)
    if name is None:
        name = type(fn).__name__
    return name


def _unwrap(fn: Any) -> Any:
    """See through Timer/PeriodicTimer to the protocol callback."""
    name = getattr(fn, "__qualname__", "")
    if name.endswith("._fire"):
        owner = getattr(fn, "__self__", None)
        inner = getattr(owner, "fn", None)
        if inner is not None:
            return inner
    return fn


class _Bucket:
    __slots__ = ("count", "seconds")

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0


class KernelProfiler:
    """Aggregates dispatch statistics for one or more runs.

    Attach with ``sim.instrument(profiler)`` (or pass it through
    ``Network.run(instruments=...)``) and read :meth:`report` after the
    run.  ``cprofile=True`` additionally captures a deterministic
    cProfile of everything executed between :meth:`on_run_begin` and
    :meth:`on_run_end`.
    """

    def __init__(self, cprofile: bool = False) -> None:
        self.categories: Dict[str, _Bucket] = {}
        self.events = 0
        self.callback_seconds = 0.0
        self.wall_seconds = 0.0
        self.heap_high_water = 0
        self._by_qualname: Dict[str, str] = {}
        self._cprofile: Optional[cProfile.Profile] = (
            cProfile.Profile() if cprofile else None
        )
        self._t0: Optional[float] = None

    # -- Simulator instrument interface --------------------------------
    def on_run_begin(self, sim: Any) -> None:
        self._t0 = perf_counter()
        if self._cprofile is not None:
            self._cprofile.enable()

    def on_run_end(self, sim: Any, wall_s: Optional[float] = None) -> None:
        if self._cprofile is not None:
            self._cprofile.disable()
        if wall_s is None:
            wall_s = perf_counter() - (self._t0 or perf_counter())
        self.wall_seconds += wall_s
        self.heap_high_water = max(self.heap_high_water, sim.heap_high_water)

    def on_dispatch(self, event: Any, elapsed: float, queue_len: int) -> None:
        # Keyed on the unwrapped callback: every one-shot timer fires as
        # ``Timer._fire``, so the wrapper's name would share one bucket.
        qualname = callback_name(_unwrap(event.fn))
        category = self._by_qualname.get(qualname)
        if category is None:
            category = self._by_qualname[qualname] = self._classify(qualname)
        bucket = self.categories.get(category)
        if bucket is None:
            bucket = self.categories[category] = _Bucket()
        bucket.count += 1
        bucket.seconds += elapsed
        self.events += 1
        self.callback_seconds += elapsed

    # -- classification -------------------------------------------------
    def _classify(self, qualname: str) -> str:
        for needle, category in CATEGORY_RULES:
            if needle in qualname:
                return category
        return f"other:{qualname}"

    # -- readouts -------------------------------------------------------
    @property
    def named_seconds(self) -> float:
        """Callback time attributed to named (non-``other:``) categories."""
        return sum(
            b.seconds
            for cat, b in self.categories.items()
            if not cat.startswith("other:")
        )

    @property
    def attribution(self) -> float:
        """Fraction of callback wall time landing in named categories."""
        if self.callback_seconds == 0.0:
            return 1.0
        return self.named_seconds / self.callback_seconds

    def events_per_sec(self) -> float:
        if self.wall_seconds == 0.0:
            return 0.0
        return self.events / self.wall_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "wall_seconds": self.wall_seconds,
            "callback_seconds": self.callback_seconds,
            "events_per_sec": self.events_per_sec(),
            "heap_high_water": self.heap_high_water,
            "attribution": self.attribution,
            "categories": {
                cat: {"count": b.count, "seconds": b.seconds}
                for cat, b in sorted(
                    self.categories.items(),
                    key=lambda kv: kv[1].seconds,
                    reverse=True,
                )
            },
        }

    def report(self) -> str:
        """Human-readable attribution table."""
        lines: List[str] = []
        wall = self.wall_seconds
        cb = self.callback_seconds
        lines.append(
            f"event loop: {self.events} events in {wall:.3f}s wall "
            f"({self.events_per_sec():,.0f} events/sec), "
            f"heap high-water {self.heap_high_water}"
        )
        overhead = max(wall - cb, 0.0)
        if wall > 0:
            lines.append(
                f"  callbacks {cb:.3f}s ({cb / wall * 100:.1f}% of wall), "
                f"kernel dispatch+instrumentation {overhead:.3f}s "
                f"({overhead / wall * 100:.1f}%)"
            )
        lines.append(
            f"  attribution: {self.attribution * 100:.1f}% of callback "
            f"time in named categories"
        )
        lines.append(f"  {'category':<28}{'events':>10}{'seconds':>10}{'%cb':>7}")
        for cat, b in sorted(
            self.categories.items(), key=lambda kv: kv[1].seconds, reverse=True
        ):
            pct = 0.0 if cb == 0 else b.seconds / cb * 100.0
            lines.append(
                f"  {cat:<28}{b.count:>10}{b.seconds:>10.3f}{pct:>6.1f}%"
            )
        return "\n".join(lines)

    def cprofile_stats(self, limit: int = 25) -> str:
        """Top functions from the optional cProfile capture."""
        if self._cprofile is None:
            return "(cProfile capture was not enabled)"
        out = io.StringIO()
        pstats.Stats(self._cprofile, stream=out).sort_stats(
            "cumulative"
        ).print_stats(limit)
        return out.getvalue()

    def dump_cprofile(self, path: str) -> None:
        """Write the raw cProfile data for snakeviz/pstats tooling."""
        if self._cprofile is None:
            raise ValueError("profiler was created with cprofile=False")
        self._cprofile.dump_stats(path)
