"""Declarative fault plans: what goes wrong, when, and how badly.

A :class:`FaultPlan` is a value object — an ordered tuple of typed
:class:`FaultEvent`\\ s — that fully describes the adversity injected
into one run.  Plans are frozen and hashable so they can serve as sweep
axis values, participate in :meth:`ExperimentConfig.cache_key`, and
round-trip losslessly through JSON (``ecgrid run --faults plan.json``).

The *plan* layer is pure data: nothing here touches a simulator.
Compilation onto the DES calendar (and the seeded randomness behind the
probabilistic events) lives in :mod:`repro.faults.inject`.

Event kinds
-----------
- :class:`NodeCrash` — a host fails instantly (no RETIRE, no notice);
- :class:`NodeRecover` — a crashed host comes back with a fresh
  protocol instance and a partially refilled battery;
- :class:`PageLoss` — RAS paging bursts are dropped with probability
  ``drop_prob`` over a time window;
- :class:`MediumLossWindow` — every frame reception is independently
  dropped with probability ``drop_prob`` over a time window, optionally
  restricted to a rectangular region;
- :class:`Partition` — the medium is severed along an axis-aligned
  line: frames (and unicast pages) crossing it are lost;
- :class:`BatteryDrain` — a host instantly loses ``joules`` of energy.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Literal, Mapping, Optional, Sequence, Tuple, Type

from repro.records import decode


@dataclass(frozen=True)
class FaultEvent:
    """Base class: every event carries a ``kind`` tag for JSON."""

    kind: str = field(init=False, default="")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultEvent":
        """The event a JSON mapping describes (see :func:`event_from_dict`)."""
        return event_from_dict(data)


@dataclass(frozen=True)
class NodeCrash(FaultEvent):
    """Host ``node_id`` fails at ``at_s`` (paper §3.2's "accident")."""

    at_s: float = 0.0
    node_id: int = 0
    kind: str = field(init=False, default="node_crash")


@dataclass(frozen=True)
class NodeRecover(FaultEvent):
    """Host ``node_id`` reboots at ``at_s`` with ``energy_frac`` of its
    battery capacity and a fresh protocol instance (all prior routing
    state is gone — exactly what a real reboot loses)."""

    at_s: float = 0.0
    node_id: int = 0
    energy_frac: float = 0.5
    kind: str = field(init=False, default="node_recover")


@dataclass(frozen=True)
class PageLoss(FaultEvent):
    """RAS paging bursts sent in ``[start_s, end_s)`` are lost with
    probability ``drop_prob`` (jammed/faded paging channel)."""

    start_s: float = 0.0
    end_s: float = 0.0
    drop_prob: float = 0.5
    kind: str = field(init=False, default="page_loss")


@dataclass(frozen=True)
class MediumLossWindow(FaultEvent):
    """Per-reception frame loss with probability ``drop_prob`` over
    ``[start_s, end_s)``.  ``region`` (x0, y0, x1, y1) restricts the
    fault to receptions whose sender *or* receiver stands inside the
    rectangle; ``None`` afflicts the whole field."""

    start_s: float = 0.0
    end_s: float = 0.0
    drop_prob: float = 0.3
    region: Optional[Tuple[float, float, float, float]] = None
    kind: str = field(init=False, default="medium_loss")


@dataclass(frozen=True)
class Partition(FaultEvent):
    """Sever medium reachability between the two half-planes on either
    side of ``axis = boundary_m`` over ``[start_s, end_s)``: frames and
    unicast pages whose endpoints straddle the line are lost."""

    start_s: float = 0.0
    end_s: float = 0.0
    axis: Literal["x", "y"] = "x"
    boundary_m: float = 0.0
    kind: str = field(init=False, default="partition")


@dataclass(frozen=True)
class BatteryDrain(FaultEvent):
    """Host ``node_id`` instantly loses ``joules`` at ``at_s`` (stuck
    peripheral, short, or a hostile auxiliary load)."""

    at_s: float = 0.0
    node_id: int = 0
    joules: float = 0.0
    kind: str = field(init=False, default="battery_drain")


#: kind tag -> event class (JSON dispatch).
EVENT_TYPES: Dict[str, Type[FaultEvent]] = {
    cls.__dataclass_fields__["kind"].default: cls  # type: ignore[index]
    for cls in (
        NodeCrash,
        NodeRecover,
        PageLoss,
        MediumLossWindow,
        Partition,
        BatteryDrain,
    )
}


def event_from_dict(data: Mapping[str, Any]) -> FaultEvent:
    """Rebuild one event from its :func:`dataclasses.asdict` form: the
    ``kind`` tag picks the class, which decodes the other fields."""
    d = dict(data)
    kind = d.pop("kind", None)
    cls = EVENT_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(
            f"kind: unknown fault kind {kind!r}; "
            f"choose from {sorted(EVENT_TYPES)}"
        )
    return decode(cls, d)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, hashable sequence of fault events."""

    events: Tuple[FaultEvent, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        # Tolerate list input from hand-built plans.
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))

    def __bool__(self) -> bool:
        return bool(self.events)

    def __str__(self) -> str:
        return self.name or f"faults[{len(self.events)}]"

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return decode(cls, data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


def standard_fault_plan(
    intensity: float,
    *,
    sim_time_s: float,
    width_m: float,
    height_m: float,
    n_hosts: int,
    initial_energy_j: float,
    name: Optional[str] = None,
) -> FaultPlan:
    """A graduated stress plan mixing every disruptive fault kind.

    ``intensity`` in [0, 1] scales drop probabilities, the number of
    crashed hosts, and the injected battery drain; 0 yields an empty
    plan.  Times and geometry are fractions of the (post-scale) horizon
    and field, so the same intensity is comparable across scenario
    scales.  The host choices are deterministic (evenly spread ids) —
    all randomness stays in the injector's seeded streams.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError("intensity must be in [0, 1]")
    if intensity == 0.0:
        return FaultPlan((), name=name or "std-0")
    t = sim_time_s
    events: list = []
    # A vertical partition through the middle, mid-run.
    events.append(Partition(
        start_s=0.25 * t, end_s=0.40 * t, axis="x", boundary_m=width_m / 2.0,
    ))
    # A lossy-channel episode after the partition heals.
    events.append(MediumLossWindow(
        start_s=0.45 * t, end_s=0.60 * t, drop_prob=min(0.9, 0.8 * intensity),
    ))
    # A flaky paging channel over the middle half of the run.
    events.append(PageLoss(
        start_s=0.25 * t, end_s=0.75 * t, drop_prob=min(0.9, 0.8 * intensity),
    ))
    # Crash up to a quarter of the hosts, staggered; revive half later.
    n_crash = max(1, round(0.25 * intensity * n_hosts))
    step = max(1, n_hosts // n_crash)
    crashed = [(i * step) % n_hosts for i in range(n_crash)]
    for i, nid in enumerate(crashed):
        at = (0.30 + 0.20 * i / max(1, n_crash - 1)) * t if n_crash > 1 else 0.35 * t
        events.append(NodeCrash(at_s=at, node_id=nid))
    for nid in crashed[: max(1, n_crash // 2)]:
        events.append(NodeRecover(at_s=0.70 * t, node_id=nid, energy_frac=0.5))
    # Sudden energy loss on two survivors.
    drain = 0.5 * intensity * initial_energy_j
    for nid in ((crashed[-1] + 1) % n_hosts, (crashed[-1] + 2) % n_hosts):
        if nid not in crashed:
            events.append(BatteryDrain(at_s=0.20 * t, node_id=nid, joules=drain))
    return FaultPlan(tuple(events), name=name or f"std-{intensity:g}")


def disruption_times(plan: FaultPlan) -> Sequence[float]:
    """Sorted, de-duplicated onset times of the plan's disruptive
    events (recoveries are remedies, not disruptions)."""
    times = set()
    for ev in plan.events:
        if isinstance(ev, (NodeCrash, BatteryDrain)):
            times.add(ev.at_s)
        elif isinstance(ev, (PageLoss, MediumLossWindow, Partition)):
            times.add(ev.start_s)
    return sorted(times)
