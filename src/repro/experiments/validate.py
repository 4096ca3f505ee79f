"""Runtime invariant checking for grid-family scenarios.

Samples a live network periodically and records violations of the
protocol's steady-state invariants:

- at most one gateway per grid cell (duplicates are transient during
  merges/elections and must resolve);
- every gateway is awake;
- no sleeping host is marked as its own gateway;
- dead hosts hold no role.

The checker distinguishes *transient* violations (present in one
sample) from *persistent* ones (same cell violating in consecutive
samples) — the latter indicate real protocol bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, TYPE_CHECKING

from repro.core.base import Role

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network


@dataclass
class Violation:
    time: float
    kind: str
    detail: str


@dataclass
class InvariantReport:
    samples: int = 0
    violations: List[Violation] = field(default_factory=list)
    #: Cells that had >1 gateway in two consecutive samples.
    persistent_duplicate_cells: Set[tuple] = field(default_factory=set)
    #: Sample times at which *no* invariant was violated — the fault
    #: recovery metrics read these to time how fast the single-gateway
    #: invariant is restored after an injected disruption.
    clean_times: List[float] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.persistent_duplicate_cells

    def first_clean_at_or_after(self, t: float) -> float | None:
        """Earliest violation-free sample time >= ``t`` (None if the
        run ended without one)."""
        for ct in self.clean_times:
            if ct >= t:
                return ct
        return None


class InvariantChecker:
    """Attach to a network before ``start()``; read ``report`` after."""

    def __init__(self, network: "Network", interval_s: float = 5.0) -> None:
        self.network = network
        self.interval_s = interval_s
        self.report = InvariantReport()
        self._prev_duplicates: Set[tuple] = set()
        network.sim.after(interval_s, self._tick, priority=101)

    def _tick(self) -> None:
        self.sample()
        self.network.sim.after(self.interval_s, self._tick, priority=101)

    def sample(self) -> None:
        now = self.network.sim.now
        self.report.samples += 1
        violations_before = len(self.report.violations)
        gateways_per_cell: Dict[tuple, List[int]] = {}
        for node in self.network.nodes:
            proto = node.protocol
            role = getattr(proto, "role", None)
            if role is None:
                continue  # not a grid-family protocol
            if not node.alive:
                if role is not Role.DEAD:
                    self.report.violations.append(Violation(
                        now, "dead-with-role",
                        f"node {node.id} dead but role={role}"))
                continue
            if role is Role.GATEWAY:
                gateways_per_cell.setdefault(proto.my_cell, []).append(node.id)
                if not node.awake:
                    self.report.violations.append(Violation(
                        now, "sleeping-gateway",
                        f"node {node.id} is gateway but asleep"))
            if role is Role.SLEEPING and proto.my_gateway == node.id:
                self.report.violations.append(Violation(
                    now, "self-gateway-asleep",
                    f"node {node.id} sleeping yet self-gatewayed"))

        duplicates = {
            cell for cell, ids in gateways_per_cell.items() if len(ids) > 1
        }
        for cell in duplicates:
            self.report.violations.append(Violation(
                now, "duplicate-gateways",
                f"cell {cell}: {gateways_per_cell[cell]}"))
        self.report.persistent_duplicate_cells |= (
            duplicates & self._prev_duplicates
        )
        self._prev_duplicates = duplicates
        if len(self.report.violations) == violations_before:
            self.report.clean_times.append(now)
