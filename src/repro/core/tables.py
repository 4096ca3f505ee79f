"""Gateway state: grid-based routing table and per-grid host table."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.geo.grid import GridCoord


@dataclass
class RouteEntry:
    """A grid-by-grid route: packets for ``dest`` go to the gateway of
    ``next_cell`` (paper §3.3: tables are kept per grid, not per host)."""

    next_cell: GridCoord
    seq: int
    expires_at: float


class RoutingTable:
    """Destination-host -> next-grid mapping with AODV-style freshness.

    An entry is replaced only by a strictly fresher sequence number, or
    by any sequence once the entry expired — the standard loop-avoidance
    discipline ECGRID inherits from AODV via GRID.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, RouteEntry] = {}

    def lookup(self, dest: int, now: float) -> Optional[RouteEntry]:
        entry = self._entries.get(dest)
        if entry is None or entry.expires_at < now:
            return None
        return entry

    def update(
        self,
        dest: int,
        next_cell: GridCoord,
        seq: int,
        now: float,
        lifetime: float,
    ) -> bool:
        """Install/refresh a route; returns True if the table changed."""
        entry = self._entries.get(dest)
        if entry is not None and entry.expires_at >= now and entry.seq > seq:
            return False
        self._entries[dest] = RouteEntry(next_cell, seq, now + lifetime)
        return True

    def invalidate(self, dest: int) -> None:
        self._entries.pop(dest, None)

    def invalidate_via(self, cell: GridCoord) -> Iterable[int]:
        """Drop every route through ``cell``; returns affected dests."""
        broken = [d for d, e in self._entries.items() if e.next_cell == cell]
        for d in broken:
            del self._entries[d]
        return broken

    def redirect_non_adjacent(
        self, new_cell: GridCoord, old_cell: GridCoord
    ) -> int:
        """§3.4 case 3: the table's owner moved from ``old_cell`` to
        ``new_cell``; every entry whose next grid no longer neighbors
        the owner is re-pointed at ``old_cell`` (always adjacent to the
        new position), making those routes one hop longer instead of
        broken.  Returns the number of entries rewritten."""
        rewritten = 0
        for entry in self._entries.values():
            dx = abs(entry.next_cell[0] - new_cell[0])
            dy = abs(entry.next_cell[1] - new_cell[1])
            if max(dx, dy) > 1 and entry.next_cell != old_cell:
                entry.next_cell = old_cell
                rewritten += 1
        return rewritten

    def touch(self, dest: int, now: float, lifetime: float) -> None:
        """Refresh an entry's lifetime on use."""
        entry = self._entries.get(dest)
        if entry is not None:
            entry.expires_at = max(entry.expires_at, now + lifetime)

    def snapshot(self) -> Dict[int, Tuple[GridCoord, int]]:
        """Compact form carried inside RETIRE / TablesTransfer messages."""
        return {d: (e.next_cell, e.seq) for d, e in self._entries.items()}

    def load_snapshot(
        self, snap: Dict[int, Tuple[GridCoord, int]], now: float, lifetime: float
    ) -> None:
        for dest, (next_cell, seq) in snap.items():
            self.update(dest, next_cell, seq, now, lifetime)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, dest: int) -> bool:
        return dest in self._entries


class HostTable:
    """The gateway's record of hosts in its grid: id -> awake? (§3)."""

    def __init__(self) -> None:
        self._status: Dict[int, bool] = {}

    def mark_active(self, host_id: int) -> None:
        self._status[host_id] = True

    def mark_sleeping(self, host_id: int) -> None:
        self._status[host_id] = False

    def remove(self, host_id: int) -> None:
        self._status.pop(host_id, None)

    def is_known(self, host_id: int) -> bool:
        return host_id in self._status

    def is_awake(self, host_id: int) -> Optional[bool]:
        """True/False if known, None if the host is not in this grid."""
        return self._status.get(host_id)

    def members(self) -> Iterable[int]:
        return self._status.keys()

    def snapshot(self) -> Dict[int, bool]:
        return dict(self._status)

    def load_snapshot(self, snap: Dict[int, bool]) -> None:
        self._status.update(snap)

    def clear(self) -> None:
        self._status.clear()

    def __len__(self) -> int:
        return len(self._status)
