"""GRID baseline (Liao, Tseng, Sheu 2001) — no energy conservation.

Identical grid partition and grid-by-grid routing as ECGRID, but:

- the gateway election ignores battery level (nearest-to-center, then
  smallest ID);
- nobody ever sleeps: every host's transceiver idles at 830 mW, which
  is why the paper's Fig. 4 shows the whole GRID network dying at
  ~590 s (500 J / 0.863 W);
- handoffs need no RAS broadcast sequence since everyone is awake.

Because this class is the shared machinery with the energy features
switched off, the ECGRID-vs-GRID comparison isolates exactly the
paper's contribution.
"""

from __future__ import annotations

from repro.core.routing import GridRoutingMixin


class GridProtocol(GridRoutingMixin):
    """The non-energy-aware baseline."""

    name = "grid"
    energy_aware = False
    uses_ras = False
    page_sleeping_hosts = False

    # No member of the family sleeps unless something actively puts it
    # to sleep; the shared machinery never does, so no overrides needed:
    # hosts stay in IDLE whenever not transmitting or receiving.
