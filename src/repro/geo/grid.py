"""The logical grid partition of the deployment area.

The paper (following GRID, Liao/Tseng/Sheu 2001) partitions the plane
into square cells of side ``d``, numbered by integer ``(x, y)`` grid
coordinates.  The cell side must satisfy ``d <= sqrt(2) * r / 3`` so
that a gateway at the *center* of a cell can reach any host anywhere in
all eight neighboring cells (worst case: the far corner of a diagonal
neighbor, at distance ``1.5 * d * sqrt(2)`` from the center).  The
paper's evaluation uses ``d = 100 m`` with radio range ``r = 250 m``,
which satisfies the bound (117.85 m).
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

from repro.geo.vector import Vec2

GridCoord = Tuple[int, int]


def max_grid_side(radio_range: float) -> float:
    """Largest grid side ``d`` such that a center-positioned gateway
    reaches every point of all 8 neighboring cells: ``sqrt(2)*r/3``."""
    return math.sqrt(2.0) * radio_range / 3.0


class GridMap:
    """Maps world positions to grid coordinates and back.

    The map covers the rectangle ``[0, width) x [0, height)``.  Positions
    exactly on the right/top edge are clamped into the last cell so that
    waypoint destinations drawn on the boundary stay inside the map.
    """

    def __init__(self, width: float, height: float, cell_side: float) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("area dimensions must be positive")
        if cell_side <= 0:
            raise ValueError("cell side must be positive")
        self.width = width
        self.height = height
        self.cell_side = cell_side
        self.cols = max(1, math.ceil(width / cell_side))
        self.rows = max(1, math.ceil(height / cell_side))

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def cell_of(self, pos: Vec2) -> GridCoord:
        """Grid coordinate of a world position (edges clamped inward)."""
        cx = int(pos.x // self.cell_side)
        cy = int(pos.y // self.cell_side)
        if cx >= self.cols:
            cx = self.cols - 1
        elif cx < 0:
            cx = 0
        if cy >= self.rows:
            cy = self.rows - 1
        elif cy < 0:
            cy = 0
        return (cx, cy)

    def center_of(self, cell: GridCoord) -> Vec2:
        """World position of the geometric center of ``cell``."""
        cx, cy = cell
        return Vec2((cx + 0.5) * self.cell_side, (cy + 0.5) * self.cell_side)

    def contains_cell(self, cell: GridCoord) -> bool:
        cx, cy = cell
        return 0 <= cx < self.cols and 0 <= cy < self.rows

    def cell_bounds(self, cell: GridCoord) -> Tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` of the cell in world coordinates."""
        cx, cy = cell
        d = self.cell_side
        return (cx * d, cy * d, (cx + 1) * d, (cy + 1) * d)

    def dist_to_center(self, pos: Vec2) -> float:
        """Distance from ``pos`` to the center of the cell containing it.

        This is the ``dist`` field of the paper's HELLO message.
        """
        return pos.dist(self.center_of(self.cell_of(pos)))

    # ------------------------------------------------------------------
    # Neighborhoods
    # ------------------------------------------------------------------
    def neighbors8(self, cell: GridCoord) -> List[GridCoord]:
        """The up-to-8 cells adjacent to ``cell`` (within the map)."""
        cx, cy = cell
        out = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nb = (cx + dx, cy + dy)
                if self.contains_cell(nb):
                    out.append(nb)
        return out

    def cells_within(self, cell: GridCoord, ring: int) -> Iterator[GridCoord]:
        """All cells whose coordinate differs by at most ``ring`` in each
        axis (Chebyshev ball), clipped to the map.  Used by the wireless
        medium: any node within radio range ``r`` of a node in ``cell``
        is in a cell of ring ``ceil(r / cell_side)``."""
        cx, cy = cell
        x0 = max(0, cx - ring)
        x1 = min(self.cols - 1, cx + ring)
        y0 = max(0, cy - ring)
        y1 = min(self.rows - 1, cy + ring)
        for x in range(x0, x1 + 1):
            for y in range(y0, y1 + 1):
                yield (x, y)

    def all_cells(self) -> Iterator[GridCoord]:
        for x in range(self.cols):
            for y in range(self.rows):
                yield (x, y)

    @property
    def cell_count(self) -> int:
        return self.cols * self.rows

    def grid_distance(self, a: GridCoord, b: GridCoord) -> int:
        """Chebyshev (8-connected hop) distance between two cells."""
        return max(abs(a[0] - b[0]), abs(a[1] - b[1]))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"GridMap({self.width}x{self.height} m, d={self.cell_side} m, "
            f"{self.cols}x{self.rows} cells)"
        )
