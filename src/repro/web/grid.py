"""A planar grid over the US used for local-content generation.

Local businesses, cities, and local news outlets are generated per grid
cell, deterministically.  The engine *snaps* a user's GPS fix to the
centre of its cell before retrieving local content; this quantisation is
the mechanism behind the county-level result clustering the paper
observes in Figure 8 (nearby voting districts that fall into the same
cell receive identical local candidates).

The projection is equirectangular around a fixed reference latitude —
within a metro area the distortion is negligible, and only *relative*
positions matter to the study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, List, Tuple

from repro.geo.coords import LatLon

__all__ = ["DISTANCE_EPSILON_MILES", "GridCell", "GeoGrid"]

_MILES_PER_DEG_LAT = 69.0
_REFERENCE_LAT_DEG = 39.0  # mid-US; cos(39°) scales longitude miles

#: Slack, in miles, for floating-point error in planar distances.  The
#: projection's coordinates reach ~10^4 miles, where one ulp is ~2e-12,
#: so 1e-9 miles absorbs the rounding of a projection round trip (a POI
#: placed at planar (x, y), stored as lat/lon and projected again).
DISTANCE_EPSILON_MILES = 1e-9


@dataclass(frozen=True, order=True)
class GridCell:
    """One cell of the grid, identified by integer column/row indices."""

    ix: int
    iy: int


class GeoGrid:
    """A square grid with cells ``cell_miles`` on a side.

    Args:
        cell_miles: Cell edge length in miles.  The study default is 1
            mile — small enough that Cuyahoga voting districts spread
            over several cells, large enough that some districts share
            one.
    """

    def __init__(self, cell_miles: float = 1.0):
        if cell_miles <= 0:
            raise ValueError(f"cell size must be positive, got {cell_miles}")
        self.cell_miles = cell_miles
        self._lon_scale = math.cos(math.radians(_REFERENCE_LAT_DEG))

    def to_xy_miles(self, point: LatLon) -> tuple:
        """Project a coordinate to planar (x, y) miles."""
        x = point.lon * _MILES_PER_DEG_LAT * self._lon_scale
        y = point.lat * _MILES_PER_DEG_LAT
        return (x, y)

    def from_xy_miles(self, x: float, y: float) -> LatLon:
        """Inverse of :meth:`to_xy_miles`."""
        lon = x / (_MILES_PER_DEG_LAT * self._lon_scale)
        lat = y / _MILES_PER_DEG_LAT
        return LatLon(lat, lon)

    def cell_of(self, point: LatLon) -> GridCell:
        """The cell containing ``point``."""
        x, y = self.to_xy_miles(point)
        return GridCell(math.floor(x / self.cell_miles), math.floor(y / self.cell_miles))

    def cell_center(self, cell: GridCell) -> LatLon:
        """The centre coordinate of ``cell``."""
        x = (cell.ix + 0.5) * self.cell_miles
        y = (cell.iy + 0.5) * self.cell_miles
        return self.from_xy_miles(x, y)

    def snap(self, point: LatLon) -> LatLon:
        """Quantise ``point`` to the centre of its cell."""
        return self.cell_center(self.cell_of(point))

    def cells_within(self, point: LatLon, radius_miles: float) -> List[GridCell]:
        """All cells whose area intersects the disc around ``point``,
        in row-major order."""
        return [cell for _, cell in self._disc(point, radius_miles)]

    def cells_nearest_first(
        self, point: LatLon, radius_miles: float
    ) -> List[Tuple[float, GridCell]]:
        """``(bound, cell)`` for every cell of :meth:`cells_within`,
        ascending by ``bound``, the cell's :meth:`rect_distance` from
        ``point``; equal bounds keep row-major order."""
        cells = self._disc(point, radius_miles)
        cells.sort(key=itemgetter(0))
        return cells

    def _disc(self, point: LatLon, radius_miles: float) -> List[Tuple[float, GridCell]]:
        """``(bound, cell)`` for the disc's cells in row-major order."""
        if radius_miles < 0:
            raise ValueError(f"radius must be non-negative, got {radius_miles}")
        x, y = self.to_xy_miles(point)
        span = int(math.ceil(radius_miles / self.cell_miles))
        cx = math.floor(x / self.cell_miles)
        cy = math.floor(y / self.cell_miles)
        columns = [(ix, self._axis_gap(x, ix)) for ix in range(cx - span, cx + span + 1)]
        cells: List[Tuple[float, GridCell]] = []
        for iy in range(cy - span, cy + span + 1):
            gap_y = self._axis_gap(y, iy)
            for ix, gap_x in columns:
                bound = math.hypot(gap_x, gap_y)  # == rect_distance(x, y, ix, iy)
                if bound <= radius_miles:
                    cells.append((bound, GridCell(ix, iy)))
        return cells

    def rect_distance(self, x: float, y: float, ix: int, iy: int) -> float:
        """Planar distance from ``(x, y)`` to the nearest point of cell
        ``(ix, iy)``'s rectangle (0 inside it)."""
        return math.hypot(self._axis_gap(x, ix), self._axis_gap(y, iy))

    def _axis_gap(self, v: float, i: int) -> float:
        """Offset from ``v`` to the nearest point of column (or row)
        ``i``, which spans ``[i, i + 1]`` cell widths along one axis."""
        return min(max(v, i * self.cell_miles), (i + 1) * self.cell_miles) - v

    def distance_miles(self, a: LatLon, b: LatLon) -> float:
        """Planar distance between two points (projection-space miles)."""
        ax, ay = self.to_xy_miles(a)
        bx, by = self.to_xy_miles(b)
        return math.hypot(ax - bx, ay - by)

    def iter_neighborhood(self, cell: GridCell, span: int = 1) -> Iterator[GridCell]:
        """The (2·span+1)² block of cells centred on ``cell``."""
        for iy in range(cell.iy - span, cell.iy + span + 1):
            for ix in range(cell.ix - span, cell.ix + span + 1):
                yield GridCell(ix, iy)
