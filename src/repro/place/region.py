"""Placement region: die area, standard-cell rows, and bin grids.

The :class:`PlacementRegion` describes where cells may legally go — a
rectangular core composed of equal-height rows of sites.  A
:class:`BinGrid` overlays the core with a regular grid used by density
models and congestion estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..netlist import Netlist
from ..errors import OptionsError, ValidationError


@dataclass(frozen=True)
class Row:
    """One standard-cell row.

    Attributes:
        index: Row number, 0 at the bottom.
        x: Left edge of the row.
        y: Bottom edge of the row.
        width: Row width (num_sites * site_width).
        height: Row height.
        site_width: Width of one placement site.
    """

    index: int
    x: float
    y: float
    width: float
    height: float
    site_width: float = 1.0

    @property
    def num_sites(self) -> int:
        return int(round(self.width / self.site_width))

    @property
    def x_end(self) -> float:
        return self.x + self.width

    @property
    def y_top(self) -> float:
        return self.y + self.height

    def snap_x(self, x: float) -> float:
        """Snap an x coordinate to the nearest site boundary inside the row."""
        rel = (x - self.x) / self.site_width
        snapped = self.x + round(rel) * self.site_width
        return min(max(snapped, self.x), self.x_end)


@dataclass
class PlacementRegion:
    """A rectangular core of stacked standard-cell rows.

    Attributes:
        x: Left edge of the core.
        y: Bottom edge of the core.
        width: Core width.
        height: Core height; ``height == num_rows * row_height``.
        row_height: Height of each row.
        site_width: Width of one site.
    """

    x: float
    y: float
    width: float
    height: float
    row_height: float = 8.0
    site_width: float = 1.0
    rows: list[Row] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValidationError("placement region must have positive size")
        if self.row_height <= 0 or self.site_width <= 0:
            raise ValidationError("row height and site width must be positive")
        if not self.rows:
            n = int(self.height // self.row_height)
            if n < 1:
                raise ValidationError("region shorter than one row")
            self.rows = [
                Row(index=i, x=self.x, y=self.y + i * self.row_height,
                    width=self.width, height=self.row_height,
                    site_width=self.site_width)
                for i in range(n)
            ]
            # Clip core height to the integral row stack.
            self.height = n * self.row_height

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def x_end(self) -> float:
        return self.x + self.width

    @property
    def y_top(self) -> float:
        return self.y + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    def contains_point(self, px: float, py: float) -> bool:
        return self.x <= px <= self.x_end and self.y <= py <= self.y_top

    def contains_cell(self, x: float, y: float, w: float, h: float,
                      tol: float = 1e-6) -> bool:
        """True if a cell with lower-left (x, y) and size (w, h) lies inside."""
        return (x >= self.x - tol and y >= self.y - tol
                and x + w <= self.x_end + tol and y + h <= self.y_top + tol)

    def row_at(self, y: float) -> Row:
        """The row whose vertical span contains ``y`` (clamped to the core)."""
        idx = int((y - self.y) // self.row_height)
        idx = min(max(idx, 0), self.num_rows - 1)
        return self.rows[idx]

    def nearest_row(self, y_center: float) -> Row:
        """The row whose center is nearest to ``y_center``."""
        idx = int(round((y_center - self.y - self.row_height / 2.0)
                        / self.row_height))
        idx = min(max(idx, 0), self.num_rows - 1)
        return self.rows[idx]

    def clamp_center(self, cx: float, cy: float, w: float, h: float
                     ) -> tuple[float, float]:
        """Clamp a cell *center* so the cell stays inside the core."""
        half_w, half_h = w / 2.0, h / 2.0
        cx = min(max(cx, self.x + half_w), self.x_end - half_w)
        cy = min(max(cy, self.y + half_h), self.y_top - half_h)
        return cx, cy

    def utilization(self, netlist: Netlist) -> float:
        """Total cell area (movable + fixed-inside-core) over core area."""
        total = 0.0
        for c in netlist.cells:
            if self.contains_cell(c.x, c.y, c.width, c.height) or c.movable:
                total += c.area
        return total / self.area


def region_for(netlist: Netlist, target_utilization: float = 0.7,
               aspect_ratio: float = 1.0, origin: tuple[float, float] = (0.0, 0.0),
               row_height: float | None = None,
               site_width: float | None = None) -> PlacementRegion:
    """Size a core for a netlist at a target utilization.

    Args:
        netlist: design to host; movable area drives the sizing.
        target_utilization: movable area / core area.
        aspect_ratio: core height / width.
        origin: lower-left corner of the core.
        row_height: override; defaults to the library row height.
        site_width: override; defaults to the library site width.
    """
    if not 0.0 < target_utilization <= 1.0:
        raise OptionsError("target utilization must be in (0, 1]")
    lib = netlist.library
    rh = row_height if row_height is not None else (lib.row_height if lib else 8.0)
    sw = site_width if site_width is not None else (lib.site_width if lib else 1.0)
    area = netlist.total_movable_area() / target_utilization
    if area <= 0:
        raise ValidationError("netlist has no movable area")
    width = math.sqrt(area / aspect_ratio)
    height = width * aspect_ratio
    # round to whole rows/sites, never shrinking below the target area
    num_rows = max(1, math.ceil(height / rh))
    width = math.ceil(max(width, area / (num_rows * rh)) / sw) * sw
    return PlacementRegion(x=origin[0], y=origin[1], width=width,
                           height=num_rows * rh, row_height=rh, site_width=sw)


@dataclass
class BinGrid:
    """A regular grid over the core used for density and congestion.

    Attributes:
        region: The core being gridded.
        nx: Number of bins horizontally.
        ny: Number of bins vertically.
    """

    region: PlacementRegion
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise OptionsError("bin grid needs at least one bin per axis")

    @property
    def bin_w(self) -> float:
        return self.region.width / self.nx

    @property
    def bin_h(self) -> float:
        return self.region.height / self.ny

    @property
    def bin_area(self) -> float:
        return self.bin_w * self.bin_h

    def bin_of(self, px: float, py: float) -> tuple[int, int]:
        """Grid coordinates of the bin containing a point (clamped)."""
        ix = int((px - self.region.x) / self.bin_w)
        iy = int((py - self.region.y) / self.bin_h)
        return (min(max(ix, 0), self.nx - 1), min(max(iy, 0), self.ny - 1))

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """(nx,) x-centers and (ny,) y-centers of the bins."""
        xs = self.region.x + (np.arange(self.nx) + 0.5) * self.bin_w
        ys = self.region.y + (np.arange(self.ny) + 0.5) * self.bin_h
        return xs, ys

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(nx+1,) x-edges and (ny+1,) y-edges of the bins."""
        xs = self.region.x + np.arange(self.nx + 1) * self.bin_w
        ys = self.region.y + np.arange(self.ny + 1) * self.bin_h
        return xs, ys


def default_grid(region: PlacementRegion, n_movable: int,
                 cells_per_bin: float = 12.0) -> BinGrid:
    """A bin grid sized so bins average ``cells_per_bin`` of the
    ``n_movable`` movable cells."""
    n_bins = max(4, int(round(max(n_movable, 1) / cells_per_bin)))
    nx = max(2, int(round(math.sqrt(n_bins * region.width / region.height))))
    ny = max(2, int(round(n_bins / nx)))
    return BinGrid(region=region, nx=nx, ny=ny)
