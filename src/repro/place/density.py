"""Bin density model for analytical placement.

:func:`density_map` / :func:`overflow` — exact area-overlap binning used
for reporting and for the spreading step's supply/demand accounting.
They run on the vectorized raster kernel of
:mod:`repro.kernels.density`; the original nested-loop implementation
survives as a reference in :mod:`repro.kernels.reference`.
"""

from __future__ import annotations

import numpy as np

from ..kernels import rasterize_overlap
# no caller in the program: perfbench's kernels.density layer wraps the
# bell kernel under this module's name
from ..kernels import bell_value_grad  # noqa: F401
from .arrays import PlacementArrays
from .region import BinGrid


def density_map(arrays: PlacementArrays, x: np.ndarray, y: np.ndarray,
                grid: BinGrid, include_fixed: bool = False) -> np.ndarray:
    """Exact overlap-area density map, (nx, ny), as utilization in [0, inf).

    Args:
        arrays: flattened netlist.
        x / y: cell centers.
        grid: bin grid.
        include_fixed: also deposit fixed-cell area (terminals).
    """
    sel = np.ones(arrays.num_cells, dtype=bool) if include_fixed \
        else arrays.movable
    area = rasterize_overlap(
        x[sel] - arrays.width[sel] / 2.0,
        x[sel] + arrays.width[sel] / 2.0,
        y[sel] - arrays.height[sel] / 2.0,
        y[sel] + arrays.height[sel] / 2.0,
        nx=grid.nx, ny=grid.ny, bin_w=grid.bin_w, bin_h=grid.bin_h,
        origin_x=grid.region.x, origin_y=grid.region.y)
    return area / grid.bin_area


def overflow(arrays: PlacementArrays, x: np.ndarray, y: np.ndarray,
             grid: BinGrid, target: float = 1.0) -> float:
    """Total density overflow: sum over bins of max(u_b - target, 0) * bin
    area, normalised by total movable area.  0 means fully spread."""
    u = density_map(arrays, x, y, grid)
    excess = np.maximum(u - target, 0.0) * grid.bin_area
    movable_area = float(arrays.area[arrays.movable].sum())
    if movable_area <= 0:
        return 0.0
    return float(excess.sum() / movable_area)

