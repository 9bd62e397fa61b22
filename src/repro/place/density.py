"""Bin density model for analytical placement.

Two services:

- :func:`density_map` / :func:`overflow` — exact area-overlap binning used
  for reporting and for the spreading step's supply/demand accounting.
- :class:`BellDensity` — the differentiable bell-shaped density potential
  of NTUplace (Chen et al.), used as the penalty term by the nonlinear
  placer.  Each cell spreads its area over nearby bins with a C1-continuous
  bump; the penalty is ``sum_b (phi_b - target_b)^2`` with an analytic
  gradient.

Both paths run on the vectorized raster/bell kernels of
:mod:`repro.kernels.density`; the original nested-loop implementations
survive as references in :mod:`repro.kernels.reference`.
"""

from __future__ import annotations

import numpy as np

from ..kernels import Workspace, bell_value_grad, rasterize_overlap
from .arrays import PlacementArrays
from .region import BinGrid
from ..errors import OptionsError


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


class BellDensity:
    """Differentiable bell-shaped density penalty (NTUplace style).

    Each movable cell contributes a separable bump ``p(dx) * p(dy)`` to
    bins within two bin pitches, where ``p`` is the piecewise-quadratic
    bell of Chen et al.; contributions are scaled so each cell deposits
    exactly its own area.  The penalty is

        D(x, y) = sum_b (phi_b - t_b)^2

    with ``t_b`` the per-bin target area (uniform share of movable area
    over usable bins, plus fixed-cell blockage subtracted from supply).
    """

    def __init__(self, arrays: PlacementArrays, grid: BinGrid,
                 target_density: float = 1.0) -> None:
        self.arrays = arrays
        self.grid = grid
        self.target_density = target_density
        # per-design scratch arena: the bell kernel's (C, Sx, Sy)
        # contribution tensor and friends are reused across iterations
        self.workspace = Workspace()
        self._cx, self._cy = grid.centers()
        self._movable_idx = np.nonzero(arrays.movable)[0]
        # supply per bin: bin area minus fixed blockage, capped at target
        blockage = self._fixed_blockage()
        usable = np.maximum(grid.bin_area * target_density - blockage, 0.0)
        movable_area = float(arrays.area[arrays.movable].sum())
        total_usable = float(usable.sum())
        if total_usable <= 0:
            raise OptionsError("no usable bin capacity for density target")
        self.target = usable * (movable_area / total_usable)

    def _fixed_blockage(self) -> np.ndarray:
        """Exact fixed-cell area per bin."""
        g = self.grid
        fixed = ~self.arrays.movable
        if not fixed.any():
            return np.zeros((g.nx, g.ny))
        x, y = self.arrays.initial_positions()
        return rasterize_overlap(
            x[fixed] - self.arrays.width[fixed] / 2.0,
            x[fixed] + self.arrays.width[fixed] / 2.0,
            y[fixed] - self.arrays.height[fixed] / 2.0,
            y[fixed] + self.arrays.height[fixed] / 2.0,
            nx=g.nx, ny=g.ny, bin_w=g.bin_w, bin_h=g.bin_h,
            origin_x=g.region.x, origin_y=g.region.y)

    def value_grad(self, x: np.ndarray, y: np.ndarray
                   ) -> tuple[float, np.ndarray, np.ndarray]:
        """Penalty value and gradients w.r.t. cell centers."""
        arrays = self.arrays
        g = self.grid
        idx = self._movable_idx
        value, gxm, gym = bell_value_grad(
            x[idx], y[idx],
            arrays.width[idx] / 2.0, arrays.height[idx] / 2.0,
            arrays.area[idx],
            cx=self._cx, cy=self._cy, bin_w=g.bin_w, bin_h=g.bin_h,
            origin_x=g.region.x, origin_y=g.region.y, target=self.target,
            workspace=self.workspace)
        gx = np.zeros(arrays.num_cells)
        gy = np.zeros(arrays.num_cells)
        gx[idx] = gxm
        gy[idx] = gym
        return value, gx, gy
