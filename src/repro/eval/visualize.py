"""Terminal visualization of placements.

Dependency-free ASCII rendering for quick inspection of placement results
— the library runs in environments without matplotlib, and a character
grid is enough to see whether datapath arrays are in formation.

- :func:`render_placement` — the die as a character grid; extracted
  arrays get per-array letters, glue is ``.``, fixed cells ``#``.
- :func:`render_density` — bin utilization heat map in shade characters.
- :func:`render_slice_profile` — one array's slice rows with stage
  alignment marks.
"""

from __future__ import annotations

import numpy as np

from ..netlist import Netlist
from ..place.arrays import PlacementArrays
from ..place.density import density_map
from ..place.region import BinGrid, PlacementRegion, default_grid

_SHADES = " .:-=+*#%@"


def _grid_for(region: PlacementRegion, width: int, height: int
              ) -> tuple[np.ndarray, float, float]:
    canvas = np.full((height, width), " ", dtype="<U1")
    sx = region.width / width
    sy = region.height / height
    return canvas, sx, sy


def render_placement(netlist: Netlist, region: PlacementRegion, *,
                     arrays: list[list[str]] | None = None,
                     width: int = 96, height: int = 32) -> str:
    """Render cell positions as a character grid.

    Args:
        netlist: placed design.
        region: die.
        arrays: optional list of cell-name groups; group *k* renders as
            the letter ``chr(ord('A') + k % 26)``.
        width / height: canvas size in characters.

    Returns:
        The multi-line string (top row = top of the die).
    """
    canvas, sx, sy = _grid_for(region, width, height)
    group_of: dict[str, int] = {}
    for k, names in enumerate(arrays or []):
        for name in names:
            group_of[name] = k

    def plot(cell, ch: str) -> None:
        i = int((cell.center_x - region.x) / sx)
        j = int((cell.center_y - region.y) / sy)
        if 0 <= i < width and 0 <= j < height:
            canvas[height - 1 - j, i] = ch

    for cell in netlist.cells:
        if cell.fixed:
            plot(cell, "#")
    for cell in netlist.movable_cells():
        k = group_of.get(cell.name)
        plot(cell, "." if k is None else chr(ord("A") + k % 26))

    border = "+" + "-" * width + "+"
    rows = ["|" + "".join(row) + "|" for row in canvas]
    return "\n".join([border] + rows + [border])


def render_density(netlist: Netlist, region: PlacementRegion, *,
                   grid: BinGrid | None = None) -> str:
    """Render the bin utilization map as shade characters (1.0 ≈ '#')."""
    grid = grid or default_grid(region, len(netlist.movable_cells()))
    arrays = PlacementArrays.build(netlist)
    pos = netlist.positions()
    u = density_map(arrays, pos[:, 0], pos[:, 1], grid, include_fixed=True)
    peak = max(float(u.max()), 1e-9)
    lines = []
    for j in reversed(range(grid.ny)):
        chars = []
        for i in range(grid.nx):
            level = min(u[i, j] / max(peak, 1.0), 1.0)
            chars.append(_SHADES[int(level * (len(_SHADES) - 1))])
        lines.append("".join(chars))
    lines.append(f"(peak utilization {peak:.2f})")
    return "\n".join(lines)


def render_slice_profile(netlist: Netlist, slices: list[list[str]], *,
                         max_slices: int = 16) -> str:
    """Render one array's slices: row index, x span, and formation flag.

    A compact textual check of the structural guarantee: every formed
    slice shows as one contiguous ``[x0..x1]@row`` span.
    """
    lines = []
    for b, names in enumerate(slices[:max_slices]):
        cells = [netlist.cell(n) for n in names if netlist.has_cell(n)]
        if not cells:
            continue
        ys = {round(c.y, 6) for c in cells}
        ordered = sorted(cells, key=lambda c: c.x)
        contiguous = all(abs(nb.x - (a.x + a.width)) < 1e-6
                         for a, nb in zip(ordered, ordered[1:]))
        formed = len(ys) == 1 and contiguous
        mark = "formed " if formed else "SCATTER"
        x0 = min(c.x for c in cells)
        x1 = max(c.x + c.width for c in cells)
        rows = ",".join(f"{y:.0f}" for y in sorted(ys)[:4])
        lines.append(f"bit {b:3d}  {mark}  x[{x0:7.1f},{x1:7.1f}] "
                     f"y({rows}{'...' if len(ys) > 4 else ''})")
    if len(slices) > max_slices:
        lines.append(f"... and {len(slices) - max_slices} more slices")
    return "\n".join(lines)
