"""Geometric cell spreading (lookahead legalization) for quadratic GP.

Quadratic wirelength minimisation clumps cells; SimPL-style placement
alternates it with a *rough legalization* that spreads cells out, then pulls
the solution toward the spread positions with anchor pseudo-nets.

:func:`spread_positions` implements recursive area bisection: the region is
split along its longer axis; cells, ordered by coordinate, are partitioned
so that each side's cell area matches its side's capacity; recursion
continues until each leaf holds few cells, which are then distributed
across the leaf.  The result is an (N,) pair of anchor target arrays with
bin utilization ≲ target everywhere, at minimum geometric disturbance of
the relative cell order (which is what preserves wirelength quality).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import PlacementArrays
from .region import PlacementRegion


@dataclass
class _Leaf:
    cells: np.ndarray  # netlist cell indices
    x0: float
    y0: float
    x1: float
    y1: float


def _partition(order: np.ndarray, areas: np.ndarray,
               frac: float) -> int:
    """Index splitting ``order`` so the left part holds ``frac`` of area."""
    csum = np.cumsum(areas[order])
    total = csum[-1]
    if total <= 0:
        return len(order) // 2
    split = int(np.searchsorted(csum, frac * total))
    return min(max(split, 1), len(order) - 1)


def spread_positions(arrays: PlacementArrays, x: np.ndarray, y: np.ndarray,
                     region: PlacementRegion, *,
                     target_utilization: float = 0.85,
                     max_cells_per_leaf: int = 4,
                     groups: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Compute spread anchor targets for all movable cells.

    Args:
        arrays: flattened netlist.
        x / y: current centers, (N,).
        region: placement region.
        target_utilization: capacity scale; < 1 leaves legalization slack.
        max_cells_per_leaf: recursion stops at this population.
        groups: optional (N,) int array; cells sharing a non-negative group
            id are treated as one rigid unit — they receive a common
            translation rather than independent spreading (used for fused
            datapath slices).

    Returns:
        (ax, ay): anchor targets; fixed cells keep their coordinates.
    """
    ax = x.copy()
    ay = y.copy()
    movable_idx = np.nonzero(arrays.movable)[0]
    if len(movable_idx) == 0:
        return ax, ay

    areas = arrays.area.copy()

    # Collapse rigid groups to their (area-weighted) representative.
    rep_of: dict[int, int] = {}
    rep_x = x.copy()
    rep_y = y.copy()
    rep_area = areas.copy()
    active: list[int] = []
    if groups is not None:
        members: dict[int, list[int]] = {}
        for k in movable_idx:
            gid = int(groups[k])
            if gid >= 0:
                members.setdefault(gid, []).append(int(k))
            else:
                active.append(int(k))
        for gid, cells in members.items():
            cells_arr = np.asarray(cells)
            a = areas[cells_arr]
            rep = int(cells_arr[0])
            rep_of[gid] = rep
            rep_x[rep] = float(np.average(x[cells_arr], weights=a))
            rep_y[rep] = float(np.average(y[cells_arr], weights=a))
            rep_area[rep] = float(a.sum())
            active.append(rep)
        active_arr = np.asarray(sorted(active), dtype=np.int64)
    else:
        active_arr = movable_idx

    # ------------------------------------------------------------------
    # recursive bisection over the active representatives
    # ------------------------------------------------------------------
    leaves: list[_Leaf] = []
    capacity_density = target_utilization

    def recurse(cells: np.ndarray, x0: float, y0: float, x1: float,
                y1: float) -> None:
        if len(cells) == 0:
            return
        cap = (x1 - x0) * (y1 - y0) * capacity_density
        if len(cells) <= max_cells_per_leaf or cap <= 0:
            leaves.append(_Leaf(cells, x0, y0, x1, y1))
            return
        if (x1 - x0) >= (y1 - y0):
            order = cells[np.argsort(rep_x[cells], kind="stable")]
            split = _partition(order, rep_area, 0.5)
            xm = x0 + (x1 - x0) * 0.5
            recurse(order[:split], x0, y0, xm, y1)
            recurse(order[split:], xm, y0, x1, y1)
        else:
            order = cells[np.argsort(rep_y[cells], kind="stable")]
            split = _partition(order, rep_area, 0.5)
            ym = y0 + (y1 - y0) * 0.5
            recurse(order[:split], x0, y0, x1, ym)
            recurse(order[split:], x0, ym, x1, y1)

    recurse(active_arr, region.x, region.y, region.x_end, region.y_top)

    # ------------------------------------------------------------------
    # distribute leaf populations across their leaf box
    # ------------------------------------------------------------------
    for leaf in leaves:
        n = len(leaf.cells)
        w = leaf.x1 - leaf.x0
        h = leaf.y1 - leaf.y0
        if n == 1:
            k = int(leaf.cells[0])
            ax[k] = leaf.x0 + w / 2.0
            ay[k] = leaf.y0 + h / 2.0
            continue
        # order cells by x and lay them on a small grid inside the leaf,
        # preserving relative order to minimise disturbance
        cols = int(np.ceil(np.sqrt(n * max(w, 1e-9) / max(h, 1e-9))))
        cols = min(max(cols, 1), n)
        rows_n = int(np.ceil(n / cols))
        order = leaf.cells[np.argsort(rep_x[leaf.cells], kind="stable")]
        for slot, k in enumerate(order):
            r, c = divmod(slot, cols)
            ax[int(k)] = leaf.x0 + (c + 0.5) * w / cols
            ay[int(k)] = leaf.y0 + (r + 0.5) * h / rows_n

    # expand group representatives back to members (common translation)
    if groups is not None:
        for gid, rep in rep_of.items():
            dx = ax[rep] - rep_x[rep]
            dy = ay[rep] - rep_y[rep]
            member_mask = (groups == gid) & arrays.movable
            ax[member_mask] = x[member_mask] + dx
            ay[member_mask] = y[member_mask] + dy

    # clamp to the core
    half_w = arrays.width / 2.0
    half_h = arrays.height / 2.0
    mv = arrays.movable
    ax[mv] = np.clip(ax[mv], region.x + half_w[mv],
                     region.x_end - half_w[mv])
    ay[mv] = np.clip(ay[mv], region.y + half_h[mv],
                     region.y_top - half_h[mv])
    return ax, ay
