"""Row model, Tetris legalization, and legality checking.

The Tetris heuristic (Hill, US patent 6370673): process cells in order of
increasing x; for each, scan candidate rows around its global-placement y
and put it at the leftmost free site at-or-right-of its desired x,
choosing the row that minimises displacement.  Each row keeps a single
"frontier" — O(n log n) total, robust, and a fine pre-pass before the
higher-quality Abacus pass.

This module also holds the row model every row pass reads:
:func:`row_blockages` gives each row's blocked spans (fixed cells inside
the core, plus any extra cells a pass must route around), and
:func:`rows_spanned` is the one rule for which rows a box covers.  Tetris,
row-scan, Abacus's segments, the blocks planner, row reordering and
:func:`check_legal` all read it, so they agree on what a legal site is:
no movable cell may cover a fixed cell inside the core.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from ..errors import LegalizationError
from ..netlist import Cell, Netlist
from .region import PlacementRegion


def rows_spanned(region: PlacementRegion, y: float, height: float,
                 tol: float = 1e-6) -> range:
    """Indices of the rows a box from ``y`` to ``y + height`` overlaps by
    more than ``tol``, clipped to the region: the one rule every row pass
    uses to map a box onto rows."""
    j0 = int(np.floor((y - region.y + tol) / region.row_height))
    j1 = int(np.ceil((y + height - region.y - tol) / region.row_height))
    return range(max(j0, 0), min(j1, region.num_rows))


def row_blockages(netlist: Netlist, region: PlacementRegion,
                  extra: Iterable[Cell] = ()
                  ) -> list[list[tuple[float, float]]]:
    """Per-row blocked spans: the one row model of every row pass.

    A fixed cell overlapping the core blocks each row its box overlaps
    (:func:`rows_spanned`), clipped to that row; ``extra`` cells
    (already-placed movable cells a pass must route around) block the
    same way.

    Returns:
        ``spans[j]``: row ``j``'s blocked ``(x0, x1)`` spans, sorted and
        merged, so they are disjoint.
    """
    per_row: list[list[tuple[float, float]]] = [[] for _ in region.rows]
    for cell in [*extra, *netlist.fixed_cells()]:
        for j in rows_spanned(region, cell.y, cell.height):
            row = region.rows[j]
            a = max(cell.x, row.x)
            b = min(cell.x + cell.width, row.x_end)
            if b > a:
                per_row[j].append((a, b))
    merged_rows: list[list[tuple[float, float]]] = []
    for spans in per_row:
        merged: list[tuple[float, float]] = []
        for a, b in sorted(spans):
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        merged_rows.append(merged)
    return merged_rows


def blocked(spans: list[tuple[float, float]], x0: float, x1: float,
            tol: float = 1e-6) -> bool:
    """True if one of a row's sorted, disjoint ``spans`` overlaps
    ``(x0, x1)`` by more than ``tol`` (abutting is not overlapping)."""
    i = bisect.bisect_left(spans, (x1 - tol,)) - 1
    return i >= 0 and spans[i][1] > x0 + tol


@dataclass
class _RowState:
    """Per-row occupied intervals, kept sorted and disjoint."""

    y: float
    x0: float
    x1: float
    site: float
    occupied: list[tuple[float, float]] = field(default_factory=list)

    def first_fit(self, want_x: float, width: float) -> float | None:
        """Leftmost legal x >= (snap of) want_x - slack, preferring minimal
        |x - want_x|; returns the chosen x or None if the row is full."""
        x = max(self.x0, min(want_x, self.x1 - width))
        x = self.x0 + round((x - self.x0) / self.site) * self.site
        best: float | None = None
        best_cost = float("inf")
        # candidate: at want position pushed right past overlaps
        cand = x
        for (a, b) in self.occupied:
            if cand + width <= a:
                break
            if cand < b:
                cand = b
        cand = self.x0 + np.ceil((cand - self.x0) / self.site - 1e-9) * self.site
        if cand + width <= self.x1 + 1e-9:
            best, best_cost = cand, abs(cand - want_x)
        # candidate: nearest gap to the left
        prev_end = self.x0
        for (a, b) in self.occupied + [(self.x1, self.x1)]:
            gap_start, gap_end = prev_end, a
            prev_end = b
            if gap_end - gap_start + 1e-9 < width:
                continue
            gx = min(max(want_x, gap_start), gap_end - width)
            gx = self.x0 + round((gx - self.x0) / self.site) * self.site
            gx = min(max(gx, gap_start), gap_end - width)
            cost = abs(gx - want_x)
            if cost < best_cost:
                best, best_cost = gx, cost
        return best

    def insert(self, x: float, width: float) -> None:
        """Mark [x, x+width) occupied (assumed non-overlapping)."""
        bisect.insort(self.occupied, (x, x + width))


def _row_states(netlist: Netlist, region: PlacementRegion,
                extra: Iterable[Cell] = ()) -> list[_RowState]:
    """One :class:`_RowState` per row, seeded with its blocked spans."""
    return [_RowState(y=r.y, x0=r.x, x1=r.x_end, site=r.site_width,
                      occupied=spans)
            for r, spans in zip(region.rows,
                                row_blockages(netlist, region, extra))]


@dataclass
class LegalizeResult:
    """Summary of a legalization pass."""

    total_displacement: float
    max_displacement: float
    failed: list[str] = field(default_factory=list)  # cell names not placed

    @property
    def ok(self) -> bool:
        return not self.failed


def tetris_legalize(netlist: Netlist, region: PlacementRegion, *,
                    cells: list[Cell] | None = None,
                    obstacles: list[Cell] | None = None,
                    row_search_span: int = 8) -> LegalizeResult:
    """Legalize ``cells`` (default: all movable) onto the region's rows.

    Positions are updated in place.  Fixed cells inside the core — plus any
    explicitly supplied ``obstacles`` (e.g. already-legalized datapath
    groups) — block sites.

    Args:
        netlist: the design (positions read and written).
        region: row geometry.
        cells: subset to legalize; default all movable cells.
        obstacles: extra blockages beyond fixed cells.
        row_search_span: rows examined on each side of the desired row.

    Returns:
        Displacement statistics; ``failed`` lists cells that fit nowhere
        (pathological utilization).
    """
    if cells is None:
        cells = netlist.movable_cells()
    rows = _row_states(netlist, region, obstacles or ())

    order = sorted(cells, key=lambda c: c.x)
    total_disp = 0.0
    max_disp = 0.0
    failed: list[str] = []
    for cell in order:
        want_x, want_y = cell.x, cell.center_y
        base = region.nearest_row(want_y).index
        best: tuple[float, int, float] | None = None  # (cost, row, x)
        span = row_search_span
        while best is None and span <= max(region.num_rows, row_search_span):
            for dj in range(-span, span + 1):
                j = base + dj
                if j < 0 or j >= len(rows):
                    continue
                x = rows[j].first_fit(want_x, cell.width)
                if x is None:
                    continue
                dy = abs(rows[j].y + region.row_height / 2.0 - want_y)
                cost = abs(x - want_x) + dy
                if best is None or cost < best[0]:
                    best = (cost, j, x)
            span *= 2
        if best is None:
            failed.append(cell.name)
            continue
        cost, j, x = best
        dx = x - cell.x
        dy = rows[j].y - cell.y
        disp = abs(dx) + abs(dy)
        total_disp += disp
        max_disp = max(max_disp, disp)
        cell.x = x
        cell.y = rows[j].y
        rows[j].insert(x, cell.width)
    return LegalizeResult(total_displacement=total_disp,
                          max_displacement=max_disp, failed=failed)


def row_scan_place(netlist: Netlist, region: PlacementRegion, *,
                   cells: list[Cell] | None = None) -> int:
    """Legalize-anything fallback: deterministic row-scan packing.

    Ignores current positions entirely — cells are packed left-to-right,
    row-by-row, around fixed-cell blockages, in a deterministic order
    (tallest/widest first, then by name).  This is the bottom rung of the
    degradation ladder: it sacrifices all wirelength quality for the
    guarantee that any design whose cells physically fit gets a legal
    placement.

    Returns:
        The number of cells placed.

    Raises:
        LegalizationError: some cell fits in no row — the design
            genuinely does not fit the region.
    """
    if cells is None:
        cells = netlist.movable_cells()
    rows = _row_states(netlist, region)

    order = sorted(cells, key=lambda c: (-c.height, -c.width, c.name))
    unplaced: list[str] = []
    placed = 0
    for cell in order:
        chosen: tuple[int, float] | None = None
        for j, row in enumerate(rows):
            x = row.first_fit(row.x0, cell.width)
            if x is not None:
                chosen = (j, x)
                break
        if chosen is None:
            unplaced.append(cell.name)
            continue
        j, x = chosen
        rows[j].insert(x, cell.width)
        cell.x = x
        cell.y = rows[j].y
        placed += 1
    if unplaced:
        raise LegalizationError(
            f"row-scan packing could not place {len(unplaced)} of "
            f"{len(cells)} cells — design does not fit the region",
            design=netlist.name, cells=unplaced)
    return placed


def check_legal(netlist: Netlist, region: PlacementRegion,
                tol: float = 1e-6) -> list[str]:
    """Verify a placement is legal.

    Returns a list of human-readable violations: movable cells outside the
    core, off-row, off-site, covering a fixed cell inside the core (the
    spans of :func:`row_blockages`), or overlapping (pairwise within each
    row).  Fixed cells outside the core and fixed-fixed overlaps are not
    violations.
    """
    problems: list[str] = []
    spans = row_blockages(netlist, region)
    by_row: dict[int, list] = {}
    for cell in netlist.movable_cells():
        if not region.contains_cell(cell.x, cell.y, cell.width, cell.height,
                                    tol):
            problems.append(f"{cell.name}: outside core")
            continue
        rel = (cell.y - region.y) / region.row_height
        if abs(rel - round(rel)) > tol:
            problems.append(f"{cell.name}: not row-aligned (y={cell.y})")
        row = region.row_at(cell.y + tol)
        srel = (cell.x - row.x) / row.site_width
        if abs(srel - round(srel)) > 1e-4:
            problems.append(f"{cell.name}: not site-aligned (x={cell.x})")
        for j in rows_spanned(region, cell.y, cell.height, tol):
            by_row.setdefault(j, []).append(cell)
            if blocked(spans[j], cell.x, cell.x + cell.width, tol):
                problems.append(f"{cell.name}: covers a fixed cell in row {j}")
    for j, row_cells in by_row.items():
        row_cells.sort(key=lambda c: c.x)
        for a, b in zip(row_cells, row_cells[1:]):
            if a.x + a.width > b.x + tol:
                problems.append(f"overlap in row {j}: {a.name} / {b.name}")
    return problems
