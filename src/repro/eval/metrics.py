"""Placement quality metrics and the combined evaluation entry point."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..netlist import Netlist
from ..place.arrays import PlacementArrays
from ..place.density import density_map
from ..place.legalize import check_legal
from ..place.region import BinGrid, PlacementRegion, default_grid
from .congestion import CongestionReport, congestion_report
from .steiner import total_steiner


@dataclass(frozen=True)
class PlacementReport:
    """All quality numbers for one placement.

    ``hpwl``/``steiner`` are weighted by net weights (clock nets at weight
    zero are excluded, per standard practice).
    """

    design: str
    hpwl: float
    steiner: float
    max_density: float
    overflow_fraction: float
    congestion: CongestionReport
    legal: bool
    violations: int

    def row(self) -> dict[str, object]:
        return {
            "design": self.design,
            "hpwl": round(self.hpwl, 1),
            "steiner": round(self.steiner, 1),
            "max_den": round(self.max_density, 3),
            "rudy_max": round(self.congestion.max, 3),
            "legal": self.legal,
        }


def total_overlap(netlist: Netlist) -> float:
    """Total pairwise overlap area between movable cells (O(n log n) sweep
    by row bucketing; exact for legalized placements, approximate only in
    that it buckets by cell bottom row)."""
    cells = sorted(netlist.movable_cells(), key=lambda c: (c.y, c.x))
    total = 0.0
    for i, a in enumerate(cells):
        for b in cells[i + 1:]:
            if b.y >= a.y + a.height:
                break
            if b.x >= a.x + a.width:
                continue
            ox = min(a.x + a.width, b.x + b.width) - max(a.x, b.x)
            oy = min(a.y + a.height, b.y + b.height) - max(a.y, b.y)
            if ox > 0 and oy > 0:
                total += ox * oy
    return total


def displacement(before: dict[str, tuple[float, float]],
                 netlist: Netlist) -> tuple[float, float]:
    """(total, max) Manhattan displacement vs a recorded position map."""
    total = 0.0
    worst = 0.0
    for cell in netlist.movable_cells():
        bx, by = before.get(cell.name, (cell.x, cell.y))
        d = abs(cell.x - bx) + abs(cell.y - by)
        total += d
        worst = max(worst, d)
    return total, worst


def snapshot_positions(netlist: Netlist) -> dict[str, tuple[float, float]]:
    """Record current positions, for later displacement accounting."""
    return {c.name: (c.x, c.y) for c in netlist.cells}


def evaluate_placement(netlist: Netlist, region: PlacementRegion,
                       grid: BinGrid | None = None) -> PlacementReport:
    """Compute the full quality report for the current placement."""
    grid = grid or default_grid(region, len(netlist.movable_cells()))
    arrays = PlacementArrays.build(netlist)
    pos = netlist.positions()
    den = density_map(arrays, pos[:, 0], pos[:, 1], grid, include_fixed=True)
    over = np.maximum(den - 1.0, 0.0) * grid.bin_area
    movable_area = netlist.total_movable_area()
    violations = check_legal(netlist, region)
    return PlacementReport(
        design=netlist.name,
        hpwl=netlist.hpwl() - _zero_weight_hpwl(netlist),
        steiner=total_steiner(netlist),
        max_density=float(den.max()),
        overflow_fraction=float(over.sum() / max(movable_area, 1e-12)),
        congestion=congestion_report(netlist, grid),
        legal=not violations,
        violations=len(violations),
    )


def formation_score(netlist: Netlist,
                    slices: list[list[str]], *,
                    tol: float = 1e-6) -> float:
    """Fraction of bit slices placed in row formation.

    A slice is *formed* when all its cells sit in one row and abut
    contiguously in order (any order of the slice's cells along the row).
    This is the structural property the paper's placer guarantees and a
    generic placer almost never produces by accident; it is the metric
    that complements HPWL in the T2 comparison.

    Args:
        netlist: the placed design.
        slices: slice cell-name lists (e.g. from an
            :class:`~repro.core.extraction.ExtractionResult`).
        tol: coordinate tolerance.

    Returns:
        formed slices / total slices (1.0 if there are no slices).
    """
    if not slices:
        return 1.0
    formed = 0
    for names in slices:
        cells = [netlist.cell(n) for n in names if netlist.has_cell(n)]
        if len(cells) <= 1:
            formed += 1
            continue
        ys = {round(c.y, 6) for c in cells}
        if len(ys) != 1:
            continue
        ordered = sorted(cells, key=lambda c: c.x)
        if all(abs(b.x - (a.x + a.width)) <= tol
               for a, b in zip(ordered, ordered[1:])):
            formed += 1
    return formed / len(slices)


def _zero_weight_hpwl(netlist: Netlist) -> float:
    """HPWL contribution of zero-weight nets (always zero by definition —
    Netlist.hpwl already weights; kept for clarity/extension)."""
    return 0.0
