"""Independent output checks and statistics for the benchmark.

Nothing here calls the placer's own scoring code: HPWL, legality,
extraction F1 and slice formation are recomputed from cell positions
and generator ground truth, so a program change that breaks its own
evaluators still shows up as a failed operation.
"""

from __future__ import annotations

import hashlib
import math
import statistics

import numpy as np

#: tolerance for row/site alignment and overlap, in placement units
TOL = 1e-6


class PinTable:
    """Flat pin view of a netlist's multi-pin nets, built once per design.

    Only connectivity and pin offsets are read from the netlist; the
    wirelength itself is computed by :meth:`hpwl` from positions.
    """

    def __init__(self, netlist) -> None:
        cell: list[int] = []
        dx: list[float] = []
        dy: list[float] = []
        starts: list[int] = []
        weight: list[float] = []
        for net in netlist.nets:
            if len(net.pins) < 2:
                continue
            starts.append(len(cell))
            weight.append(net.weight)
            for ref in net.pins:
                cell.append(ref.cell.index)
                dx.append(ref.pin.x_offset)
                dy.append(ref.pin.y_offset)
        self.cell = np.asarray(cell, dtype=np.int64)
        self.dx = np.asarray(dx, dtype=float)
        self.dy = np.asarray(dy, dtype=float)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.weight = np.asarray(weight, dtype=float)

    def hpwl(self, x: np.ndarray, y: np.ndarray) -> float:
        """Weighted half-perimeter wirelength for lower-left positions."""
        if not len(self.starts):
            return 0.0
        px = x[self.cell] + self.dx
        py = y[self.cell] + self.dy
        span = (np.maximum.reduceat(px, self.starts)
                - np.minimum.reduceat(px, self.starts)
                + np.maximum.reduceat(py, self.starts)
                - np.minimum.reduceat(py, self.starts))
        return float(np.dot(self.weight, span))


def positions(netlist) -> tuple[np.ndarray, np.ndarray]:
    """Lower-left (x, y) arrays in dense cell-index order."""
    cells = netlist.cells
    return (np.fromiter((c.x for c in cells), float, len(cells)),
            np.fromiter((c.y for c in cells), float, len(cells)))


def geometry(netlist) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(width, height, fixed) arrays in dense cell-index order."""
    cells = netlist.cells
    n = len(cells)
    return (np.fromiter((c.width for c in cells), float, n),
            np.fromiter((c.height for c in cells), float, n),
            np.fromiter((c.fixed for c in cells), bool, n))


def hpwl_matches(own: float, program: float, rel: float = 1e-9) -> bool:
    return abs(own - program) <= rel * max(abs(own), abs(program), 1.0)


def legality_violations(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                        h: np.ndarray, fixed: np.ndarray, region, *,
                        fixed_xy: tuple[np.ndarray, np.ndarray] | None = None,
                        limit: int = 20) -> list[str]:
    """Check a placement; returns up to ``limit`` violation strings.

    Movable cells must lie inside the core, sit on a row, sit on the
    site grid, and overlap no other movable cell in any row they span.
    When ``fixed_xy`` (pre-placement positions) is given, every fixed
    cell must still be exactly there.
    """
    problems: list[str] = []
    mov = ~fixed
    rx, ry, rh, site = region.x, region.y, region.row_height, \
        region.site_width
    x_end, y_top = rx + region.width, ry + region.height

    outside = mov & ((x < rx - TOL) | (y < ry - TOL)
                     | (x + w > x_end + TOL) | (y + h > y_top + TOL))
    for i in np.flatnonzero(outside)[:limit]:
        problems.append(f"cell {i}: outside core")
    rel_row = (y - ry) / rh
    off_row = mov & (np.abs(rel_row - np.round(rel_row)) > TOL)
    for i in np.flatnonzero(off_row)[:limit]:
        problems.append(f"cell {i}: off row (y={y[i]})")
    row_x = np.array([r.x for r in region.rows])
    row_of = np.clip(np.round(rel_row).astype(np.int64), 0,
                     region.num_rows - 1)
    rel_site = (x - row_x[row_of]) / site
    off_site = mov & (np.abs(rel_site - np.round(rel_site)) > 1e-4)
    for i in np.flatnonzero(off_site)[:limit]:
        problems.append(f"cell {i}: off site grid (x={x[i]})")

    if fixed_xy is not None:
        fx, fy = fixed_xy
        moved = fixed & ((x != fx) | (y != fy))
        for i in np.flatnonzero(moved)[:limit]:
            problems.append(f"cell {i}: fixed cell moved")

    # row occupancy among movable cells; fixed cells are I/O terminals
    # (pins on the core boundary), not row obstacles
    take = np.flatnonzero(mov)
    j0 = np.clip(np.round(rel_row[take]).astype(np.int64), 0,
                 region.num_rows - 1)
    j1 = np.clip((np.ceil((y[take] + h[take] - ry) / rh - TOL) - 1)
                 .astype(np.int64), 0, region.num_rows - 1)
    spans = np.maximum(j1 - j0 + 1, 1)
    idx = np.repeat(take, spans)
    row = np.repeat(j0, spans) + (np.arange(len(idx))
                                  - np.repeat(np.cumsum(spans) - spans, spans))
    order = np.lexsort((x[idx], row))
    idx, row = idx[order], row[order]
    end = x + w
    # a cell overlaps when it starts before the furthest right edge seen
    # so far in its row
    reach = np.full(len(idx), -np.inf)
    same = np.r_[False, row[1:] == row[:-1]]
    for k in range(1, len(idx)):
        if same[k]:
            reach[k] = max(reach[k - 1], end[idx[k - 1]])
    for k in np.flatnonzero(x[idx] < reach - TOL)[:limit]:
        problems.append(f"overlap in row {row[k]}: cell {idx[k]}")
    return problems[:limit]


def digest(x: np.ndarray, y: np.ndarray) -> str:
    """Short content hash of a placement's positions."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(y, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def extraction_f1(truth_cells: set[str], found_cells: set[str]) -> float:
    """Cell-level F1 of "this cell belongs to a datapath array"."""
    tp = len(truth_cells & found_cells)
    if not tp:
        return 0.0
    precision = tp / len(found_cells)
    recall = tp / len(truth_cells)
    return 2.0 * precision * recall / (precision + recall)


def formed_slices(slices: list[list], tol: float = TOL) -> tuple[int, int]:
    """(formed, total) over slices given as lists of placed cells.

    A slice is formed when all its cells share one row and abut
    contiguously when sorted by x.
    """
    formed = 0
    for cells in slices:
        if len(cells) <= 1:
            formed += 1
            continue
        if len({round(c.y, 6) for c in cells}) != 1:
            continue
        ordered = sorted(cells, key=lambda c: c.x)
        if all(abs(b.x - (a.x + a.width)) <= tol
               for a, b in zip(ordered, ordered[1:])):
            formed += 1
    return formed, len(slices)


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile that refuses thin tails.

    Raises:
        ValueError: fewer than :data:`MIN_BEYOND` samples lie beyond the
            requested rank, so the percentile would rest on too few
            observations to be reported.
    """
    n = len(values)
    rank = max(math.ceil(q / 100.0 * n), 1)
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"need at least {MIN_BEYOND}")
    return sorted(values)[rank - 1]
