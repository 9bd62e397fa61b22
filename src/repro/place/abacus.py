"""Abacus row-based legalization (Spindler, Schlichtmann, Johannes 2008).

Cells are processed in order of increasing x.  For each cell, candidate
rows near its global position are *trial-inserted*: within a row, placed
cells form clusters that are shifted/merged so that cells keep their order
and abut without overlap, minimising total quadratic displacement — the
classic dynamic clustering recurrence.  The row with the cheapest trial
cost wins; the insertion is then committed.

Compared to Tetris, Abacus moves earlier cells to make room (clusters
shift), producing noticeably lower displacement.  The blocked spans of
the shared row model (:func:`repro.place.legalize.row_blockages`) split
rows into independent segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netlist import Cell, Netlist
from ..runtime.telemetry import Tracer
from .legalize import LegalizeResult, row_blockages
from .region import PlacementRegion


@dataclass
class _Cluster:
    """A maximal group of abutting cells within a segment."""

    x: float = 0.0        # left edge at its optimum, recorded on commit
    width: float = 0.0
    weight: float = 0.0
    q: float = 0.0        # weighted sum of (desired_x - offset_in_cluster)
    cells: list[Cell] = field(default_factory=list)
    # (desired x, width) per cell, parallel to ``cells``: what pricing reads
    spans: list[tuple[float, float]] = field(default_factory=list)
    # displacement cost at left edge ``x`` and its one-sided slopes there
    # (the cost is convex in the left edge), recorded on commit
    cost: float = 0.0
    slope_right: int = 0  # n - 2 * #cells left of their desired x
    slope_left: int = 0   # 2 * #cells right of their desired x - n

    def add_cell(self, cell: Cell, desired_x: float, weight: float = 1.0
                 ) -> None:
        self.cells.append(cell)
        self.spans.append((desired_x, cell.width))
        self.q += weight * (desired_x - self.width)
        self.width += cell.width
        self.weight += weight

    def merge(self, other: "_Cluster") -> None:
        """Absorb ``other`` (to this cluster's right)."""
        self.q += other.q - other.weight * self.width
        self.width += other.width
        self.weight += other.weight
        self.cells.extend(other.cells)
        self.spans.extend(other.spans)

    def optimal_x(self, seg_x0: float, seg_x1: float) -> float:
        x = self.q / max(self.weight, 1e-12)
        return min(max(x, seg_x0), seg_x1 - self.width)


@dataclass
class _Segment:
    """A free stretch of one row between obstacles."""

    y: float
    x0: float
    x1: float
    site: float
    clusters: list[_Cluster] = field(default_factory=list)
    # running total of cluster widths (incremental ``capacity_left``)
    used: float = 0.0
    # running sum of per-cluster displacement costs at their current
    # optimal positions (``prefix[i]`` covers ``clusters[:i]``) — lets a
    # trial price untouched clusters without walking their cells
    prefix: list[float] = field(default_factory=lambda: [0.0])

    def capacity_left(self) -> float:
        return (self.x1 - self.x0) - self.used

    def displacement_floor(self, desired_x: float, width: float) -> float:
        """Lower bound on a new cell's own displacement in this segment.

        Its left edge lands in ``[x0, x1 - width]``, so it moves at least
        the distance from ``desired_x`` to that span; the price of any
        trial is at least this much.
        """
        return max(self.x0 - desired_x, desired_x - (self.x1 - width), 0.0)

    def _cluster_cost(self, cl: _Cluster) -> float:
        """Walk ``cl`` at its optimum; records its cost and slopes."""
        run = cl.x = cl.optimal_x(self.x0, self.x1)
        cost = 0.0
        behind = ahead = 0
        for want, w in cl.spans:
            d = run - want
            if d < 0.0:
                behind += 1
            elif d > 0.0:
                ahead += 1
            cost += abs(d)
            run += w
        n = len(cl.spans)
        cl.cost = cost
        cl.slope_right = n - 2 * behind
        cl.slope_left = 2 * ahead - n
        return cost

    def trial_add(self, cell: Cell, desired_x: float,
                  bound: float | None = None
                  ) -> tuple[float, int, tuple[float, float, float]] | None:
        """Price adding ``cell`` at the segment's right end.

        Cells arrive in increasing-x order and pre-existing clusters are
        mutually non-overlapping at their optimal positions, so the
        Abacus collapse can only cascade leftward from the appended
        cluster.  The trial therefore folds the new cell into a running
        composite ``(q, weight, width)`` and absorbs left neighbours
        while they overlap — O(affected clusters), no copying — then
        prices the composite by walking only the absorbed cells; every
        untouched cluster contributes its cached cost via the prefix
        sums.  Semantically identical to collapsing a full copy of the
        cluster list and walking every cell.

        Before the walk, a lower bound on the price comes from the
        clusters' recorded costs: a cluster's cost is convex in its left
        edge, so shifted by ``s`` it costs at least ``cost + s * slope``
        with the slope of that side (and never below 0).

        Args:
            bound: skip the walk when that lower bound is already at
                least this; the caller leaves room for rounding.

        Returns:
            ``(total_cost, keep, (q, weight, width))`` where
            ``clusters[:keep]`` survive unchanged and the composite
            replaces the rest (see :meth:`commit`), or None if the
            segment lacks space or the trial cannot get under ``bound``.
        """
        width = cell.width
        if width > self.capacity_left() + 1e-9:
            return None
        # composite of the would-be rightmost cluster, seeded with the
        # new cell exactly as _Cluster.add_cell would
        q = desired_x
        weight = 1.0
        keep = len(self.clusters)
        while keep > 0:
            prev = self.clusters[keep - 1]
            comp_x = min(max(q / max(weight, 1e-12), self.x0),
                         self.x1 - width)
            if prev.x + prev.width <= comp_x + 1e-9:
                break
            # prev absorbs the composite (composite sits to prev's right)
            q = prev.q + q - weight * prev.width
            width = prev.width + width
            weight = prev.weight + weight
            keep -= 1
        run = min(max(q / max(weight, 1e-12), self.x0), self.x1 - width)
        if bound is not None:
            floor = self.prefix[keep]
            at = run
            for cl in self.clusters[keep:]:
                shift = at - cl.x
                slope = cl.slope_right if shift > 0.0 else cl.slope_left
                floor += max(0.0, cl.cost + shift * slope)
                at += cl.width
            if floor + abs(at - desired_x) >= bound:
                return None
        cost = self.prefix[keep]
        for cl in self.clusters[keep:]:
            for want, w in cl.spans:
                cost += abs(run - want)
                run += w
        cost += abs(run - desired_x)
        return cost, keep, (q, weight, width)

    def commit(self, cell: Cell, desired_x: float, keep: int,
               composite: tuple[float, float, float]) -> None:
        """Apply a :meth:`trial_add` result: ``cell`` joins the right end
        and the composite cluster replaces ``clusters[keep:]``."""
        if keep == len(self.clusters):
            self.clusters.append(_Cluster())
        merged = self.clusters[keep]
        for cl in self.clusters[keep + 1:]:
            merged.cells.extend(cl.cells)
            merged.spans.extend(cl.spans)
        del self.clusters[keep + 1:]
        merged.q, merged.weight, merged.width = composite
        merged.cells.append(cell)
        merged.spans.append((desired_x, cell.width))
        del self.prefix[keep + 1:]
        self.prefix.append(self.prefix[keep] + self._cluster_cost(merged))
        self.used += cell.width

    def realize(self, region: PlacementRegion) -> None:
        """Write final, site-snapped positions into the cells."""
        for cl in self.clusters:
            x = cl.optimal_x(self.x0, self.x1)
            x = self.x0 + round((x - self.x0) / self.site) * self.site
            x = min(max(x, self.x0), self.x1 - cl.width)
            run = x
            for c in cl.cells:
                c.x = run
                c.y = self.y
                run += c.width


def _build_segments(netlist: Netlist, region: PlacementRegion,
                    obstacles: list[Cell] | None) -> list[list[_Segment]]:
    """Per-row free segments between the row model's blocked spans."""
    segments: list[list[_Segment]] = []
    for row, spans in zip(region.rows,
                          row_blockages(netlist, region, obstacles or ())):
        segs: list[_Segment] = []
        cursor = row.x
        for (a, b) in [*spans, (row.x_end, row.x_end)]:
            if a - cursor >= 1e-9:
                segs.append(_Segment(y=row.y, x0=cursor, x1=a,
                                     site=row.site_width))
            cursor = max(cursor, b)
        segments.append(segs)
    return segments


def abacus_legalize(netlist: Netlist, region: PlacementRegion, *,
                    cells: list[Cell] | None = None,
                    obstacles: list[Cell] | None = None,
                    row_search_span: int = 6,
                    tracer: Tracer | None = None) -> LegalizeResult:
    """Legalize with the Abacus dynamic-clustering algorithm.

    Every trial after a cell's first is bounded by the best price so far
    (:meth:`_Segment.trial_add`), so a trial that cannot win skips its
    cell walk.

    Args / returns: as :func:`repro.place.legalize.tetris_legalize`;
    ``tracer`` receives the ``legalize.abacus.trials`` counter (trial
    insertions, full segments included) and ``legalize.abacus.walks``
    (the trials that walked their cells).
    """
    if cells is None:
        cells = netlist.movable_cells()
    segments = _build_segments(netlist, region, obstacles)

    order = sorted(cells, key=lambda c: c.x)
    start_pos = {c.name: (c.x, c.y) for c in order}
    failed: list[str] = []
    trials = walks = 0
    for cell in order:
        want_x, want_y = cell.x, cell.center_y
        width = cell.width
        base = region.nearest_row(want_y).index
        best: tuple[float, _Segment, int,
                    tuple[float, float, float]] | None = None
        span = row_search_span
        while best is None and span <= 4 * max(region.num_rows,
                                               row_search_span):
            for dj in range(-span, span + 1):
                j = base + dj
                if j < 0 or j >= len(segments):
                    continue
                dy = abs(region.rows[j].y + region.row_height / 2.0 - want_y)
                for seg in segments[j]:
                    # skip segments where even the new cell's own move
                    # cannot win (margin: the priced walk rounds)
                    if best is not None and (
                            dy >= best[0] or
                            dy + seg.displacement_floor(want_x, width)
                            >= best[0] + 1e-6):
                        continue
                    trials += 1
                    trial = seg.trial_add(
                        cell, want_x,
                        None if best is None else best[0] + 1e-6 - dy)
                    if trial is None:
                        continue
                    walks += 1
                    cost, keep, composite = trial
                    total = cost + dy
                    if best is None or total < best[0]:
                        best = (total, seg, keep, composite)
            span *= 2
        if best is None:
            failed.append(cell.name)
            continue
        _cost, seg, keep, composite = best
        seg.commit(cell, want_x, keep, composite)
    if tracer is not None:
        tracer.incr("legalize.abacus.trials", trials)
        tracer.incr("legalize.abacus.walks", walks)

    total_disp = 0.0
    max_disp = 0.0
    for row_segs in segments:
        for seg in row_segs:
            seg.realize(region)
    failed_names = set(failed)
    for cell in order:
        if cell.name in failed_names:
            continue
        sx, sy = start_pos[cell.name]
        disp = abs(cell.x - sx) + abs(cell.y - sy)
        total_disp += disp
        max_disp = max(max_disp, disp)
    return LegalizeResult(total_displacement=total_disp,
                          max_displacement=max_disp, failed=failed)
