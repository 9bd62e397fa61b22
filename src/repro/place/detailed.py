"""Detailed placement: legal-preserving local refinement.

Two passes, both HPWL-greedy and legality-preserving:

- **Global swap** (:func:`global_swap_pass`): for each cell, try swapping
  with the nearest same-footprint cells it shares a small net with
  (:func:`swap_partners`); accept improving swaps.
- **Row reorder** (:func:`row_reorder_pass`): within each row, slide a
  window of ``k`` consecutive cells and try all permutations, keeping the
  best (branch-free exact for small k).  A window re-packs only where the
  shared row model (:func:`repro.place.legalize.row_blockages`) has no
  fixed cell.

The driver :func:`detailed_place` alternates the passes until no pass
improves by more than ``min_gain``.  Cells whose ``frozen`` set membership
is given (e.g. datapath group members in the structure-aware flow) are
never moved, so extracted structure survives refinement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..kernels import IncrementalHPWL
from ..netlist import Cell, Netlist
from ..runtime.telemetry import Tracer
from .legalize import blocked, row_blockages, rows_spanned
from .region import PlacementRegion
from ..errors import OptionsError


def _swap(a: Cell, b: Cell) -> None:
    a.x, b.x = b.x, a.x
    a.y, b.y = b.y, a.y


@dataclass
class DetailedStats:
    """Improvement accounting for a detailed-placement run."""

    initial_hpwl: float
    final_hpwl: float
    swaps_accepted: int = 0
    reorders_accepted: int = 0
    passes: int = 0

    @property
    def gain(self) -> float:
        if self.initial_hpwl <= 0:
            return 0.0
        return (self.initial_hpwl - self.final_hpwl) / self.initial_hpwl


def swap_partners(netlist: Netlist, frozen: set[str] | None = None, *,
                  max_net_degree: int = 16) -> dict[int, list[int]]:
    """Same-footprint swap partners of every movable, unfrozen cell.

    Two such cells are partners when they share a net of non-zero weight
    with 2..``max_net_degree`` pins (high-fanout control nets relate
    everything to everything) and have equal width and height.  The map
    depends only on connectivity, sizes and ``frozen``, so
    :func:`detailed_place` builds it once, from the flat CSR: cell index
    -> ascending partner indices, in ascending cell order.
    """
    flat = netlist.flat()
    eligible = (flat.cell_fixed == 0).tolist()
    for name in frozen or ():
        if netlist.has_cell(name):
            eligible[netlist.cell(name).index] = False
    # one small int per distinct (width, height)
    footprint = np.unique(np.stack([flat.cell_w, flat.cell_h], axis=1),
                          axis=0, return_inverse=True)[1].ravel().tolist()
    degree = np.diff(flat.net_start)
    small = np.flatnonzero((flat.net_weight != 0.0) & (degree >= 2)
                           & (degree <= max_net_degree))
    partners: dict[int, set[int]] = {}
    for s, e in zip(flat.net_start[small], flat.net_start[small + 1]):
        members = [c for c in dict.fromkeys(flat.pin_cell[s:e].tolist())
                   if eligible[c]]
        for k, a in enumerate(members):
            for b in members[k + 1:]:
                if footprint[a] == footprint[b]:
                    partners.setdefault(a, set()).add(b)
                    partners.setdefault(b, set()).add(a)
    return {c: sorted(partners[c]) for c in sorted(partners)}


def global_swap_pass(netlist: Netlist, *, frozen: set[str] | None = None,
                     inc: IncrementalHPWL | None = None,
                     partners: dict[int, list[int]] | None = None,
                     max_candidates: int = 8) -> int:
    """One pass of improving same-footprint cell swaps.

    Candidate partners are cells sharing a *small* net
    (:func:`swap_partners`); each cell tries at most ``max_candidates``
    of them, nearest first by current squared distance (ties by cell
    index, so the pass is deterministic).

    Args:
        frozen: cell names that must not move (read only to build
            ``partners``).
        inc: shared incremental-HPWL oracle; built locally when absent.
            Must be in sync with the netlist's current positions.
        partners: :func:`swap_partners` of the netlist and ``frozen``;
            built locally when absent.
        max_candidates: swap attempts per cell (nearest-K cap).

    Returns:
        Number of accepted swaps.
    """
    inc = inc or IncrementalHPWL(netlist)
    if partners is None:
        partners = swap_partners(netlist, frozen)
    cells = netlist.cells
    accepted = 0
    for index, ids in partners.items():
        cell = cells[index]
        candidates = [cells[i] for i in ids]
        if len(candidates) > max_candidates:
            d2 = np.array([(p.x - cell.x) ** 2 + (p.y - cell.y) ** 2
                           for p in candidates])
            keep = np.argsort(d2, kind="stable")[:max_candidates]
            candidates = [candidates[i] for i in keep]
        for other in candidates:
            _swap(cell, other)
            before, after = inc.propose([cell.index, other.index],
                                        [cell.x, other.x],
                                        [cell.y, other.y])
            if after + 1e-9 < before:
                inc.commit()
                accepted += 1
            else:
                _swap(cell, other)  # revert
                inc.rollback()
    return accepted


def row_reorder_pass(netlist: Netlist, region: PlacementRegion, *,
                     window: int = 3,
                     frozen: set[str] | None = None,
                     inc: IncrementalHPWL | None = None,
                     tracer: Tracer | None = None) -> int:
    """Exhaustive window reordering within each row.

    Cells in each row are sorted by x; for every window of ``window``
    consecutive movable cells, all permutations are evaluated with cells
    re-packed from the window's left edge; the best is kept.  A window
    whose re-packed span would cover a fixed cell is skipped, so closing
    a gap never lands a cell on a fixed cell inside the core.  Every
    permutation of a window is priced in one
    :meth:`~repro.kernels.IncrementalHPWL.price_x` call; only an
    accepted window moves cells.

    Args:
        inc: shared incremental-HPWL oracle; built locally when absent.
        tracer: receives the ``detailed.reorder.windows`` counter (windows
            priced).

    Returns:
        Number of accepted reorders.
    """
    if window < 2 or window > 5:
        raise OptionsError("window must be in [2, 5]")
    frozen = frozen or set()
    inc = inc or IncrementalHPWL(netlist)
    spans = row_blockages(netlist, region)
    rows: dict[int, list[Cell]] = {}
    for cell in netlist.movable_cells():
        spanned = rows_spanned(region, cell.y, cell.height)
        if spanned:
            rows.setdefault(spanned.start, []).append(cell)
    perms = list(itertools.permutations(range(window)))
    accepted = 0
    windows = 0
    for j, row_cells in rows.items():
        row_cells.sort(key=lambda c: c.x)
        for i in range(len(row_cells) - window + 1):
            win = row_cells[i:i + window]
            if any(c.name in frozen for c in win):
                continue
            # overlapping windows cannot re-pack safely; the others re-pack
            # into [left, left + packed), which must be free of fixed cells
            widths = [c.width for c in win]
            left = win[0].x
            right = win[-1].x + widths[-1]
            packed = sum(widths)
            if packed > right - left + 1e-9 or blocked(spans[j], left,
                                                       left + packed):
                continue
            idx = [c.index for c in win]
            candidates = []
            for perm in perms:
                xs = [0.0] * window
                run = left
                for pi in perm:
                    xs[pi] = run
                    run += widths[pi]
                candidates.append(xs)
            windows += 1
            best: int | None = None
            best_cost = inc.incident_cost(idx)
            for k, cost in enumerate(inc.price_x(idx, candidates)):
                if cost + 1e-9 < best_cost:
                    best_cost = cost
                    best = k
            if best is None:
                continue
            for c, xv in zip(win, candidates[best]):
                c.x = xv
            inc.update_cells(idx, candidates[best], [c.y for c in win])
            accepted += 1
            # the window re-packed inside [left, right], which no other
            # cell of the (legal) row occupies: the row stays sorted
            row_cells[i:i + window] = [win[pi] for pi in perms[best]]
    if tracer is not None:
        tracer.incr("detailed.reorder.windows", windows)
    return accepted


def detailed_place(netlist: Netlist, region: PlacementRegion, *,
                   frozen: set[str] | None = None,
                   max_passes: int = 3,
                   min_gain: float = 0.002,
                   window: int = 3,
                   tracer: Tracer | None = None) -> DetailedStats:
    """Alternate swap and reorder passes until convergence.

    Args:
        netlist: legal placement to refine (modified in place).
        region: row geometry.
        frozen: cell names that must not move.
        max_passes: maximum swap+reorder rounds.
        min_gain: stop when a full round improves HPWL by less than this
            fraction.
        window: row-reorder window size.
        tracer: telemetry hook; each pass runs under a ``detailed.swap``
            or ``detailed.reorder`` phase.
    """
    tracer = tracer or Tracer()
    stats = DetailedStats(initial_hpwl=netlist.hpwl(),
                          final_hpwl=netlist.hpwl())
    # one shared oracle and one partner map: both passes mutate
    # positions exclusively through the oracle, and no pass changes
    # what the partners depend on, so per-pass rebuild costs vanish
    inc = IncrementalHPWL(netlist)
    partners = swap_partners(netlist, frozen)
    for _round in range(max_passes):
        before = stats.final_hpwl
        with tracer.phase("detailed.swap"):
            stats.swaps_accepted += global_swap_pass(
                netlist, inc=inc, partners=partners)
        with tracer.phase("detailed.reorder"):
            stats.reorders_accepted += row_reorder_pass(
                netlist, region, window=window, frozen=frozen, inc=inc,
                tracer=tracer)
        stats.passes += 1
        stats.final_hpwl = netlist.hpwl()
        if before <= 0 or (before - stats.final_hpwl) / before < min_gain:
            break
    return stats
