"""Detailed placement: legal-preserving local refinement.

Two passes, both HPWL-greedy and legality-preserving:

- **Global swap** (:func:`global_swap_pass`): for each cell, try swapping
  with same-width cells near its HPWL-optimal region; accept improving
  swaps.
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


def global_swap_pass(netlist: Netlist, *, frozen: set[str] | None = None,
                     neighborhood: float | None = None,
                     inc: IncrementalHPWL | None = None,
                     max_candidates: int = 8,
                     max_net_degree: int = 16) -> int:
    """One pass of improving same-footprint cell swaps.

    Candidate partners are cells sharing a *small* net (they are the
    cells whose positions matter to the same wires; high-fanout control
    nets relate everything to everything and are skipped).  The
    same-footprint partner sets are precomputed in one sweep over the
    nets — the per-cell object-model neighbourhood walk used to dominate
    this pass — and each cell then tries at most ``max_candidates``
    partners, nearest first by current squared distance (ties by cell
    index, so the pass is deterministic).

    Args:
        inc: shared incremental-HPWL oracle; built locally when absent.
            Must be in sync with the netlist's current positions.
        max_candidates: swap attempts per cell (nearest-K cap).
        max_net_degree: nets above this degree contribute no candidates.

    Returns:
        Number of accepted swaps.
    """
    frozen = frozen or set()
    inc = inc or IncrementalHPWL(netlist)
    eligible: dict[int, Cell] = {
        c.index: c for c in netlist.movable_cells()
        if c.name not in frozen}
    partners_of: dict[int, set[int]] = {}
    for net in netlist.nets:
        if net.weight == 0.0 or not 2 <= net.degree <= max_net_degree:
            continue
        members = [c for c in net.cells() if c.index in eligible]
        for ai, a in enumerate(members):
            for b in members[ai + 1:]:
                if (a.width == b.width and a.height == b.height
                        and a is not b):
                    partners_of.setdefault(a.index, set()).add(b.index)
                    partners_of.setdefault(b.index, set()).add(a.index)

    accepted = 0
    for cell in eligible.values():
        ids = partners_of.get(cell.index)
        if not ids:
            continue
        candidates = [eligible[i] for i in sorted(ids)]
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
                     inc: IncrementalHPWL | None = None) -> int:
    """Exhaustive window reordering within each row.

    Cells in each row are sorted by x; for every window of ``window``
    consecutive movable cells, all permutations are evaluated with cells
    re-packed from the window's left edge; the best is kept.  A window
    whose re-packed span would cover a fixed cell is skipped, so closing
    a gap never lands a cell on a fixed cell inside the core.

    Args:
        inc: shared incremental-HPWL oracle; built locally when absent.

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
    accepted = 0
    for j, row_cells in rows.items():
        row_cells.sort(key=lambda c: c.x)
        for i in range(len(row_cells) - window + 1):
            win = row_cells[i:i + window]
            if any(c.name in frozen for c in win):
                continue
            # overlapping windows cannot re-pack safely; the others re-pack
            # into [left, left + packed), which must be free of fixed cells
            left = win[0].x
            right = win[-1].x + win[-1].width
            packed = sum(c.width for c in win)
            if packed > right - left + 1e-9 or blocked(spans[j], left,
                                                       left + packed):
                continue
            orig = [(c.x, c.y) for c in win]
            idx = [c.index for c in win]
            ys = [c.y for c in win]
            best_perm: tuple[int, ...] | None = None
            best_cost = inc.incident_cost(idx)
            for perm in itertools.permutations(range(window)):
                run = left
                for pi in perm:
                    win[pi].x = run
                    run += win[pi].width
                _b, cost = inc.propose(idx, [c.x for c in win], ys)
                inc.rollback()
                if cost + 1e-9 < best_cost:
                    best_cost = cost
                    best_perm = perm
            if best_perm is None:
                for c, (ox, oy) in zip(win, orig):
                    c.x, c.y = ox, oy
            else:
                run = left
                for pi in best_perm:
                    win[pi].x = run
                    run += win[pi].width
                inc.update_cells(idx, [c.x for c in win], ys)
                accepted += 1
                # the window re-packed inside [left, right], which no other
                # cell of the (legal) row occupies: the row stays sorted
                row_cells[i:i + window] = [win[pi] for pi in best_perm]
    return accepted


def detailed_place(netlist: Netlist, region: PlacementRegion, *,
                   frozen: set[str] | None = None,
                   max_passes: int = 3,
                   min_gain: float = 0.002,
                   window: int = 3) -> DetailedStats:
    """Alternate swap and reorder passes until convergence.

    Args:
        netlist: legal placement to refine (modified in place).
        region: row geometry.
        frozen: cell names that must not move.
        max_passes: maximum swap+reorder rounds.
        min_gain: stop when a full round improves HPWL by less than this
            fraction.
        window: row-reorder window size.
    """
    stats = DetailedStats(initial_hpwl=netlist.hpwl(),
                          final_hpwl=netlist.hpwl())
    # one shared oracle: both passes mutate positions exclusively through
    # it, so per-pass rebuild costs vanish
    inc = IncrementalHPWL(netlist)
    for _round in range(max_passes):
        before = stats.final_hpwl
        stats.swaps_accepted += global_swap_pass(netlist, frozen=frozen,
                                                 inc=inc)
        stats.reorders_accepted += row_reorder_pass(netlist, region,
                                                    window=window,
                                                    frozen=frozen, inc=inc)
        stats.passes += 1
        stats.final_hpwl = netlist.hpwl()
        if before <= 0 or (before - stats.final_hpwl) / before < min_gain:
            break
    return stats
