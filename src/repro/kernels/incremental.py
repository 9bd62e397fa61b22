"""Incremental HPWL: per-net cached bounds with touched-net invalidation.

Detailed placement evaluates millions of candidate moves, each touching
a handful of cells.  Rescoring through the object model
(``Netlist.nets_of`` + ``Net.hpwl``) per candidate dominates its
runtime.  :class:`IncrementalHPWL` caches each net's weighted cost and
exposes a propose/commit/rollback protocol:

- :meth:`propose` moves cells inside the oracle and returns the touched
  nets' cached cost before and recomputed cost after the move;
- :meth:`commit` folds the recomputed costs into the cache;
- :meth:`rollback` restores the pre-propose positions.

A rejected candidate therefore costs one touched-net rescore and an
O(cells) position restore — no second rescore, no cache writes.  The hot
path runs on flat Python lists (per-net pin tuples, per-cell net ids):
for the handful-of-pins segments a move touches, list indexing beats
numpy's per-call dispatch by an order of magnitude.  Bulk operations
(:meth:`resync`, :meth:`check_total`) use flat numpy arrays instead.

Each net additionally caches its bounds *with boundary multiplicity*
(how many pins sit exactly at each min/max).  Rescoring a touched net of
high degree is then O(moved pins): a moved pin extending a bound updates
it directly; a bound survives losing a holder while its multiplicity
stays positive; only when every holder of a bound moves strictly inward
does the net rescan all pins.  Designs with a few huge nets (buses,
control fanout) are exactly the ones where this matters — a swap
touching a 1000-pin net costs a handful of comparisons instead of a
1000-pin sweep.  Small nets skip the bookkeeping: a moved pin of a
3-pin net holds a boundary half the time anyway, so they are always
rescanned directly (which is as cheap as deciding not to).

Positions are cell *corner* coordinates (``Cell.x`` / ``Cell.y``),
matching the object model the local-refinement passes mutate; pin
offsets are absolute offsets from the corner, so cached pin positions
equal ``PinRef.position()`` exactly.

Only nets that contribute to the local-refinement cost are tracked:
degree >= 2 and (by default) weight != 0 — the same filter as the
object-model walk in :func:`~repro.kernels.reference.incident_cost_reference`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from ..netlist import Netlist

# nets up to this degree are rescanned directly on every touch; the
# O(moved pins) bound update only pays past the bookkeeping cost
_FAST_DEGREE = 24


class IncrementalHPWL:
    """Weighted-HPWL oracle with O(touched pins) move evaluation.

    Args:
        netlist: source design; positions are snapshotted at build time.
        skip_zero_weight: drop weight-0 nets (the clock convention).
    """

    def __init__(self, netlist: Netlist, *,
                 skip_zero_weight: bool = True) -> None:
        self.netlist = netlist
        pin_cell: list[int] = []
        pin_ox: list[float] = []
        pin_oy: list[float] = []
        net_start: list[int] = [0]
        net_weight: list[float] = []
        # hot-path structures: per-net pin tuples, per-cell net ids, and
        # per-cell pin tuples (net id + offsets) for bound updates
        net_pins: list[list[tuple[int, float, float]]] = []
        cell_nets: list[list[int]] = [[] for _ in range(netlist.num_cells)]
        cell_pins: list[list[tuple[int, float, float]]] = \
            [[] for _ in range(netlist.num_cells)]
        for net in netlist.nets:
            if net.degree < 2:
                continue
            if skip_zero_weight and net.weight == 0.0:
                continue
            j = len(net_weight)
            pins: list[tuple[int, float, float]] = []
            seen: set[int] = set()
            for ref in net.pins:
                ci = ref.cell.index
                pin_cell.append(ci)
                pin_ox.append(ref.pin.x_offset)
                pin_oy.append(ref.pin.y_offset)
                pins.append((ci, ref.pin.x_offset, ref.pin.y_offset))
                cell_pins[ci].append((j, ref.pin.x_offset,
                                      ref.pin.y_offset))
                if ci not in seen:
                    seen.add(ci)
                    cell_nets[ci].append(j)
            net_start.append(len(pin_cell))
            net_weight.append(net.weight)
            net_pins.append(pins)

        self.pin_cell = np.asarray(pin_cell, dtype=np.int64)
        self.pin_ox = np.asarray(pin_ox, dtype=float)
        self.pin_oy = np.asarray(pin_oy, dtype=float)
        self.net_start = np.asarray(net_start, dtype=np.int64)
        self.net_weight = np.asarray(net_weight, dtype=float)
        self._net_pins = net_pins
        self._cell_nets = cell_nets
        self._cell_pins = cell_pins
        self._weight = net_weight  # python list view for the hot path
        self._degree = [len(p) for p in net_pins]

        self._x: list[float] = [0.0] * netlist.num_cells
        self._y: list[float] = [0.0] * netlist.num_cells
        self._net_cost: list[float] = [0.0] * self.num_nets
        # per-net bounds + boundary multiplicities (pins exactly at each
        # bound); kept as python lists for the hot path
        self._min_x: list[float] = []
        self._max_x: list[float] = []
        self._min_y: list[float] = []
        self._max_y: list[float] = []
        self._cnt_min_x: list[int] = []
        self._cnt_max_x: list[int] = []
        self._cnt_min_y: list[int] = []
        self._cnt_max_y: list[int] = []
        self._total = 0.0
        # pending move from the last propose(): (cells, old_xs, old_ys,
        # per-net bound/cost updates to fold in on commit)
        self._pending: tuple | None = None
        self.resync()

    # ------------------------------------------------------------------
    @property
    def num_nets(self) -> int:
        return len(self._net_pins)

    @property
    def total(self) -> float:
        """Cached total weighted HPWL over tracked nets."""
        return self._total

    def resync(self) -> float:
        """Re-snapshot every cell position and recompute all bounds."""
        self._pending = None
        for i, cell in enumerate(self.netlist.cells):
            self._x[i] = cell.x
            self._y[i] = cell.y
        if not self.num_nets:
            self._total = 0.0
            return 0.0
        x = np.asarray(self._x)
        y = np.asarray(self._y)
        px = x[self.pin_cell] + self.pin_ox
        py = y[self.pin_cell] + self.pin_oy
        seeds = self.net_start[:-1]
        pin_net = np.repeat(np.arange(self.num_nets),
                            np.diff(self.net_start))
        min_x = np.minimum.reduceat(px, seeds)
        max_x = np.maximum.reduceat(px, seeds)
        min_y = np.minimum.reduceat(py, seeds)
        max_y = np.maximum.reduceat(py, seeds)
        self._min_x = min_x.tolist()
        self._max_x = max_x.tolist()
        self._min_y = min_y.tolist()
        self._max_y = max_y.tolist()
        for counts, pos, bound in ((
                "_cnt_min_x", px, min_x), ("_cnt_max_x", px, max_x),
                ("_cnt_min_y", py, min_y), ("_cnt_max_y", py, max_y)):
            at = (pos == bound[pin_net]).astype(np.int64)
            setattr(self, counts, np.add.reduceat(at, seeds).tolist())
        costs = self.net_weight * ((max_x - min_x) + (max_y - min_y))
        self._net_cost = costs.tolist()
        self._total = float(costs.sum())
        return self._total

    def _bulk_costs(self) -> np.ndarray:
        """(num_nets,) weighted net costs, vectorized."""
        if not self.num_nets:
            return np.zeros(0)
        x = np.asarray(self._x)
        y = np.asarray(self._y)
        px = x[self.pin_cell] + self.pin_ox
        py = y[self.pin_cell] + self.pin_oy
        seeds = self.net_start[:-1]
        spans = ((np.maximum.reduceat(px, seeds)
                  - np.minimum.reduceat(px, seeds))
                 + (np.maximum.reduceat(py, seeds)
                    - np.minimum.reduceat(py, seeds)))
        return self.net_weight * spans

    # ------------------------------------------------------------------
    def nets_of_cells(self, cells: Sequence[int]) -> list[int]:
        """Distinct tracked-net ids incident to the given cells."""
        cell_nets = self._cell_nets
        if len(cells) == 1:
            return cell_nets[cells[0]]
        seen: set[int] = set()
        out: list[int] = []
        for c in cells:
            for j in cell_nets[c]:
                if j not in seen:
                    seen.add(j)
                    out.append(j)
        return out

    def cost_of_nets(self, nets: Iterable[int]) -> float:
        """Cached weighted cost of the given nets."""
        net_cost = self._net_cost
        return sum(net_cost[j] for j in nets)

    def incident_cost(self, cells: Sequence[int]) -> float:
        """Cached weighted cost of every net incident to ``cells``."""
        return self.cost_of_nets(self.nets_of_cells(cells))

    # ------------------------------------------------------------------
    def propose(self, cells: Sequence[int], xs: Sequence[float],
                ys: Sequence[float]) -> tuple[float, float]:
        """Move cells and rescore their nets; leaves the move pending.

        Args:
            cells: dense cell indices.
            xs / ys: new corner coordinates, parallel to ``cells``.

        Returns:
            ``(before, after)``: the touched nets' cached cost and their
            recomputed cost at the new positions.  Follow with
            :meth:`commit` to accept or :meth:`rollback` to revert; a
            new propose() implicitly commits a still-pending one.
        """
        if self._pending is not None:
            self.commit()
        x = self._x
        y = self._y
        old_xs = [x[c] for c in cells]
        old_ys = [y[c] for c in cells]
        touched = self.nets_of_cells(cells)
        for c, xv, yv in zip(cells, xs, ys):
            x[c] = xv
            y[c] = yv
        net_cost = self._net_cost
        weight = self._weight
        degree = self._degree
        cell_pins = self._cell_pins
        before = 0.0
        after = 0.0
        updates: list[tuple] = []
        for j in touched:
            before += net_cost[j]
            bx = by = None
            if degree[j] > _FAST_DEGREE:
                # gather this net's moved pins, then try the O(moved)
                # bound update
                mv = []
                for c, oxv, oyv, nxv, nyv in zip(cells, old_xs, old_ys,
                                                 xs, ys):
                    for jj, pox, poy in cell_pins[c]:
                        if jj == j:
                            mv.append((oxv + pox, nxv + pox,
                                       oyv + poy, nyv + poy))
                bx = self._axis_update(mv, 0, self._min_x[j],
                                       self._cnt_min_x[j], self._max_x[j],
                                       self._cnt_max_x[j])
                by = self._axis_update(mv, 2, self._min_y[j],
                                       self._cnt_min_y[j], self._max_y[j],
                                       self._cnt_max_y[j]) \
                    if bx is not None else None
            if by is None:
                bx, by = self._rescan(j)
            mn_x, cmn_x, mx_x, cmx_x = bx
            mn_y, cmn_y, mx_y, cmx_y = by
            cost = weight[j] * ((mx_x - mn_x) + (mx_y - mn_y))
            after += cost
            updates.append((j, cost, mn_x, cmn_x, mx_x, cmx_x,
                            mn_y, cmn_y, mx_y, cmx_y))
        self._pending = (cells, old_xs, old_ys, updates)
        return before, after

    @staticmethod
    def _axis_update(mv: list[tuple], k: int, mn: float, cmn: int,
                     mx: float, cmx: int) -> tuple | None:
        """O(moved pins) bound update for one axis.

        Args:
            mv: moved-pin tuples ``(x_old, x_new, y_old, y_new)``.
            k: field offset — 0 selects the x pair, 2 the y pair.
            mn / cmn / mx / cmx: cached bound and multiplicity.

        Returns:
            ``(min, cnt_min, max, cnt_max)`` after the move, or ``None``
            when every holder of a bound moved strictly inward — the
            surviving bound is unknown and the net needs a full rescan.
        """
        k1 = k + 1
        at_min = at_max = 0
        entry = mv[0]
        nmin = nmax = entry[k1]
        c_nmin = c_nmax = 1
        if entry[k] == mn:
            at_min += 1
        if entry[k] == mx:
            at_max += 1
        for entry in mv[1:]:
            po = entry[k]
            if po == mn:
                at_min += 1
            if po == mx:
                at_max += 1
            pn = entry[k1]
            if pn < nmin:
                nmin = pn
                c_nmin = 1
            elif pn == nmin:
                c_nmin += 1
            if pn > nmax:
                nmax = pn
                c_nmax = 1
            elif pn == nmax:
                c_nmax += 1
        if at_min < cmn:       # the old min survives under unmoved pins
            if nmin < mn:
                new_mn, new_cmn = nmin, c_nmin
            elif nmin == mn:
                new_mn, new_cmn = mn, cmn - at_min + c_nmin
            else:
                new_mn, new_cmn = mn, cmn - at_min
        else:                  # every holder of the min is moving
            if nmin < mn:
                new_mn, new_cmn = nmin, c_nmin
            elif nmin == mn:
                new_mn, new_cmn = mn, c_nmin
            else:
                return None
        if at_max < cmx:
            if nmax > mx:
                new_mx, new_cmx = nmax, c_nmax
            elif nmax == mx:
                new_mx, new_cmx = mx, cmx - at_max + c_nmax
            else:
                new_mx, new_cmx = mx, cmx - at_max
        else:
            if nmax > mx:
                new_mx, new_cmx = nmax, c_nmax
            elif nmax == mx:
                new_mx, new_cmx = mx, c_nmax
            else:
                return None
        return new_mn, new_cmn, new_mx, new_cmx

    def _rescan(self, j: int) -> tuple[tuple, tuple]:
        """Full bound + multiplicity scan of net ``j`` (both axes)."""
        x = self._x
        y = self._y
        it = iter(self._net_pins[j])
        ci, pox, poy = next(it)
        min_x = max_x = x[ci] + pox
        min_y = max_y = y[ci] + poy
        cmin_x = cmax_x = cmin_y = cmax_y = 1
        for ci, pox, poy in it:
            px = x[ci] + pox
            if px < min_x:
                min_x = px
                cmin_x = 1
            elif px > max_x:
                max_x = px
                cmax_x = 1
            else:
                if px == min_x:
                    cmin_x += 1
                if px == max_x:
                    cmax_x += 1
            py = y[ci] + poy
            if py < min_y:
                min_y = py
                cmin_y = 1
            elif py > max_y:
                max_y = py
                cmax_y = 1
            else:
                if py == min_y:
                    cmin_y += 1
                if py == max_y:
                    cmax_y += 1
        return ((min_x, cmin_x, max_x, cmax_x),
                (min_y, cmin_y, max_y, cmax_y))

    def commit(self) -> None:
        """Accept the pending move: fold its costs and bounds in."""
        pending = self._pending
        if pending is None:
            return
        _cells, _oxs, _oys, updates = pending
        net_cost = self._net_cost
        min_x, max_x = self._min_x, self._max_x
        min_y, max_y = self._min_y, self._max_y
        cnt_min_x, cnt_max_x = self._cnt_min_x, self._cnt_max_x
        cnt_min_y, cnt_max_y = self._cnt_min_y, self._cnt_max_y
        delta = 0.0
        for (j, cost, mn_x, cmn_x, mx_x, cmx_x,
             mn_y, cmn_y, mx_y, cmx_y) in updates:
            delta += cost - net_cost[j]
            net_cost[j] = cost
            min_x[j] = mn_x
            cnt_min_x[j] = cmn_x
            max_x[j] = mx_x
            cnt_max_x[j] = cmx_x
            min_y[j] = mn_y
            cnt_min_y[j] = cmn_y
            max_y[j] = mx_y
            cnt_max_y[j] = cmx_y
        self._total += delta
        self._pending = None

    def rollback(self) -> None:
        """Reject the pending move: restore the previous positions."""
        pending = self._pending
        if pending is None:
            return
        cells, old_xs, old_ys, _updates = pending
        x = self._x
        y = self._y
        for c, xv, yv in zip(cells, old_xs, old_ys):
            x[c] = xv
            y[c] = yv
        self._pending = None

    def update_cells(self, cells: Sequence[int], xs: Sequence[float],
                     ys: Sequence[float]) -> float:
        """Move cells and immediately commit; returns the new touched-net
        cost (compare against :meth:`incident_cost` taken before)."""
        _before, after = self.propose(cells, xs, ys)
        self.commit()
        return after

    # ------------------------------------------------------------------
    def check_total(self) -> float:
        """From-scratch recompute (for tests); does not touch the cache."""
        return float(self._bulk_costs().sum())
