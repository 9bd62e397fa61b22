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
O(cells) position restore — no second rescore, no cache writes.  Several
x-only candidates for the same cells (a row-reorder window's
permutations) are cheaper still through :meth:`price_x`, which scans the
touched nets once and moves nothing.  The hot
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
degree >= 2 and weight != 0, read from the netlist's flat view
(:meth:`repro.netlist.flat.FlatNetlist.compact`) — the same filter as
the object-model walk in
:func:`~repro.kernels.reference.incident_cost_reference`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from ..netlist import Netlist

# nets up to this degree are rescanned directly on every touch; the
# O(moved pins) bound update only pays past the bookkeeping cost
_FAST_DEGREE = 24


def _shared(values: np.ndarray) -> list:
    """``values.tolist()`` with one Python object per distinct value.

    Pin offsets repeat per master pin and cell ids per pin; sharing
    their objects, as the ``Net.pins`` walk did, keeps the hot-path
    lists ~8 MB smaller at 50k cells, inside detailed placement's
    memory peak.
    """
    table, index = np.unique(values, return_inverse=True)
    objects = table.tolist()
    return [objects[i] for i in index.tolist()]


class IncrementalHPWL:
    """Weighted-HPWL oracle with O(touched pins) move evaluation.

    Args:
        netlist: source design; its flat view's compaction gives the
            tracked nets, and positions are snapshotted at build time.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        wired = netlist.flat().compact()
        self.pin_cell = wired.pin_cell
        self.pin_ox = wired.pin_off_x
        self.pin_oy = wired.pin_off_y
        self.net_start = wired.net_start
        self.net_weight = wired.net_weight
        # hot-path structures: per-net pin tuples, per-cell net ids, and
        # per-cell pin tuples (net id + offsets) for bound updates; each
        # net's tuples are one slice of a single flat list
        pins = list(zip(_shared(wired.pin_cell), _shared(wired.pin_off_x),
                        _shared(wired.pin_off_y)))
        bounds = wired.net_start.tolist()
        net_pins = [pins[s:e] for s, e in zip(bounds, bounds[1:])]
        cell_nets: list[list[int]] = [[] for _ in range(netlist.num_cells)]
        cell_pins: list[list[tuple[int, float, float]]] = \
            [[] for _ in range(netlist.num_cells)]
        for j, net in enumerate(net_pins):
            for ci, pox, poy in net:
                cell_pins[ci].append((j, pox, poy))
                nets = cell_nets[ci]
                if not nets or nets[-1] != j:
                    nets.append(j)
        self._net_pins = net_pins
        self._cell_nets = cell_nets
        self._cell_pins = cell_pins
        # python list views for the hot path
        self._weight = _shared(wired.net_weight)
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

    def price_x(self, cells: Sequence[int],
                candidates: Iterable[Sequence[float]]) -> list[float]:
        """Price x-only moves of the same cells without moving anything.

        Args:
            cells: dense cell indices.
            candidates: new x corner vectors, each parallel to ``cells``;
                y stays where it is.

        Returns:
            Per candidate, exactly the ``after`` that
            ``propose(cells, xs, ys)`` returns with the current ``ys``.
            Each touched net is scanned once for the x bounds of its pins
            outside ``cells``, its y span is the cached one, and each
            candidate is then priced over the pins of ``cells`` alone.
            Min and max are exact in floating point, the per-net
            expression is :meth:`propose`'s and the sum runs in
            :meth:`nets_of_cells` order, so the prices are bit-identical.
            A net above ``_FAST_DEGREE`` pins takes an outside bound from
            the cache while some holder of it sits outside ``cells``, and
            is scanned only when ``cells`` hold every holder.
        """
        if self._pending is not None:
            self.commit()
        x = self._x
        degree = self._degree
        min_x, max_x = self._min_x, self._max_x
        cnt_min_x, cnt_max_x = self._cnt_min_x, self._cnt_max_x
        # per touched net: (position in cells, x offset) of each own pin,
        # and for large nets how many own pins hold each x bound now
        own: dict[int, list[tuple[int, float]]] = {}
        held: dict[int, list[int]] = {}
        for k, c in enumerate(cells):
            xc = x[c]
            for j, pox, _poy in self._cell_pins[c]:
                own.setdefault(j, []).append((k, pox))
                if degree[j] > _FAST_DEGREE:
                    at = held.setdefault(j, [0, 0])
                    px = xc + pox
                    if px == min_x[j]:
                        at[0] += 1
                    if px == max_x[j]:
                        at[1] += 1
        inside = set(cells)
        net_pins = self._net_pins
        weight = self._weight
        min_y, max_y = self._min_y, self._max_y
        nets: list[tuple] = []
        for j in self.nets_of_cells(cells):
            at = held.get(j)
            if at is not None and at[0] < cnt_min_x[j] \
                    and at[1] < cnt_max_x[j]:
                lo, hi = min_x[j], max_x[j]
            else:
                lo, hi = float("inf"), float("-inf")
                for ci, pox, _poy in net_pins[j]:
                    if ci not in inside:
                        px = x[ci] + pox
                        if px < lo:
                            lo = px
                        if px > hi:
                            hi = px
            nets.append((weight[j], max_y[j] - min_y[j], lo, hi, own[j]))
        prices: list[float] = []
        for xs in candidates:
            after = 0.0
            for w, span_y, lo, hi, pins in nets:
                for k, pox in pins:
                    px = xs[k] + pox
                    if px < lo:
                        lo = px
                    if px > hi:
                        hi = px
                after += w * ((hi - lo) + span_y)
            prices.append(after)
        return prices

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
