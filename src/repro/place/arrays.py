"""Flattened array views of a netlist for vectorised placement math.

Analytical placement needs the hypergraph in CSR-like numpy form: one flat
array of pins, per-pin cell indices and offsets, and net start/stop ranges.
:class:`PlacementArrays` builds those views once; all wirelength/density
models and optimizers consume it.

Positions are handled as *cell center* arrays ``(N,)`` x and y.  Pin
positions are ``center + offset`` where offsets are pin offsets relative to
the cell center.

The same class carries the coarse levels of the multilevel V-cycle, which
have no :class:`~repro.netlist.Netlist` behind them: such a level holds its
own name and fixed cell centers instead (see
:func:`repro.place.multilevel.build_coarse_netlist`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import OptionsError
from ..netlist import Netlist

if TYPE_CHECKING:
    from ..netlist.arena import NetlistArena


@dataclass
class PlacementArrays:
    """CSR view of a netlist hypergraph plus cell geometry.

    Attributes:
        pin_cell: (P,) cell index of every pin.
        pin_dx / pin_dy: (P,) pin offset from the owning cell's center.
        net_start: (M+1,) CSR offsets; pins of net j are
            ``pin_cell[net_start[j]:net_start[j+1]]``.
        net_weight: (M,) net weights.
        movable: (N,) bool mask.
        width / height: (N,) cell sizes (``area`` is their product).
        netlist: the source netlist, for write-back and live positions;
            None on a coarse multilevel level.
        name: design (or level) name, for diagnostics.
        center_x / center_y: (N,) cell centers of a level without a
            netlist; None when ``netlist`` is set.
    """

    pin_cell: np.ndarray
    pin_dx: np.ndarray
    pin_dy: np.ndarray
    net_start: np.ndarray
    net_weight: np.ndarray
    movable: np.ndarray
    width: np.ndarray
    height: np.ndarray
    netlist: Netlist | None = None
    name: str = ""
    center_x: np.ndarray | None = None
    center_y: np.ndarray | None = None

    @classmethod
    def build(cls, netlist: Netlist,
              min_degree: int = 2,
              max_degree: int | None = None,
              skip_zero_weight: bool = True) -> "PlacementArrays":
        """Flatten a netlist.

        Args:
            netlist: source design.
            min_degree: nets below this degree are dropped (degree-1 nets
                contribute nothing to wirelength).
            max_degree: nets above this degree are dropped (huge nets —
                clock/reset — drown analytic models; None keeps all).
            skip_zero_weight: drop nets with weight == 0 (our clock
                convention).

        Netlists reconstructed from a shared-memory arena carry the
        flat hypergraph already; those skip the Python object walk and
        build from the arena arrays directly (elementwise-identical
        result, same IEEE operations in the same order).
        """
        arena = getattr(netlist, "_arena", None)
        if arena is not None:
            return cls.from_arena(netlist, arena,
                                  min_degree=min_degree,
                                  max_degree=max_degree,
                                  skip_zero_weight=skip_zero_weight)
        pin_cell: list[int] = []
        pin_dx: list[float] = []
        pin_dy: list[float] = []
        net_start: list[int] = [0]
        net_weight: list[float] = []
        for net in netlist.nets:
            if net.degree < min_degree:
                continue
            if max_degree is not None and net.degree > max_degree:
                continue
            if skip_zero_weight and net.weight == 0.0:
                continue
            for ref in net.pins:
                cell = ref.cell
                pin_cell.append(cell.index)
                pin_dx.append(ref.pin.x_offset - cell.width / 2.0)
                pin_dy.append(ref.pin.y_offset - cell.height / 2.0)
            net_start.append(len(pin_cell))
            net_weight.append(net.weight)

        sizes = netlist.sizes()
        return cls(
            netlist=netlist,
            name=netlist.name,
            pin_cell=np.asarray(pin_cell, dtype=np.int64),
            pin_dx=np.asarray(pin_dx, dtype=float),
            pin_dy=np.asarray(pin_dy, dtype=float),
            net_start=np.asarray(net_start, dtype=np.int64),
            net_weight=np.asarray(net_weight, dtype=float),
            movable=netlist.movable_mask(),
            width=sizes[:, 0].copy(),
            height=sizes[:, 1].copy(),
        )

    @classmethod
    def from_arena(cls, netlist: Netlist, arena: "NetlistArena",
                   min_degree: int = 2,
                   max_degree: int | None = None,
                   skip_zero_weight: bool = True) -> "PlacementArrays":
        """Flatten from arena arrays without re-walking Python objects.

        Produces the same arrays as the object walk in :meth:`build`:
        net order is arena order (= netlist order), pin offsets use the
        identical ``offset - size / 2`` float expression, and every
        output array is a fresh writable copy (arena views are
        read-only shared memory).
        """
        from ..kernels.arena import compact_csr

        degrees = np.diff(arena.net_start)
        keep = degrees >= min_degree
        if max_degree is not None:
            keep &= degrees <= max_degree
        if skip_zero_weight:
            keep &= arena.net_weight != 0.0
        net_start, pin_keep = compact_csr(arena.net_start, keep)
        pin_cell = arena.pin_cell[pin_keep]
        return cls(
            netlist=netlist,
            name=netlist.name,
            pin_cell=pin_cell,
            pin_dx=arena.pin_off_x[pin_keep]
            - arena.cell_w[pin_cell] / 2.0,
            pin_dy=arena.pin_off_y[pin_keep]
            - arena.cell_h[pin_cell] / 2.0,
            net_start=net_start,
            net_weight=arena.net_weight[keep],
            movable=~arena.cell_fixed.astype(bool),
            width=arena.cell_w.copy(),
            height=arena.cell_h.copy(),
        )

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return self.movable.shape[0]

    @property
    def num_nets(self) -> int:
        return self.net_weight.shape[0]

    @property
    def num_movable(self) -> int:
        return int(np.count_nonzero(self.movable))

    @property
    def num_pins(self) -> int:
        return self.pin_cell.shape[0]

    @property
    def area(self) -> np.ndarray:
        return self.width * self.height

    def net_degrees(self) -> np.ndarray:
        return np.diff(self.net_start)

    def pin_net(self) -> np.ndarray:
        """(P,) net index of every pin (inverse of the CSR ranges)."""
        cached = getattr(self, "_pin_net_cache", None)
        if cached is None:
            from ..kernels import expand_pin_net
            cached = expand_pin_net(self.net_start)
            self._pin_net_cache = cached
        return cached

    # ------------------------------------------------------------------
    def initial_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Current cell centers as (x, y) arrays (fresh copies).

        Read live from the netlist when there is one, so a
        :meth:`write_back` shows up here; a coarse level returns its
        fixed centers.
        """
        if self.netlist is None:
            return self.center_x.copy(), self.center_y.copy()
        pos = self.netlist.positions()
        return pos[:, 0].copy(), pos[:, 1].copy()

    def write_back(self, x: np.ndarray, y: np.ndarray) -> None:
        """Write center arrays into the netlist (movable cells only)."""
        if self.netlist is None:
            raise OptionsError(
                f"{self.name!r} is a coarse level with no netlist to "
                "write back to")
        centers = np.stack([x, y], axis=1)
        self.netlist.set_positions(centers, only_movable=True)

    def pin_positions(self, x: np.ndarray, y: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """(P,) pin coordinates for the given cell centers."""
        return (x[self.pin_cell] + self.pin_dx,
                y[self.pin_cell] + self.pin_dy)

    def scatter_to_cells(self, pin_grad: np.ndarray) -> np.ndarray:
        """Accumulate per-pin gradient contributions onto cells (N,)."""
        out = np.zeros(self.num_cells, dtype=float)
        np.add.at(out, self.pin_cell, pin_grad)
        return out
