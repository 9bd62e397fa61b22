"""Flattened array views of a netlist for vectorised placement math.

Analytical placement needs the hypergraph in CSR-like numpy form: one flat
array of pins, per-pin cell indices and offsets, and net start/stop ranges.
:class:`PlacementArrays` is that view for one placement — the nets that
carry wirelength, cut from the netlist's flat view
(:mod:`repro.netlist.flat`) — and the wirelength and density models and
both global-placement engines consume it.

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

import numpy as np

from ..errors import OptionsError
from ..netlist import Netlist


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
    def build(cls, netlist: Netlist) -> "PlacementArrays":
        """Flatten a netlist: the nets that carry wirelength.

        Reads the compaction of the netlist's flat view
        (:meth:`repro.netlist.flat.FlatNetlist.compact`: nets of degree
        >= 2 and weight != 0, in netlist order) and moves each pin
        offset from the cell's corner to its center.  Every array is a
        fresh writable copy: the view is cached and read-only, and on a
        netlist rebuilt from an arena it is shared memory.
        """
        wired = netlist.flat().compact()
        pin_cell = wired.pin_cell.copy()
        return cls(
            netlist=netlist,
            name=netlist.name,
            pin_cell=pin_cell,
            pin_dx=wired.pin_off_x - wired.cell_w[pin_cell] / 2.0,
            pin_dy=wired.pin_off_y - wired.cell_h[pin_cell] / 2.0,
            net_start=wired.net_start.copy(),
            net_weight=wired.net_weight.copy(),
            movable=~wired.cell_fixed.astype(bool),
            width=wired.cell_w.copy(),
            height=wired.cell_h.copy(),
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
