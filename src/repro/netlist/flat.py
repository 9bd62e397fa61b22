"""The flat hypergraph of a netlist: the one CSR view array code reads.

:class:`FlatNetlist` holds per-cell geometry and fixedness and the
all-nets CSR — net weights and offsets, per-pin cell indices and pin
offsets from the cell's lower-left corner — under the field names and
dtypes of :class:`~repro.netlist.arena.NetlistArena`.
:meth:`~repro.netlist.netlist.Netlist.flat` builds it with one object
walk and caches it until a mutator drops it; a netlist rebuilt from an
arena gets a view over the arena's arrays and is never walked.
Wirelength code (placement arrays, ``Netlist.hpwl``, the detailed
placement oracle) reads :meth:`FlatNetlist.compact`, the nets that carry
wirelength, cached with the view.  Every array of a view is read-only:
consumers share it, and an arena's arrays are shared memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from .netlist import Netlist

__all__ = ["FlatNetlist", "compact_csr"]


def compact_csr(net_start: np.ndarray, keep: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Compact CSR offsets to the nets selected by a boolean mask.

    Args:
        net_start: (M+1,) CSR offsets over all nets.
        keep: (M,) boolean mask of nets to retain.

    Returns:
        ``(new_start, pin_keep)`` — the (K+1,) offsets of the kept nets
        (K = ``keep.sum()``) and the (P,) per-pin boolean mask selecting
        their pins in the original flat order, which compacts any
        per-pin array by fancy indexing.
    """
    degrees = np.diff(net_start)
    pin_keep = np.repeat(keep, degrees)
    new_start = np.concatenate(
        [np.zeros(1, dtype=net_start.dtype),
         np.cumsum(degrees[keep])])
    return new_start, pin_keep


@dataclass(eq=False)
class FlatNetlist:
    """Read-only CSR view of a netlist's hypergraph and cell geometry.

    Attributes:
        cell_w / cell_h: (N,) cell footprints.
        cell_fixed: (N,) 1 where the cell is fixed.
        net_weight: (M,) net weights.
        net_start: (M+1,) CSR offsets; pins of net j live at
            ``[net_start[j], net_start[j+1])``, in ``Net.pins`` order.
        pin_cell: (P,) cell index per pin.
        pin_off_x / pin_off_y: (P,) pin offsets from the cell's
            lower-left corner.
    """

    cell_w: np.ndarray
    cell_h: np.ndarray
    cell_fixed: np.ndarray
    net_weight: np.ndarray
    net_start: np.ndarray
    pin_cell: np.ndarray
    pin_off_x: np.ndarray
    pin_off_y: np.ndarray
    _compact: FlatNetlist | None = field(default=None, init=False,
                                         repr=False)

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.init:
                getattr(self, f.name).setflags(write=False)

    @classmethod
    def build(cls, netlist: Netlist) -> FlatNetlist:
        """Flatten a netlist with one walk over its cells and pins."""
        cells, nets = netlist.cells, netlist.nets
        refs = [ref for net in nets for ref in net.pins]
        n, m, p = len(cells), len(nets), len(refs)
        net_start = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.fromiter((len(net.pins) for net in nets), np.int64, m),
                  out=net_start[1:])
        return cls(
            cell_w=np.fromiter((c.cell_type.width for c in cells), float, n),
            cell_h=np.fromiter((c.cell_type.height for c in cells), float,
                               n),
            cell_fixed=np.fromiter((c.fixed for c in cells), np.uint8, n),
            net_weight=np.fromiter((net.weight for net in nets), float, m),
            net_start=net_start,
            pin_cell=np.fromiter((r.cell.index for r in refs), np.int64, p),
            pin_off_x=np.fromiter((r.pin.x_offset for r in refs), float, p),
            pin_off_y=np.fromiter((r.pin.y_offset for r in refs), float, p))

    @classmethod
    def view_of(cls, source: Any) -> FlatNetlist:
        """A view over the same-named arrays of ``source`` (an arena)."""
        return cls(**{f.name: getattr(source, f.name)
                      for f in fields(cls) if f.init})

    @property
    def num_nets(self) -> int:
        return int(self.net_weight.shape[0])

    def compact(self) -> FlatNetlist:
        """The nets that carry wirelength: degree >= 2, weight != 0.

        Cell arrays are shared with this view and net and pin order is
        kept, so a compacted net's pins are its pins here.  Built once
        and cached with the view.
        """
        if self._compact is None:
            keep = (np.diff(self.net_start) >= 2) & (self.net_weight != 0.0)
            net_start, pin_keep = compact_csr(self.net_start, keep)
            self._compact = FlatNetlist(
                self.cell_w, self.cell_h, self.cell_fixed,
                self.net_weight[keep], net_start, self.pin_cell[pin_keep],
                self.pin_off_x[pin_keep], self.pin_off_y[pin_keep])
        return self._compact
