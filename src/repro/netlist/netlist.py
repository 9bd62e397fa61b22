"""The netlist container.

:class:`Netlist` owns cells and nets, keeps name → object maps and dense
indices, and answers connectivity queries (pins of a cell, nets of a cell,
neighbours).  It is deliberately a plain in-memory object model — large
enough for the synthetic benchmark scales this reproduction targets while
staying easy to reason about.

Array views for vectorised placement math live here too, since they must
stay consistent with the dense indices; all but positions come from one
cached flat CSR view (:meth:`Netlist.flat`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .cell import Cell
from .flat import FlatNetlist
from .library import CellType, Library, PinSpec
from .net import Net, PinRef
from ..errors import OptionsError, ValidationError


@dataclass
class Netlist:
    """A flat gate-level netlist.

    Attributes:
        name: Design name.
        library: The cell library masters are drawn from.
    """

    name: str = "design"
    library: Library | None = None
    _cells: list[Cell] = field(default_factory=list)
    _nets: list[Net] = field(default_factory=list)
    _cell_by_name: dict[str, Cell] = field(default_factory=dict)
    _net_by_name: dict[str, Net] = field(default_factory=dict)
    # cell index -> list of (net, pin ref) incidences
    _cell_pins: list[list[tuple[Net, PinRef]]] = field(default_factory=list)
    # the cached flat view (see flat()); every mutator resets it to None
    # first, since any edit of cells, nets or connectivity makes it stale
    _flat: FlatNetlist | None = field(default=None, init=False,
                                      repr=False, compare=False)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_cell(self, name: str, cell_type: CellType | str, *,
                 x: float = 0.0, y: float = 0.0, fixed: bool = False,
                 **attributes: object) -> Cell:
        """Create and register a cell instance.

        ``cell_type`` may be a master object or a master name looked up in
        the attached library.

        Raises:
            ValueError: duplicate instance name, or name lookup without a
                library.
        """
        self._flat = None
        if name in self._cell_by_name:
            raise ValidationError(f"duplicate cell name {name!r}")
        if isinstance(cell_type, str):
            if self.library is None:
                raise OptionsError("cannot look up master by name: no library attached")
            cell_type = self.library[cell_type]
        cell = Cell(name=name, cell_type=cell_type, x=x, y=y, fixed=fixed)
        cell.attributes.update(attributes)
        cell.index = len(self._cells)
        self._cells.append(cell)
        self._cell_by_name[name] = cell
        self._cell_pins.append([])
        return cell

    def add_net(self, name: str, weight: float = 1.0,
                **attributes: object) -> Net:
        """Create and register an (initially empty) net.

        Raises:
            ValueError: duplicate net name.
        """
        self._flat = None
        if name in self._net_by_name:
            raise ValidationError(f"duplicate net name {name!r}")
        net = Net(name=name, weight=weight)
        net.attributes.update(attributes)
        net.index = len(self._nets)
        self._nets.append(net)
        self._net_by_name[name] = net
        return net

    def connect(self, net: Net | str, cell: Cell | str,
                pin: PinSpec | str) -> PinRef:
        """Connect ``cell.pin`` to ``net`` and index the incidence."""
        self._flat = None
        if isinstance(net, str):
            net = self.net(net)
        if isinstance(cell, str):
            cell = self.cell(cell)
        ref = net.add_pin(cell, pin)
        self._cell_pins[cell.index].append((net, ref))
        return ref

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def cells(self) -> list[Cell]:
        return self._cells

    @property
    def nets(self) -> list[Net]:
        return self._nets

    def cell(self, name: str) -> Cell:
        try:
            return self._cell_by_name[name]
        except KeyError:
            raise KeyError(f"netlist {self.name!r} has no cell {name!r}") from None

    def net(self, name: str) -> Net:
        try:
            return self._net_by_name[name]
        except KeyError:
            raise KeyError(f"netlist {self.name!r} has no net {name!r}") from None

    def has_cell(self, name: str) -> bool:
        return name in self._cell_by_name

    def has_net(self, name: str) -> bool:
        return name in self._net_by_name

    @property
    def num_cells(self) -> int:
        return len(self._cells)

    @property
    def num_nets(self) -> int:
        return len(self._nets)

    @property
    def num_pins(self) -> int:
        return sum(net.degree for net in self._nets)

    def movable_cells(self) -> list[Cell]:
        return [c for c in self._cells if c.movable]

    def fixed_cells(self) -> list[Cell]:
        return [c for c in self._cells if c.fixed]

    # ------------------------------------------------------------------
    # connectivity queries
    # ------------------------------------------------------------------
    def pins_of(self, cell: Cell | str) -> list[tuple[Net, PinRef]]:
        """All (net, pin) incidences of a cell, in connection order."""
        if isinstance(cell, str):
            cell = self.cell(cell)
        return list(self._cell_pins[cell.index])

    def nets_of(self, cell: Cell | str) -> list[Net]:
        """Distinct nets touching a cell."""
        if isinstance(cell, str):
            cell = self.cell(cell)
        seen: set[int] = set()
        out: list[Net] = []
        for net, _ref in self._cell_pins[cell.index]:
            if net.index not in seen:
                seen.add(net.index)
                out.append(net)
        return out

    def neighbors(self, cell: Cell | str) -> list[Cell]:
        """Distinct cells sharing at least one net with ``cell``."""
        if isinstance(cell, str):
            cell = self.cell(cell)
        seen: set[int] = {cell.index}
        out: list[Cell] = []
        for net in self.nets_of(cell):
            for other in net.cells():
                if other.index not in seen:
                    seen.add(other.index)
                    out.append(other)
        return out

    def driver_of(self, net: Net | str) -> Cell | None:
        """The cell driving a net, or None for an undriven net."""
        if isinstance(net, str):
            net = self.net(net)
        ref = net.driver
        return ref.cell if ref is not None else None

    def fanout_cells(self, cell: Cell | str) -> list[Cell]:
        """Distinct cells driven by this cell's output pins."""
        if isinstance(cell, str):
            cell = self.cell(cell)
        seen: set[int] = {cell.index}
        out: list[Cell] = []
        for net, ref in self._cell_pins[cell.index]:
            if not ref.is_driver:
                continue
            for sink in net.sinks:
                if sink.cell.index not in seen:
                    seen.add(sink.cell.index)
                    out.append(sink.cell)
        return out

    def fanin_cells(self, cell: Cell | str) -> list[Cell]:
        """Distinct cells driving this cell's input pins."""
        if isinstance(cell, str):
            cell = self.cell(cell)
        seen: set[int] = {cell.index}
        out: list[Cell] = []
        for net, ref in self._cell_pins[cell.index]:
            if ref.is_driver:
                continue
            drv = net.driver
            if drv is not None and drv.cell.index not in seen:
                seen.add(drv.cell.index)
                out.append(drv.cell)
        return out

    # ------------------------------------------------------------------
    # array views for vectorised placement math
    # ------------------------------------------------------------------
    def positions(self) -> np.ndarray:
        """(N, 2) array of cell centers, in dense-index order."""
        pos = np.empty((self.num_cells, 2), dtype=float)
        for i, c in enumerate(self._cells):
            pos[i, 0] = c.center_x
            pos[i, 1] = c.center_y
        return pos

    def set_positions(self, centers: np.ndarray,
                      only_movable: bool = True) -> None:
        """Write an (N, 2) array of centers back into the cells.

        Args:
            centers: positions indexed by dense cell index.
            only_movable: if True (default), fixed cells keep their
                coordinates even if the array says otherwise.
        """
        centers = np.asarray(centers, dtype=float)
        if centers.shape != (self.num_cells, 2):
            raise OptionsError(
                f"expected shape ({self.num_cells}, 2), got {centers.shape}")
        for i, c in enumerate(self._cells):
            if only_movable and c.fixed:
                continue
            c.set_center(float(centers[i, 0]), float(centers[i, 1]))

    def flat(self) -> FlatNetlist:
        """The flat CSR view of this netlist's hypergraph and geometry.

        Built with one object walk on first use and cached until a
        mutator drops it.  A netlist rebuilt from an arena starts with
        a view over the arena's arrays.
        """
        if self._flat is None:
            self._flat = FlatNetlist.build(self)
        return self._flat

    def sizes(self) -> np.ndarray:
        """(N, 2) array of (width, height), read from the flat view."""
        flat = self.flat()
        return np.stack([flat.cell_w, flat.cell_h], axis=1)

    def movable_mask(self) -> np.ndarray:
        """(N,) boolean array, True where the cell is movable, read from
        the flat view."""
        return ~self.flat().cell_fixed.astype(bool)

    def total_movable_area(self) -> float:
        return float(sum(c.area for c in self._cells if c.movable))

    # ------------------------------------------------------------------
    # editing
    # ------------------------------------------------------------------
    def merge_nets(self, keep: Net | str, absorb: Net | str) -> Net:
        """Move every pin of ``absorb`` onto ``keep`` and empty ``absorb``.

        Used to stitch an undriven net to a driven one without inserting a
        buffer.  ``absorb`` is left empty (remove it with
        :meth:`remove_empty_nets`).

        Raises:
            ValueError: if merging would give the net two drivers, or if
                both arguments are the same net.
        """
        self._flat = None
        if isinstance(keep, str):
            keep = self.net(keep)
        if isinstance(absorb, str):
            absorb = self.net(absorb)
        if keep is absorb:
            raise OptionsError(f"cannot merge net {keep.name!r} with itself")
        if keep.driver is not None and absorb.driver is not None:
            raise ValidationError(
                f"merging {absorb.name!r} into {keep.name!r} would create "
                f"a multi-driven net")
        for ref in absorb.pins:
            keep.pins.append(ref)
            incid = self._cell_pins[ref.cell.index]
            for k, (net, r) in enumerate(incid):
                if net is absorb and r is ref:
                    incid[k] = (keep, ref)
                    break
        absorb.pins.clear()
        return keep

    def remove_empty_nets(self) -> int:
        """Delete all nets with no pins and re-index the rest.

        Only empty nets can be removed safely (no incidences to unhook).
        Returns the number of nets removed.
        """
        self._flat = None
        keep = [net for net in self._nets if net.degree > 0]
        removed = len(self._nets) - len(keep)
        if removed:
            for net in self._nets:
                if net.degree == 0:
                    del self._net_by_name[net.name]
            self._nets = keep
            for i, net in enumerate(self._nets):
                net.index = i
        return removed

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def hpwl(self) -> float:
        """Total weighted half-perimeter wirelength at current positions.

        Same IEEE operations as summing ``net.weight * net.hpwl()`` over
        the nets of degree >= 2: pins at corner plus offset, per-net
        ``(max - min x) + (max - min y)``, accumulated in net order.  It
        reads the flat view's compaction, which leaves out zero-weight
        nets: at finite positions each adds exactly +0.0 to the sum.
        """
        wired = self.flat().compact()
        if wired.num_nets == 0:
            return 0.0
        n = len(self._cells)
        x = np.fromiter((c.x for c in self._cells), dtype=float, count=n)
        y = np.fromiter((c.y for c in self._cells), dtype=float, count=n)
        px = x[wired.pin_cell] + wired.pin_off_x
        py = y[wired.pin_cell] + wired.pin_off_y
        heads = wired.net_start[:-1]
        span = (np.maximum.reduceat(px, heads)
                - np.minimum.reduceat(px, heads)) \
            + (np.maximum.reduceat(py, heads)
               - np.minimum.reduceat(py, heads))
        # accumulate sums sequentially, as the per-net loop did
        return float(np.add.accumulate(wired.net_weight * span)[-1])

    def iter_connected(self, start: Cell) -> Iterator[Cell]:
        """Breadth-first iteration over the connected component of
        ``start`` (including ``start``)."""
        seen = {start.index}
        frontier = [start]
        while frontier:
            cell = frontier.pop()
            yield cell
            for nb in self.neighbors(cell):
                if nb.index not in seen:
                    seen.add(nb.index)
                    frontier.append(nb)

    def __repr__(self) -> str:
        return (f"Netlist({self.name!r}, cells={self.num_cells},"
                f" nets={self.num_nets}, pins={self.num_pins})")
