"""Structure-of-arrays netlist arena: compile once, ship anywhere.

A :class:`NetlistArena` is the flat, immutable image of one generated
design: cell geometry/fixedness, the CSR net→pin hypergraph, per-cell
structure labels (ground-truth slice ids), and a small pickled metadata
blob (names, library, region, truth).  It is content-addressed by the
*same* fingerprint the artifact cache keys on
(:func:`repro.runtime.cache.netlist_fingerprint`), so an arena digest is
interchangeable with a freshly built design for cache-key purposes.

Two consumers motivate the split between arrays and metadata:

- **dispatch** (:mod:`repro.runtime.shm`) serializes the whole arena
  into one shared-memory segment with :meth:`to_bytes`; pool workers map
  it back with :meth:`from_buffer` (zero-copy array views over the
  segment) and rebuild a fresh mutable :class:`~repro.netlist.netlist
  .Netlist` per job with :meth:`to_design` — bit-exactly, including pin
  order and per-cell incidence order, so placement results are
  indistinguishable from a generator rebuild;
- **placement math**: the rebuilt netlist's flat view
  (:class:`~repro.netlist.flat.FlatNetlist`, which every array consumer
  reads) is a view over the arena's own arrays, so a pool worker never
  walks the Python objects for it.

The compile is strict: any structural surprise (non-dense indices, a pin
spec that is not on its master) raises
:class:`~repro.errors.ValidationError`, and callers fall back to
shipping nothing (the legacy rebuild-in-worker transport).
"""

from __future__ import annotations

import copy
import json
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import ValidationError
from .cell import Cell
from .flat import FlatNetlist
from .net import Net, PinRef
from .netlist import Netlist

if TYPE_CHECKING:  # runtime import would be circular via repro.place
    from ..gen.composer import GeneratedDesign

#: serialization format tag; bump on any layout change so a stale
#: attacher fails loudly instead of misreading the segment
_MAGIC = b"RARENA1\n"

#: array alignment inside the serialized blob (numpy is happiest with
#: 16-byte aligned float64 views)
_ALIGN = 16

#: (field name, dtype) of every array section, in serialization order
_ARRAY_FIELDS: tuple[tuple[str, str], ...] = (
    ("cell_x", "<f8"), ("cell_y", "<f8"),
    ("cell_w", "<f8"), ("cell_h", "<f8"),
    ("cell_fixed", "|u1"), ("cell_type", "<i4"), ("cell_label", "<i4"),
    ("net_weight", "<f8"), ("net_start", "<i8"),
    ("pin_cell", "<i8"), ("pin_slot", "<i4"),
    ("pin_off_x", "<f8"), ("pin_off_y", "<f8"),
    ("inc_start", "<i8"), ("inc_net", "<i8"), ("inc_pos", "<i8"),
)


def _pad(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass
class NetlistArena:
    """Flat SoA image of one generated design.

    ``cell_w``, ``cell_h``, ``cell_fixed``, ``net_weight``,
    ``net_start``, ``pin_cell``, ``pin_off_x`` and ``pin_off_y`` are the
    source netlist's :class:`~repro.netlist.flat.FlatNetlist` arrays.

    Attributes:
        digest: netlist fingerprint (cache-key compatible).
        cell_x / cell_y: (N,) lower-left cell coordinates (initial
            positions; fixed pads keep theirs).
        cell_w / cell_h: (N,) cell footprints.
        cell_fixed: (N,) 1 where the cell is fixed.
        cell_type: (N,) index into ``meta["type_names"]``.
        cell_label: (N,) ground-truth slice id (index into
            ``meta["label_table"]``), -1 for non-datapath cells.
        net_weight: (M,) net weights — *all* nets, unfiltered (zero-pin
            nets included, for exact round-trips).
        net_start: (M+1,) CSR offsets; pins of net j live at
            ``[net_start[j], net_start[j+1])``.
        pin_cell: (P,) cell index per pin, in net pin order.
        pin_slot: (P,) index of the pin spec within its master's pin
            tuple.
        pin_off_x / pin_off_y: (P,) pin offsets from the cell *origin*
            (PinSpec offsets).
        inc_start / inc_net / inc_pos: per-cell incidence CSR preserving
            the original ``connect`` order — ``(net index, position in
            net.pins)`` pairs for cell i at ``[inc_start[i],
            inc_start[i+1])``.  Connectivity queries iterate incidences,
            so their order is part of bit-identical reconstruction.
        meta: pickled-alongside metadata: ``netlist_name``, ``library``,
            ``type_names``, ``cell_names``, ``net_names``, sparse
            ``cell_attrs``/``net_attrs``, ``region``, ``truth``,
            ``label_table``.
    """

    digest: str
    cell_x: np.ndarray
    cell_y: np.ndarray
    cell_w: np.ndarray
    cell_h: np.ndarray
    cell_fixed: np.ndarray
    cell_type: np.ndarray
    cell_label: np.ndarray
    net_weight: np.ndarray
    net_start: np.ndarray
    pin_cell: np.ndarray
    pin_slot: np.ndarray
    pin_off_x: np.ndarray
    pin_off_y: np.ndarray
    inc_start: np.ndarray
    inc_net: np.ndarray
    inc_pos: np.ndarray
    meta: dict[str, Any]

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return int(self.cell_x.shape[0])

    @property
    def num_nets(self) -> int:
        return int(self.net_weight.shape[0])

    @property
    def num_pins(self) -> int:
        return int(self.pin_cell.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes of the array fields (the blob adds names and header)."""
        return sum(int(getattr(self, name).nbytes)
                   for name, _ in _ARRAY_FIELDS)

    # ------------------------------------------------------------------
    # compile
    # ------------------------------------------------------------------
    @classmethod
    def compile(cls, design: "GeneratedDesign") -> "NetlistArena":
        """Flatten a generated design into arena form.

        Raises:
            ValidationError: the netlist violates an arena invariant
                (missing library, non-dense indices, foreign pin spec,
                or an incidence whose pin is not on its net).
        """
        netlist = design.netlist
        if netlist.library is None:
            raise ValidationError(
                f"arena compile of {netlist.name!r}: netlist has no "
                "library attached")
        cells = netlist.cells
        nets = netlist.nets
        n = len(cells)

        type_names: list[str] = []
        type_index: dict[str, int] = {}
        slot_maps: dict[str, dict[str, int]] = {}
        cell_x = np.empty(n)
        cell_y = np.empty(n)
        cell_type = np.empty(n, dtype=np.int32)
        cell_names: list[str] = []
        cell_attrs: dict[int, dict[str, Any]] = {}
        for i, cell in enumerate(cells):
            if cell.index != i:
                raise ValidationError(
                    f"arena compile of {netlist.name!r}: cell "
                    f"{cell.name!r} has index {cell.index}, expected {i}")
            master = cell.cell_type
            ti = type_index.get(master.name)
            if ti is None:
                ti = len(type_names)
                type_index[master.name] = ti
                type_names.append(master.name)
                slot_maps[master.name] = {
                    spec.name: k for k, spec in enumerate(master.pins)}
            cell_x[i] = cell.x
            cell_y[i] = cell.y
            cell_type[i] = ti
            cell_names.append(cell.name)
            if cell.attributes:
                cell_attrs[i] = dict(cell.attributes)

        pin_slot: list[int] = []
        net_names: list[str] = []
        net_attrs: dict[int, dict[str, Any]] = {}
        # id(ref) -> (net index, position in net.pins): the incidence
        # arrays below must point at the exact PinRef objects a rebuilt
        # net will hold at the same positions
        ref_pos: dict[int, tuple[int, int]] = {}
        for j, net in enumerate(nets):
            if net.index != j:
                raise ValidationError(
                    f"arena compile of {netlist.name!r}: net "
                    f"{net.name!r} has index {net.index}, expected {j}")
            for k, ref in enumerate(net.pins):
                slots = slot_maps.get(ref.cell.cell_type.name, {})
                slot = slots.get(ref.pin.name)
                if slot is None or \
                        ref.cell.cell_type.pins[slot] != ref.pin:
                    raise ValidationError(
                        f"arena compile of {netlist.name!r}: net "
                        f"{net.name!r} pin {ref.pin.name!r} is not a "
                        f"pin of master {ref.cell.cell_type.name!r}")
                pin_slot.append(slot)
                ref_pos[id(ref)] = (j, k)
            net_names.append(net.name)
            if net.attributes:
                net_attrs[j] = dict(net.attributes)

        inc_start = np.zeros(n + 1, dtype=np.int64)
        inc_net: list[int] = []
        inc_pos: list[int] = []
        for i, cell in enumerate(cells):
            for net, ref in netlist.pins_of(cell):
                pos = ref_pos.get(id(ref))
                if pos is None or pos[0] != net.index:
                    raise ValidationError(
                        f"arena compile of {netlist.name!r}: cell "
                        f"{cell.name!r} has an incidence on net "
                        f"{net.name!r} whose pin is not on that net")
                inc_net.append(pos[0])
                inc_pos.append(pos[1])
            inc_start[i + 1] = len(inc_net)

        cell_label = np.full(n, -1, dtype=np.int32)
        label_table: list[tuple[str, str, int]] = []
        for truth in design.truth:
            for si, sl in enumerate(truth.slices):
                sid = len(label_table)
                label_table.append((truth.name, truth.kind, si))
                for name in sl.cells:
                    cell_label[netlist.cell(name).index] = sid

        # lazy import: repro.runtime imports repro.netlist at package
        # init, so the reverse edge must not exist at module scope
        from ..runtime.cache import netlist_fingerprint
        meta: dict[str, Any] = {
            "netlist_name": netlist.name,
            "library": netlist.library,
            "type_names": type_names,
            "cell_names": cell_names,
            "net_names": net_names,
            "cell_attrs": cell_attrs,
            "net_attrs": net_attrs,
            "region": design.region,
            "truth": design.truth,
            "label_table": label_table,
        }
        flat = netlist.flat()
        return cls(
            digest=netlist_fingerprint(netlist),
            cell_x=cell_x, cell_y=cell_y,
            cell_w=flat.cell_w, cell_h=flat.cell_h,
            cell_fixed=flat.cell_fixed, cell_type=cell_type,
            cell_label=cell_label,
            net_weight=flat.net_weight, net_start=flat.net_start,
            pin_cell=flat.pin_cell,
            pin_slot=np.asarray(pin_slot, dtype=np.int32),
            pin_off_x=flat.pin_off_x, pin_off_y=flat.pin_off_y,
            inc_start=inc_start,
            inc_net=np.asarray(inc_net, dtype=np.int64),
            inc_pos=np.asarray(inc_pos, dtype=np.int64),
            meta=meta,
        )

    # ------------------------------------------------------------------
    # reconstruction
    # ------------------------------------------------------------------
    def to_design(self) -> "GeneratedDesign":
        """Rebuild a fresh, fully mutable design from the arrays.

        Every call returns independent objects (cells, nets, region,
        truth) so concurrent jobs over one cached arena never alias
        mutable state.  Reconstruction is bit-exact: cell/net/pin order,
        initial coordinates, and per-cell incidence order all match the
        netlist the arena was compiled from.
        """
        from ..gen.composer import GeneratedDesign

        meta = self.meta
        library = meta["library"]
        types = [library[name] for name in meta["type_names"]]
        netlist = Netlist(name=meta["netlist_name"], library=library)

        cell_names = meta["cell_names"]
        cell_attrs = meta["cell_attrs"]
        cx, cy = self.cell_x, self.cell_y
        fixed, tidx = self.cell_fixed, self.cell_type
        cells: list[Cell] = []
        for i, name in enumerate(cell_names):
            cell = Cell(name=name, cell_type=types[tidx[i]],
                        x=float(cx[i]), y=float(cy[i]),
                        fixed=bool(fixed[i]), index=i)
            attrs = cell_attrs.get(i)
            if attrs:
                cell.attributes.update(copy.deepcopy(attrs))
            cells.append(cell)

        net_names = meta["net_names"]
        net_attrs = meta["net_attrs"]
        ns, pc, slots = self.net_start, self.pin_cell, self.pin_slot
        nets: list[Net] = []
        for j, name in enumerate(net_names):
            net = Net(name=name, weight=float(self.net_weight[j]),
                      index=j)
            attrs = net_attrs.get(j)
            if attrs:
                net.attributes.update(copy.deepcopy(attrs))
            for k in range(int(ns[j]), int(ns[j + 1])):
                cell = cells[pc[k]]
                net.pins.append(
                    PinRef(cell, cell.cell_type.pins[slots[k]]))
            nets.append(net)

        # populate the container's internals directly: the public
        # construction API would re-do name-collision checks and, more
        # importantly, could not reproduce the original interleaved
        # connect() order that the incidence arrays preserve
        netlist._cells = cells
        netlist._cell_by_name = {c.name: c for c in cells}
        netlist._nets = nets
        netlist._net_by_name = {net.name: net for net in nets}
        ist, inet, ipos = self.inc_start, self.inc_net, self.inc_pos
        cell_pins: list[list[tuple[Net, PinRef]]] = []
        for i in range(len(cells)):
            incid: list[tuple[Net, PinRef]] = []
            for t in range(int(ist[i]), int(ist[i + 1])):
                net = nets[inet[t]]
                incid.append((net, net.pins[ipos[t]]))
            cell_pins.append(incid)
        netlist._cell_pins = cell_pins
        # the flat view is this arena's own arrays, so no array consumer
        # walks the objects just built; positions are never served from
        # the arena — they mutate during placement
        netlist._flat = FlatNetlist.view_of(self)
        return GeneratedDesign(netlist=netlist,
                               region=copy.deepcopy(meta["region"]),
                               truth=copy.deepcopy(meta["truth"]))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """One contiguous blob: header + aligned arrays + meta pickle."""
        arrays = [(name, np.ascontiguousarray(
            getattr(self, name), dtype=np.dtype(dt)))
            for name, dt in _ARRAY_FIELDS]
        meta_blob = pickle.dumps(self.meta,
                                 protocol=pickle.HIGHEST_PROTOCOL)
        header: dict[str, Any] = {"digest": self.digest, "arrays": []}
        # reserve generous space for the header so offsets are stable:
        # compute layout with a fixed-size header slot
        probe = dict(header)
        probe["arrays"] = [[name, dt, 2 ** 62, 2 ** 62]
                           for name, dt in _ARRAY_FIELDS]
        probe["meta"] = [2 ** 62, 2 ** 62]
        header_cap = _pad(len(_MAGIC) + 8 +
                          len(json.dumps(probe).encode()) + 64)
        offset = header_cap
        for name, arr in arrays:
            offset = _pad(offset)
            header["arrays"].append(
                [name, arr.dtype.str, offset, int(arr.nbytes)])
            offset += arr.nbytes
        offset = _pad(offset)
        header["meta"] = [offset, len(meta_blob)]
        total = offset + len(meta_blob)

        out = bytearray(total)
        header_bytes = json.dumps(header).encode()
        if len(_MAGIC) + 8 + len(header_bytes) > header_cap:
            raise ValidationError(
                "arena header overflow (internal sizing error)")
        out[:len(_MAGIC)] = _MAGIC
        out[len(_MAGIC):len(_MAGIC) + 8] = \
            len(header_bytes).to_bytes(8, "little")
        hstart = len(_MAGIC) + 8
        out[hstart:hstart + len(header_bytes)] = header_bytes
        for (_, arr), spec in zip(arrays, header["arrays"]):
            off = spec[2]
            out[off:off + arr.nbytes] = arr.tobytes()
        out[header["meta"][0]:total] = meta_blob
        return bytes(out)

    @classmethod
    def from_buffer(cls, buf: "bytes | memoryview") -> "NetlistArena":
        """Reopen a serialized arena as read-only views over ``buf``.

        The array fields are zero-copy views (the caller keeps the
        backing buffer — e.g. the attached shared-memory segment —
        alive); only the metadata pickle is materialized.

        Raises:
            ValidationError: the buffer is not an arena blob (bad magic
                or a truncated/corrupt header).
        """
        view = memoryview(buf)
        if bytes(view[:len(_MAGIC)]) != _MAGIC:
            raise ValidationError("not a netlist-arena buffer (bad magic)")
        hlen = int.from_bytes(view[len(_MAGIC):len(_MAGIC) + 8], "little")
        hstart = len(_MAGIC) + 8
        try:
            header = json.loads(bytes(view[hstart:hstart + hlen]))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(
                f"corrupt netlist-arena header: {exc}") from exc
        fields: dict[str, Any] = {"digest": header["digest"]}
        for name, dtype_str, offset, nbytes in header["arrays"]:
            dt = np.dtype(dtype_str)
            arr = np.frombuffer(view, dtype=dt,
                                count=nbytes // dt.itemsize,
                                offset=offset)
            arr.setflags(write=False)
            fields[name] = arr
        moff, mlen = header["meta"]
        fields["meta"] = pickle.loads(bytes(view[moff:moff + mlen]))
        return cls(**fields)
