"""The datapath extraction pipeline.

:func:`extract_datapaths` runs the full recovery chain on a flat netlist:

1. detect clock-like nets structurally (excluded from all later cues);
2. collect edge bundles and control columns
   (:mod:`repro.core.bundles`);
3. grow candidate bit slices from matching bundles
   (:mod:`repro.core.slices`);
4. form slice-based arrays with chain/control grouping and ordering
   (:func:`repro.core.arrays.arrays_from_slices`);
5. grow column-based arrays from control columns over the still-unclaimed
   cells (:func:`repro.core.arrays.arrays_from_columns`);
6. filter by size/shape and resolve any residual cell-ownership overlaps
   (first — larger — array wins).

The extractor reads only connectivity and master types.  Generator
ground-truth attributes are never consulted (tests enforce this by
stripping them before extraction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netlist import Netlist
from ..runtime.telemetry import Tracer
from .arrays import (ExtractedArray, absorb_adjacent, arrays_from_columns,
                     arrays_from_slices)
from .bundles import control_columns, detect_clock_nets, edge_bundles
from .slices import grow_slices


@dataclass(frozen=True)
class ExtractionOptions:
    """Tuning knobs for :func:`extract_datapaths`.

    Attributes:
        min_width: minimum bits for a connected array.
        unconnected_min_width: minimum bits for merging independent
            isomorphic slices.
        unconnected_min_size: minimum slice length for that merge.
        min_cells: minimum total cells per reported array.
        small_net_max: net degree boundary between datapath wiring and
            control fanout.
        min_bundle_count: repetition threshold for edge bundles.
        max_slice_size: slice component size cap.
        clock_frac: fraction of sequential cells above which a net is
            treated as a clock.
    """

    min_width: int = 4
    unconnected_min_width: int = 6
    unconnected_min_size: int = 3
    min_cells: int = 12
    small_net_max: int = 8
    min_bundle_count: int = 4
    max_slice_size: int = 64
    clock_frac: float = 0.25


@dataclass
class ExtractionResult:
    """Everything the extractor recovered.

    Attributes:
        arrays: accepted datapath arrays, largest first.
        elapsed_s: wall-clock extraction time.
        num_slices_considered: candidate slices before grouping.
    """

    arrays: list[ExtractedArray] = field(default_factory=list)
    elapsed_s: float = 0.0
    num_slices_considered: int = 0

    def cell_names(self) -> set[str]:
        return {name for a in self.arrays for name in a.cell_names()}

    def cell_sets(self) -> list[set[str]]:
        """One set of names per array (the scoring input)."""
        return [a.cell_names() for a in self.arrays]

    @property
    def num_cells(self) -> int:
        return sum(a.num_cells for a in self.arrays)

    def summary(self) -> str:
        lines = [f"extracted {len(self.arrays)} arrays, "
                 f"{self.num_cells} cells, {self.elapsed_s:.2f}s"]
        for a in self.arrays:
            lines.append(f"  {a.name}: {a.width} x {a.depth} "
                         f"({a.num_cells} cells, {a.source})")
        return "\n".join(lines)


def extract_datapaths(netlist: Netlist,
                      options: ExtractionOptions | None = None,
                      tracer: Tracer | None = None) -> ExtractionResult:
    """Recover datapath arrays from a flat netlist.

    Args:
        netlist: the design; only connectivity and master types are read.
        options: tuning knobs.
        tracer: telemetry hook; the whole run is one ``extract`` phase
            (``elapsed_s`` comes from its timer) holding one
            ``extract.bundles``, ``extract.slices`` and ``extract.arrays``
            phase each.

    Returns:
        The extraction result with arrays sorted largest-first.
    """
    opts = options or ExtractionOptions()
    tracer = tracer or Tracer()
    with tracer.phase("extract", design=netlist.name) as ph:
        final, num_slices = _extract(netlist, opts, tracer)
        tracer.incr("extract.arrays", len(final))
    return ExtractionResult(arrays=final, elapsed_s=ph.elapsed_s,
                            num_slices_considered=num_slices)


def _extract(netlist: Netlist, opts: ExtractionOptions, tracer: Tracer
             ) -> tuple[list[ExtractedArray], int]:
    with tracer.phase("extract.bundles"):
        clocks = detect_clock_nets(netlist, frac=opts.clock_frac)
        bundles = edge_bundles(netlist, small_net_max=opts.small_net_max,
                               min_count=opts.min_bundle_count,
                               exclude_nets=clocks)
        columns = control_columns(netlist, min_width=opts.min_width,
                                  small_net_max=opts.small_net_max,
                                  exclude_nets=clocks)

    with tracer.phase("extract.slices"):
        slices = grow_slices(bundles, max_slice_size=opts.max_slice_size)

    with tracer.phase("extract.arrays"):
        slice_arrays = arrays_from_slices(
            slices, bundles, columns,
            min_width=opts.min_width,
            unconnected_min_width=opts.unconnected_min_width,
            unconnected_min_size=opts.unconnected_min_size)

        claimed = {name for a in slice_arrays for name in a.cell_names()}
        column_arrays = arrays_from_columns(
            netlist, columns, claimed=claimed, exclude_nets=clocks,
            min_width=opts.min_width, small_net_max=opts.small_net_max)
        claimed.update(name for a in column_arrays for name in a.cell_names())

        # pre-filter before absorption so borderline glue motifs never grow
        all_arrays = [a for a in slice_arrays + column_arrays
                      if a.num_cells >= opts.min_cells
                      and a.width >= opts.min_width]
        absorb_adjacent(netlist, all_arrays, claimed=claimed,
                        exclude_nets=clocks, small_net_max=opts.small_net_max,
                        match_frac=0.75, rounds=2)

        # overlap resolution (larger arrays keep contested cells)
        arrays = list(all_arrays)
        arrays.sort(key=lambda a: -a.num_cells)
        owned: set[str] = set()
        final: list[ExtractedArray] = []
        for a in arrays:
            kept_slices = []
            for s in a.slices:
                kept = [c for c in s if c.name not in owned and c.movable]
                if kept:
                    kept_slices.append(kept)
            if not kept_slices:
                continue
            pruned = ExtractedArray(name=a.name, slices=kept_slices,
                                    source=a.source, coupled=a.coupled)
            if pruned.num_cells >= opts.min_cells and \
                    pruned.width >= opts.min_width:
                owned.update(pruned.cell_names())
                final.append(pruned)

    for i, a in enumerate(final):
        a.name = f"dp{i}"
    return final, len(slices)
