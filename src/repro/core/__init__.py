"""The paper's core contribution: datapath extraction and structure-aware
placement."""

from .alignment import AlignmentForces, Pair, base_weight, build_alignment
from .arrays import (ExtractedArray, absorb_adjacent, arrays_from_columns,
                     arrays_from_slices)
from .bundles import (BundleLabel, ControlColumn, EdgeBundle,
                      control_columns, detect_clock_nets, edge_bundles)
from .extraction import (ExtractionOptions, ExtractionResult,
                         extract_datapaths)
from .groups import ArrayPlan, group_ids, plan_array, plan_arrays
from .signatures import signature_classes, structural_signatures
from .slices import Slice, grow_slices
from .structured_placer import (BaselinePlacer, PlaceOutcome, PlacerOptions,
                                StructureAwarePlacer, legalize_structured)

__all__ = [
    "AlignmentForces",
    "ArrayPlan",
    "BaselinePlacer",
    "BundleLabel",
    "ControlColumn",
    "EdgeBundle",
    "ExtractedArray",
    "ExtractionOptions",
    "ExtractionResult",
    "Pair",
    "PlaceOutcome",
    "PlacerOptions",
    "Slice",
    "StructureAwarePlacer",
    "absorb_adjacent",
    "arrays_from_columns",
    "arrays_from_slices",
    "base_weight",
    "build_alignment",
    "control_columns",
    "detect_clock_nets",
    "edge_bundles",
    "extract_datapaths",
    "group_ids",
    "grow_slices",
    "legalize_structured",
    "plan_array",
    "plan_arrays",
    "signature_classes",
    "structural_signatures",
]
