"""Structure-aware placement for datapath-intensive circuit designs.

A from-scratch reproduction of the DAC 2012 paper by Chou, Hsu, and Chang
(built from title/venue/author lineage — see DESIGN.md for the source-text
caveat).  The package provides:

- a netlist data model and Bookshelf I/O (:mod:`repro.netlist`,
  :mod:`repro.bookshelf`);
- a synthetic datapath benchmark generator with ground-truth labels
  (:mod:`repro.gen`);
- a full analytical placement engine — B2B quadratic and ePlace
  electrostatic global placement, Tetris/Abacus legalization, detailed
  placement
  (:mod:`repro.place`);
- the paper's contribution: automatic datapath extraction and
  structure-aware placement (:mod:`repro.core`);
- evaluation metrics and reporting (:mod:`repro.eval`);
- a batch execution runtime — parallel job fan-out, durable artifact
  caching, structured telemetry (:mod:`repro.runtime`);
- fault tolerance — an error taxonomy (:mod:`repro.errors`), numerical
  guards, a degradation ladder, and the job hook that heartbeats and
  cancels a running placement (:mod:`repro.robust`).

Quickstart::

    from repro import (compose_design, UnitSpec, StructureAwarePlacer,
                       evaluate_placement)

    design = compose_design("demo", [UnitSpec("alu", 16)], glue_cells=400)
    outcome = StructureAwarePlacer().place(design.netlist, design.region)
    report = evaluate_placement(design.netlist, design.region)
    print(outcome.row(), report.row())
"""

from .core import (BaselinePlacer, ExtractionOptions, ExtractionResult,
                   PlaceOutcome, PlacerOptions, StructureAwarePlacer,
                   extract_datapaths)
from .errors import (CacheCorruptionError, LegalizationError,
                     NumericalError, ParseError, ReproError,
                     ValidationError, error_kind, exit_code_for)
from .eval import (PlacementReport, evaluate_placement, format_table,
                   score_extraction, total_steiner)
from .gen import (GeneratedDesign, UnitSpec, build_design, compose_design,
                  datapath_fraction_design, design_names, suite)
from .netlist import (Cell, CellType, Library, Net, Netlist, compute_stats,
                      default_library)
from .place import PlacementRegion, region_for
from .runtime import (ArtifactCache, BatchExecutor, JobResult,
                      PlacementJob, SuiteResult, Tracer, run_suite)

__version__ = "1.1.0"

__all__ = [
    "ArtifactCache",
    "BaselinePlacer",
    "BatchExecutor",
    "CacheCorruptionError",
    "Cell",
    "CellType",
    "ExtractionOptions",
    "ExtractionResult",
    "GeneratedDesign",
    "JobResult",
    "LegalizationError",
    "Library",
    "Net",
    "Netlist",
    "NumericalError",
    "ParseError",
    "PlaceOutcome",
    "PlacementJob",
    "PlacementRegion",
    "PlacementReport",
    "PlacerOptions",
    "ReproError",
    "StructureAwarePlacer",
    "SuiteResult",
    "Tracer",
    "UnitSpec",
    "ValidationError",
    "build_design",
    "compose_design",
    "compute_stats",
    "datapath_fraction_design",
    "default_library",
    "design_names",
    "error_kind",
    "evaluate_placement",
    "exit_code_for",
    "extract_datapaths",
    "format_table",
    "region_for",
    "run_suite",
    "score_extraction",
    "suite",
    "total_steiner",
    "__version__",
]
