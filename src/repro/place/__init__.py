"""Generic analytical placement engine.

Submodules: region geometry, flattened arrays, wirelength and density
models, the B2B quadratic and ePlace electrostatic global placers,
Tetris/Abacus legalization, and detailed placement.
"""

from .abacus import abacus_legalize
from .arrays import PlacementArrays
from .b2b import B2BBuilder, QuadraticSystem
from .density import density_map, overflow
from .detailed import (DetailedStats, detailed_place, global_swap_pass,
                       row_reorder_pass)
from .legalize import LegalizeResult, check_legal, tetris_legalize
from .quadratic import (GlobalPlaceOptions, GlobalPlaceResult, IterationStat,
                        QuadraticPlacer)
from .region import BinGrid, PlacementRegion, Row, default_grid, region_for
from .spreading import spread_positions
from .wirelength import hpwl, hpwl_per_net

__all__ = [
    "B2BBuilder",
    "BinGrid",
    "DetailedStats",
    "GlobalPlaceOptions",
    "GlobalPlaceResult",
    "IterationStat",
    "LegalizeResult",
    "PlacementArrays",
    "PlacementRegion",
    "QuadraticPlacer",
    "QuadraticSystem",
    "Row",
    "abacus_legalize",
    "check_legal",
    "default_grid",
    "density_map",
    "detailed_place",
    "global_swap_pass",
    "hpwl",
    "hpwl_per_net",
    "overflow",
    "region_for",
    "row_reorder_pass",
    "spread_positions",
    "tetris_legalize",
]
