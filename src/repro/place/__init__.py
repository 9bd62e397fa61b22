"""Generic analytical placement engine.

Submodules: region geometry, flattened arrays, wirelength and density
models, B2B quadratic and nonlinear global placers, Tetris/Abacus
legalization, and detailed placement.
"""

from .abacus import abacus_legalize
from .arrays import PlacementArrays
from .b2b import B2BBuilder, QuadraticSystem
from .density import BellDensity, density_map, overflow
from .detailed import (DetailedStats, detailed_place, global_swap_pass,
                       row_reorder_pass)
from .legalize import LegalizeResult, check_legal, tetris_legalize
from .nonlinear import NonlinearOptions, NonlinearPlacer, NonlinearResult
from .optimizer import CGOptions, CGResult, conjugate_gradient
from .quadratic import (GlobalPlaceOptions, GlobalPlaceResult, IterationStat,
                        QuadraticPlacer)
from .region import BinGrid, PlacementRegion, Row, default_grid, region_for
from .spreading import spread_positions
from .wirelength import (hpwl, hpwl_per_net, lse_wirelength,
                         lse_wirelength_grad, wa_wirelength,
                         wa_wirelength_grad)

__all__ = [
    "B2BBuilder",
    "BellDensity",
    "BinGrid",
    "CGOptions",
    "CGResult",
    "DetailedStats",
    "GlobalPlaceOptions",
    "GlobalPlaceResult",
    "IterationStat",
    "LegalizeResult",
    "NonlinearOptions",
    "NonlinearPlacer",
    "NonlinearResult",
    "PlacementArrays",
    "PlacementRegion",
    "QuadraticPlacer",
    "QuadraticSystem",
    "Row",
    "abacus_legalize",
    "check_legal",
    "conjugate_gradient",
    "default_grid",
    "density_map",
    "detailed_place",
    "global_swap_pass",
    "hpwl",
    "hpwl_per_net",
    "lse_wirelength",
    "lse_wirelength_grad",
    "overflow",
    "region_for",
    "row_reorder_pass",
    "spread_positions",
    "tetris_legalize",
    "wa_wirelength",
    "wa_wirelength_grad",
]
