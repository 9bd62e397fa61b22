"""Multilevel (V-cycle) global placement.

Coarsen the netlist with structure-preserving clustering (extracted
bit-slice bundles stay atomic), place the coarsest level from scratch,
then interpolate and refine level by level with warm-started solves;
every level runs the electrostatic engine.
See :mod:`repro.place.multilevel.vcycle` for the controller, which also
holds the one flat-engine dispatch (:func:`place_flat`) every global
placement goes through.
"""

from .clustering import Clustering, cluster_cells, pair_affinities
from .coarsen import build_coarse_netlist, interpolate_positions
from .options import MultilevelOptions
from .vcycle import ENGINES, check_engine, multilevel_place, place_flat

__all__ = [
    "Clustering",
    "ENGINES",
    "MultilevelOptions",
    "build_coarse_netlist",
    "check_engine",
    "cluster_cells",
    "interpolate_positions",
    "multilevel_place",
    "pair_affinities",
    "place_flat",
]
