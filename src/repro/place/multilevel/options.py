"""Knobs for the multilevel (V-cycle) global placement engine."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

from ...errors import OptionsError


@dataclass
class MultilevelOptions:
    """Configuration for :func:`repro.place.multilevel.multilevel_place`.

    Attributes:
        enabled: run global placement through the V-cycle instead of flat.
        max_levels: maximum number of coarsening levels above the flat
            netlist, an integer >= 0 (the actual count also stops at
            ``coarsest_cells`` or when clustering makes no progress).
        cluster_ratio: target ratio of coarse movable cells to fine
            movable cells per coarsening step, in (0, 1) (0.3 means
            each level is ~3.3x smaller).
        coarsest_cells: stop coarsening once a level has at most this
            many movable cells; the coarsest level is placed from
            scratch, so it should stay cheap.
        refine_iterations: the warm-started refinement budget per finer
            level after declustering: anchored GP rounds under the
            quadratic engine (every finer level, the finest included);
            under electro, ``refine_iterations * overflow_every``
            Nesterov iterations per coarse level only — the finest
            level runs the engine's own budget to its target overflow.
        coarsest_iterations: GP iteration cap for the coarsest-level
            solve.  Cluster granularity often cannot reach the flat
            ``target_overflow``, so without a cap the coarsest level
            burns the whole outer budget on a plateau.
        refine_anchor_iteration: anchor-ramp position refinement starts
            from (round ``i`` of a refinement pass uses weight
            ``anchor_alpha * (refine_anchor_iteration + i)``).  Keeps
            refinement anchors moderate regardless of how many
            iterations the coarsest level consumed.
        refine_min_distance: B2B pin-separation clamp used by the
            refinement solves (in layout units, ~1 site).  Refinement
            linearises at spread, row-aligned positions where many pins
            share an exact y coordinate; the flat default clamp (1e-6)
            turns those into 1e6-weight couplings that defeat the ILU
            preconditioner, while a ~1-unit clamp keeps the weight
            spread within a few decades and the solves iterative.
        max_affinity_degree: nets above this degree contribute no
            clustering affinity (high-fanout control nets would glue
            unrelated logic together).
        area_cap_factor: a cluster may grow to at most this multiple of
            the level's target mean cluster area; extracted bit-slice
            bundles are atomic seeds and exempt.
    """

    enabled: bool = False
    max_levels: int = 3
    cluster_ratio: float = 0.4
    coarsest_cells: int = 500
    refine_iterations: int = 3
    coarsest_iterations: int = 12
    refine_anchor_iteration: int = 2
    refine_min_distance: float = 1.0
    max_affinity_degree: int = 8
    area_cap_factor: float = 6.0

    def __post_init__(self) -> None:
        """Reject level counts and ratios the V-cycle cannot honour.

        Raises:
            OptionsError: ``max_levels`` is not an integer >= 0, or
                ``cluster_ratio`` is not a finite number in (0, 1).
        """
        levels = self.max_levels
        if isinstance(levels, bool) or not isinstance(levels, Integral) \
                or levels < 0:
            raise OptionsError(
                f"multilevel max_levels must be an integer >= 0, got "
                f"{levels!r}", option="max_levels")
        ratio = self.cluster_ratio
        if isinstance(ratio, bool) or not isinstance(ratio, Real) \
                or not math.isfinite(ratio) or not 0.0 < ratio < 1.0:
            raise OptionsError(
                f"multilevel cluster_ratio must be a finite number with "
                f"0 < cluster_ratio < 1, got {ratio!r}",
                option="cluster_ratio")
