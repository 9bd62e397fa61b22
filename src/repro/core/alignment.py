"""Alignment forces: structure constraints as quadratic pair terms.

The structure-aware global placer keeps each extracted array in formation
by adding pair terms ``w * (p_i - p_j + offset)^2`` to the quadratic (or
electrostatic) objective:

- **intra-slice chains** (x and y): consecutive stage cells of one slice
  are tied at their planned spacing, keeping each bit's cells in a row;
- **inter-slice stacks** (x and y): the lead cells of vertically adjacent
  slices are tied at one row pitch, stacking the bits and vertically
  aligning the stage columns.

The pair weight is ``structure_weight`` times a per-design base derived
from the average B2B net weight, so a given ``structure_weight`` means the
same relative strength across designs.  ``structure_weight`` is the λ the
F2 experiment sweeps; 0 disables structure exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..place.arrays import PlacementArrays
from .groups import ArrayPlan

# (cell_i, cell_j, weight, offset): adds w * (p_i - p_j + offset)^2
Pair = tuple[int, int, float, float]


@dataclass
class AlignmentForces:
    """The pair terms implementing structure constraints."""

    pairs_x: list[Pair] = field(default_factory=list)
    pairs_y: list[Pair] = field(default_factory=list)

    def extend(self, other: "AlignmentForces") -> None:
        self.pairs_x.extend(other.pairs_x)
        self.pairs_y.extend(other.pairs_y)
        self._arrays_cache = None

    @property
    def count(self) -> int:
        return len(self.pairs_x) + len(self.pairs_y)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Both axes as flat ``(K, 4)`` float arrays ``(x_pairs, y_pairs)``
        for the vectorized assembly/objective kernels; cached — callers
        that mutate the pair lists must go through :meth:`extend` (or
        clear ``_arrays_cache``) to invalidate."""
        import numpy as np

        cached = getattr(self, "_arrays_cache", None)
        if cached is None:
            cached = (
                np.asarray(self.pairs_x, dtype=float).reshape(-1, 4),
                np.asarray(self.pairs_y, dtype=float).reshape(-1, 4))
            self._arrays_cache = cached
        return cached


def base_weight(arrays: PlacementArrays) -> float:
    """A per-design reference weight comparable to B2B net weights.

    B2B weights are ``2 / ((p-1) |d|)``; at convergence |d| is a few site
    widths, so 1 / (average cell width) is a sound scale reference.
    """
    import numpy as np

    movable = arrays.movable
    if not movable.any():
        return 1.0
    avg_w = float(np.mean(arrays.width[movable]))
    return 1.0 / max(avg_w, 1e-6)


def build_alignment(plans: list[ArrayPlan], arrays: PlacementArrays, *,
                    structure_weight: float = 1.0) -> AlignmentForces:
    """Build alignment pair terms for all planned arrays.

    Args:
        plans: array plans with relative cell offsets.
        arrays: flattened netlist (for the weight scale).
        structure_weight: λ; 0 yields no pairs at all.

    Returns:
        The pair terms, in center coordinates (offsets converted from the
        plans' corner-relative form).
    """
    forces = AlignmentForces()
    if structure_weight <= 0.0 or not plans:
        return forces
    w = structure_weight * base_weight(arrays)

    half_w = arrays.width / 2.0
    half_h = arrays.height / 2.0

    def center_offset(i: int, j: int, plan: ArrayPlan
                      ) -> tuple[float, float]:
        """(dx, dy) such that center_i - center_j should equal (dx, dy)."""
        oxi, oyi = plan.offsets[i]
        oxj, oyj = plan.offsets[j]
        dx = (oxi + half_w[i]) - (oxj + half_w[j])
        dy = (oyi + half_h[i]) - (oyj + half_h[j])
        return dx, dy

    for plan in plans:
        # intra-slice chains
        for slice_cells in plan.array.slices:
            for a, b in zip(slice_cells, slice_cells[1:]):
                i, j = a.index, b.index
                dx, dy = center_offset(i, j, plan)
                # pair term is w*(p_i - p_j + off)^2 -> off = -(desired diff)
                forces.pairs_x.append((i, j, w, -dx))
                forces.pairs_y.append((i, j, w, -dy))
        # inter-slice stacking between consecutive slices' lead cells
        leads = [s[0] for s in plan.array.slices if s]
        for a, b in zip(leads, leads[1:]):
            i, j = a.index, b.index
            dx, dy = center_offset(i, j, plan)
            forces.pairs_x.append((i, j, w, -dx))
            forces.pairs_y.append((i, j, w, -dy))
    return forces
