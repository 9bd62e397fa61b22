"""Half-perimeter wirelength of a placement.

Both functions operate on :class:`~repro.place.arrays.PlacementArrays`
and cell center arrays, and run on the per-net segment kernels of
:mod:`repro.kernels.segment`.
"""

from __future__ import annotations

import numpy as np

from ..kernels import hpwl_kernel, hpwl_per_net_kernel
from .arrays import PlacementArrays


def hpwl(arrays: PlacementArrays, x: np.ndarray, y: np.ndarray) -> float:
    """Exact weighted half-perimeter wirelength."""
    px, py = arrays.pin_positions(x, y)
    return hpwl_kernel(px, py, arrays.net_start, arrays.net_weight)


def hpwl_per_net(arrays: PlacementArrays, x: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """(M,) unweighted HPWL of each net."""
    px, py = arrays.pin_positions(x, y)
    return hpwl_per_net_kernel(px, py, arrays.net_start)
