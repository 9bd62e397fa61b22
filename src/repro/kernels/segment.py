"""Per-net segment reductions over CSR pin arrays.

All kernels operate on the flat CSR layout of
:class:`repro.place.arrays.PlacementArrays`: a per-pin value array plus a
``net_start`` offset array of length ``M + 1`` where the pins of net
``j`` occupy ``values[net_start[j]:net_start[j+1]]``.  Segments must be
non-empty (``ufunc.reduceat`` is undefined on empty segments; degree-0
nets never reach these kernels because the array builders drop them).
"""

from __future__ import annotations

import numpy as np

from ..errors import OptionsError


def segment_reduce(values: np.ndarray, starts: np.ndarray,
                   op: str) -> np.ndarray:
    """Per-segment max, min, or sum of a per-pin array via ``reduceat``.

    Args:
        values: (P,) per-pin values.
        starts: (M+1,) CSR offsets; only ``starts[:-1]`` seeds the
            reduction.
        op: ``"max"``, ``"min"``, or ``"sum"``.
    """
    if len(starts) <= 1:
        return np.empty(0, dtype=values.dtype)
    seeds = starts[:-1]
    if op == "max":
        return np.maximum.reduceat(values, seeds)
    if op == "min":
        return np.minimum.reduceat(values, seeds)
    if op == "sum":
        return np.add.reduceat(values, seeds)
    raise OptionsError(f"unknown op {op!r}")


def expand_pin_net(net_start: np.ndarray) -> np.ndarray:
    """(P,) net index of every pin — the inverse of the CSR ranges."""
    degrees = np.diff(net_start)
    return np.repeat(np.arange(len(degrees), dtype=np.int64), degrees)


def net_bounds(coords: np.ndarray, starts: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Per-net (min, max) of a per-pin coordinate array."""
    return (segment_reduce(coords, starts, "min"),
            segment_reduce(coords, starts, "max"))


def hpwl_per_net_kernel(px: np.ndarray, py: np.ndarray,
                        starts: np.ndarray) -> np.ndarray:
    """(M,) unweighted HPWL of each net from flat pin positions."""
    if len(starts) <= 1:
        return np.empty(0)
    seeds = starts[:-1]
    return ((np.maximum.reduceat(px, seeds)
             - np.minimum.reduceat(px, seeds))
            + (np.maximum.reduceat(py, seeds)
               - np.minimum.reduceat(py, seeds)))


def hpwl_kernel(px: np.ndarray, py: np.ndarray, starts: np.ndarray,
                weights: np.ndarray) -> float:
    """Total weighted HPWL from flat pin positions."""
    if len(starts) <= 1:
        return 0.0
    return float(np.dot(weights, hpwl_per_net_kernel(px, py, starts)))
