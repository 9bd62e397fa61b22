"""Vectorized bound-to-bound (B2B) net-model kernels.

The B2B model connects every pin of a net to the net's min and max
(boundary) pins with distance-normalised weights.  The scalar assembly
in :mod:`repro.place.b2b` walked every net in Python; these kernels
compute boundary pins, enumerate all B2B pairs, and scatter them into
the sparse-system triplets with a weighted ``np.bincount`` — one pass
over flat arrays per axis.

The pair-enumeration scratch (three ~2P-element concatenations per axis
per call) can be reused across calls through an optional
:class:`~repro.kernels.workspace.Workspace`; slice-assignment into the
reused buffers produces the same values as the concatenations it
replaces, so results are bit-identical.  :func:`b2b_grad` evaluates the
gradient of the B2B quadratic form directly from the pair list — no
sparse assembly — which is what the electrostatic engine's Nesterov
loop consumes every iteration.
"""

from __future__ import annotations

import numpy as np

from .workspace import Workspace


def boundary_pins(pin_pos: np.ndarray, net_start: np.ndarray,
                  pin_net: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-net (lo, hi) boundary pin indices, first occurrence.

    Matches ``argmin`` / ``argmax`` tie-breaking of the scalar code: the
    first pin attaining the extreme wins.  Degenerate nets whose pins
    are all coincident get ``hi = lo + 1`` (the scalar fallback), which
    is safe because callers only pass nets of degree >= 2.
    """
    if len(net_start) <= 1:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    seeds = net_start[:-1]
    net_min = np.minimum.reduceat(pin_pos, seeds)
    net_max = np.maximum.reduceat(pin_pos, seeds)
    idx = np.arange(pin_pos.shape[0], dtype=np.int64)
    big = pin_pos.shape[0]
    lo = np.minimum.reduceat(
        np.where(pin_pos == net_min[pin_net], idx, big), seeds)
    hi = np.minimum.reduceat(
        np.where(pin_pos == net_max[pin_net], idx, big), seeds)
    degenerate = lo == hi
    hi[degenerate] = lo[degenerate] + 1
    return lo, hi


def _stack3(ws: Workspace | None, tag: str, dtype,
            first: np.ndarray, second: np.ndarray,
            third: np.ndarray) -> np.ndarray:
    """``concatenate([first, second, third])``, through the workspace
    when one is given (identical values, reused storage)."""
    if ws is None:
        return np.concatenate([first, second, third])
    n1, n2 = first.shape[0], second.shape[0]
    total = n1 + n2 + third.shape[0]
    out = ws.take(tag, (total,), dtype=dtype)
    out[:n1] = first
    out[n1:n1 + n2] = second
    out[n1 + n2:] = third
    return out


def b2b_pairs(pin_pos: np.ndarray, net_start: np.ndarray,
              net_weight: np.ndarray, pin_cell: np.ndarray,
              offsets: np.ndarray, pin_net: np.ndarray, eps: float,
              workspace: Workspace | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All B2B pair terms for one axis.

    For each net: the boundary pair (lo, hi) plus, for every interior
    pin k, the pairs (k, lo) and (k, hi); pair weight is
    ``weight * 2 / ((deg - 1) * max(|d|, eps))``.  Pairs joining two
    pins of the same cell are dropped (they contribute nothing).

    Returns:
        ``(cell_a, cell_b, w, const)`` arrays where ``const`` is
        ``offsets[a] - offsets[b]`` — the fixed part of the separation.
        Always freshly allocated (the final same-cell compression
        copies), so they survive workspace reuse.
    """
    degrees = np.diff(net_start)
    if degrees.size == 0:
        empty_i = np.empty(0, dtype=np.int64)
        return empty_i, empty_i.copy(), np.empty(0), np.empty(0)
    live = degrees >= 2
    lo, hi = boundary_pins(pin_pos, net_start, pin_net)
    wnet = np.zeros(len(degrees))
    wnet[live] = net_weight[live] * 2.0 / (degrees[live] - 1)

    pin_idx = np.arange(pin_pos.shape[0], dtype=np.int64)
    lo_of = lo[pin_net]
    hi_of = hi[pin_net]
    interior = (pin_idx != lo_of) & (pin_idx != hi_of) & live[pin_net]

    a = _stack3(workspace, "b2b.a", np.int64,
                lo[live], pin_idx[interior], pin_idx[interior])
    bb = _stack3(workspace, "b2b.b", np.int64,
                 hi[live], lo_of[interior], hi_of[interior])
    wn = _stack3(workspace, "b2b.wn", np.float64,
                 wnet[live], wnet[pin_net[interior]],
                 wnet[pin_net[interior]])

    dist = np.abs(pin_pos[a] - pin_pos[bb])
    w = wn / np.maximum(dist, eps)
    const = offsets[a] - offsets[bb]
    ca = pin_cell[a]
    cb = pin_cell[bb]
    keep = ca != cb
    return ca[keep], cb[keep], w[keep], const[keep]


def assemble_pairs(cell_a: np.ndarray, cell_b: np.ndarray, w: np.ndarray,
                   const: np.ndarray, row_of: np.ndarray,
                   coords: np.ndarray, m: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray, np.ndarray]:
    """Scatter pair terms ``w * (p_a - p_b + const)^2`` into triplets.

    Args:
        cell_a / cell_b / w / const: pair arrays.
        row_of: (N,) dense row of each movable cell, -1 for fixed.
        coords: (N,) current axis coordinates (fixed-side constants).
        m: number of movable rows.

    Returns:
        ``(diag, b, rows, cols, vals)`` — diagonal and right-hand-side
        accumulators plus off-diagonal COO triplets.
    """
    ra = row_of[cell_a]
    rb = row_of[cell_b]
    both = (ra >= 0) & (rb >= 0)
    only_a = (ra >= 0) & (rb < 0)
    only_b = (ra < 0) & (rb >= 0)

    def bc(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return np.bincount(rows, weights=weights, minlength=m)

    diag = (bc(ra[both], w[both]) + bc(rb[both], w[both])
            + bc(ra[only_a], w[only_a]) + bc(rb[only_b], w[only_b]))
    b = (-bc(ra[both], w[both] * const[both])
         + bc(rb[both], w[both] * const[both])
         + bc(ra[only_a],
              w[only_a] * (coords[cell_b[only_a]] - const[only_a]))
         + bc(rb[only_b],
              w[only_b] * (coords[cell_a[only_b]] + const[only_b])))
    rows = np.concatenate([ra[both], rb[both]])
    cols = np.concatenate([rb[both], ra[both]])
    vals = np.concatenate([-w[both], -w[both]])
    return diag, b, rows, cols, vals


def b2b_grad(cell_a: np.ndarray, cell_b: np.ndarray, w: np.ndarray,
             const: np.ndarray, coords: np.ndarray
             ) -> tuple[float, np.ndarray]:
    """Value and per-cell gradient of ``sum w * (p_a - p_b + const)^2``.

    The direct-gradient companion of :func:`assemble_pairs`: gradient
    descent engines (the electrostatic Nesterov loop) need ``dWL/dx``
    at the current linearisation point every iteration, and evaluating
    it straight from the pair list skips the sparse assembly the solve
    path requires.

    Args:
        cell_a / cell_b / w / const: pair arrays from :func:`b2b_pairs`.
        coords: (N,) current axis coordinates (all cells).

    Returns:
        ``(value, grad)`` where ``grad`` is (N,) over *all* cells —
        callers mask out the fixed ones.
    """
    n = coords.shape[0]
    if cell_a.shape[0] == 0:
        return 0.0, np.zeros(n)
    d = coords[cell_a] - coords[cell_b] + const
    value = float(np.dot(w, d * d))
    wd = 2.0 * w * d
    grad = (np.bincount(cell_a, weights=wd, minlength=n)
            - np.bincount(cell_b, weights=wd, minlength=n))
    return value, grad
