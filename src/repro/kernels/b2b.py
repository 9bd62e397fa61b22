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
gradient of a pair list — no sparse assembly — for the
structure-alignment pairs.

:func:`b2b_pin_grad` is the gradient the electrostatic engine's
Nesterov loop consumes every iteration.  It enumerates no pairs: a
per-design :class:`NetSplit` sends each 2-pin net through one
closed-form vector expression and reduces only the nets of 3 or more
pins, folding each interior pin's pair terms onto the net's boundary
pins.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class NetSplit:
    """Per-design partition of the nets for :func:`b2b_pin_grad`.

    A 2-pin net's B2B model is its one boundary pair, so each becomes a
    pin pair; nets of 3 or more pins keep a compacted CSR.  Nets of
    fewer than 2 pins, zero-weight nets and 2-pin nets whose pins share
    a cell add nothing to the gradient and are left out.

    Attributes:
        pair_a / pair_b: (K,) the two pins of each kept 2-pin net.
        pair_cell_a / pair_cell_b: (K,) their cells.
        pair_w: (K,) ``2 * wnet`` of each 2-pin net, where
            ``wnet = weight * 2 / (deg - 1)`` is the B2B net weight.
        pins: (Q,) the pins of the kept larger nets, net by net.
        pin_cells: (Q,) their cells.
        start: (L+1,) CSR offsets of the larger nets into ``pins``.
        pin_net: (Q,) index of each entry's net among the larger nets.
        pin_w: (Q,) ``2 * wnet`` of each entry's net.
    """

    pair_a: np.ndarray
    pair_b: np.ndarray
    pair_cell_a: np.ndarray
    pair_cell_b: np.ndarray
    pair_w: np.ndarray
    pins: np.ndarray
    pin_cells: np.ndarray
    start: np.ndarray
    pin_net: np.ndarray
    pin_w: np.ndarray


def split_nets(net_start: np.ndarray, net_weight: np.ndarray,
               pin_cell: np.ndarray) -> NetSplit:
    """Build the :class:`NetSplit` of one design (static: positions
    play no part)."""
    degrees = np.diff(net_start)
    wnet = np.zeros(degrees.shape[0])
    live = (degrees >= 2) & (net_weight != 0)
    wnet[live] = net_weight[live] * 2.0 / (degrees[live] - 1)

    first = net_start[:-1]
    two = np.flatnonzero(live & (degrees == 2))
    two = two[pin_cell[first[two]] != pin_cell[first[two] + 1]]
    pair_a = first[two]
    pair_b = pair_a + 1

    big = np.flatnonzero(live & (degrees >= 3))
    big_deg = degrees[big]
    start = np.zeros(big.shape[0] + 1, dtype=np.int64)
    np.cumsum(big_deg, out=start[1:])
    pin_net = np.repeat(np.arange(big.shape[0], dtype=np.int64), big_deg)
    pins = np.arange(start[-1], dtype=np.int64) - start[pin_net] \
        + first[big][pin_net]
    return NetSplit(
        pair_a=pair_a, pair_b=pair_b,
        pair_cell_a=pin_cell[pair_a], pair_cell_b=pin_cell[pair_b],
        pair_w=2.0 * wnet[two],
        pins=pins, pin_cells=pin_cell[pins], start=start,
        pin_net=pin_net, pin_w=2.0 * wnet[big][pin_net])


def _clamped(d: np.ndarray, sep: np.ndarray, eps: float) -> np.ndarray:
    """``t(d) = d / max(sep, eps)`` with ``sep = |d|``: the B2B pair
    weight's clamped ``1/|d|`` times the separation."""
    return d / np.maximum(sep, eps)


def b2b_pin_grad(split: NetSplit, coords: np.ndarray,
                 offsets: np.ndarray, eps: float) -> np.ndarray:
    """(N,) gradient of the B2B quadratic cost at the linearisation
    point, without enumerating pairs.

    Equals ``b2b_grad(*b2b_pairs(...), coords)[1]`` up to rounding
    and summation order: a pair ``(a, b)`` of weight
    ``wnet / max(|d|, eps)`` adds ``2 * wnet * t(d)`` to cell ``a`` and
    its negative to cell ``b``, where ``t(d) = d / max(|d|, eps)`` is
    ±1 once the pins are ``eps`` apart.  As on the pair path, ``d``'s
    numerator is the cell-center difference plus the offset difference
    and the clamp reads the pin-position difference.  A 2-pin net is
    its one pair.  In a net of 3 or more pins every pin ``k`` has the
    terms ``tl = t(p_k - p_lo)`` and ``th = t(p_k - p_hi)`` against the
    first-occurrence boundary pins; the boundary pair ``(lo, hi)`` is
    ``hi``'s ``tl`` term (``lo``'s ``th`` is zeroed so it is counted
    once), and ``lo`` and ``hi`` take the negated net sums of ``tl`` and
    ``th``.  Terms between two pins of one cell are zeroed, as the pair
    path drops those pairs.

    Args:
        split: the design's :func:`split_nets`.
        coords: (N,) cell centers on this axis (all cells).
        offsets: (P,) pin offsets on this axis.
        eps: pin-separation clamp of the ``1/|d|`` weights.

    Returns:
        (N,) gradient over *all* cells; callers mask the fixed ones.
    """
    n = coords.shape[0]
    ca = coords[split.pair_cell_a]
    cb = coords[split.pair_cell_b]
    oa = offsets[split.pair_a]
    ob = offsets[split.pair_b]
    g2 = split.pair_w * _clamped((ca - cb) + (oa - ob),
                                 np.abs((ca + oa) - (cb + ob)), eps)
    # a float base: np.bincount of nothing is an integer array
    grad = np.zeros(n)
    grad += np.bincount(split.pair_cell_a, weights=g2, minlength=n)
    grad -= np.bincount(split.pair_cell_b, weights=g2, minlength=n)

    c = coords[split.pin_cells]
    o = offsets[split.pins]
    pos = c + o
    lo, hi = boundary_pins(pos, split.start, split.pin_net)
    seeds = split.start[:-1]
    lo_of = lo[split.pin_net]
    hi_of = hi[split.pin_net]
    gl = split.pin_w * _clamped((c - c[lo_of]) + (o - o[lo_of]),
                                np.abs(pos - pos[lo_of]), eps)
    gh = split.pin_w * _clamped((c - c[hi_of]) + (o - o[hi_of]),
                                np.abs(pos - pos[hi_of]), eps)
    cells = split.pin_cells
    gl[cells == cells[lo_of]] = 0.0
    gh[cells == cells[hi_of]] = 0.0
    gh[lo] = 0.0
    g = gl + gh
    g[lo] -= np.add.reduceat(gl, seeds)
    g[hi] -= np.add.reduceat(gh, seeds)
    grad += np.bincount(split.pin_cells, weights=g, minlength=n)
    return grad
