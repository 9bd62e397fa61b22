"""Coarse level construction from a clustering.

Each cluster becomes one coarse cell whose index equals its cluster id,
so ``Clustering.cluster_of`` doubles as the vectorized cluster -> coarse
cell index map.  Multi-member clusters become a row-height cell of equal
total area centred on the members' area-weighted centroid; singletons
keep their member's footprint and fixed flag (I/O pads stay fixed
obstacles on every level).  Every coarse pin sits at its cell's centre.
Fine hyperedges are projected through the map, restricted to clusters
they still distinguish, and deduplicated: nets covering the same cluster
set collapse into one coarse net with summed weight, which shrinks the
coarse system far below a naive projection.

A coarse level is only ever read by the GP engines, so it is built
straight into :class:`~repro.place.arrays.PlacementArrays` — no
:class:`~repro.netlist.Netlist`, masters or library.  Every sum runs in
member order and every weight sum in fine-net order (``np.bincount``
accumulates sequentially), so the level is bit-identical to the one a
netlist walk would build.
"""

from __future__ import annotations

import numpy as np

from ..arrays import PlacementArrays
from .clustering import Clustering, distinct_net_cells


def build_coarse_netlist(fine: PlacementArrays, clustering: Clustering,
                         name: str, row_height: float) -> PlacementArrays:
    """Reduce ``fine`` to one cell per cluster and deduplicated nets.

    The name predates the array form: the result is a
    :class:`PlacementArrays` with no netlist, its own ``name`` and
    fixed cell centres, and zero pin offsets.

    Args:
        fine: the level being coarsened; its current cell centres
            (:meth:`~PlacementArrays.initial_positions`) place the
            clusters.
        clustering: the clustering of ``fine``'s cells.
        name: the coarse level's name.
        row_height: height of every multi-member cluster.
    """
    n_clusters = clustering.num_clusters
    member = clustering.member_cell
    size = np.diff(clustering.member_start)
    owner = np.repeat(np.arange(n_clusters), size)
    head = member[clustering.member_start[:-1]]

    fx, fy = fine.initial_positions()
    farea = fine.area[member]
    area = np.bincount(owner, weights=farea, minlength=n_clusters)
    sum_x = np.bincount(owner, weights=fx[member] * farea,
                        minlength=n_clusters)
    sum_y = np.bincount(owner, weights=fy[member] * farea,
                        minlength=n_clusters)
    multi = size > 1
    width = fine.width[head].copy()
    height = fine.height[head].copy()
    height[multi] = row_height
    width[multi] = area[multi] / row_height
    cx = fx[head].copy()
    cy = fy[head].copy()
    cx[multi] = sum_x[multi] / area[multi]
    cy[multi] = sum_y[multi] / area[multi]
    movable = fine.movable[head] | multi

    # nets: distinct clusters per fine net, deduplicated by cluster set
    net, cl = distinct_net_cells(fine.pin_net(),
                                 clustering.cluster_of[fine.pin_cell])
    degree = np.bincount(net, minlength=fine.num_nets)
    first = np.zeros(fine.num_nets + 1, dtype=np.int64)
    np.cumsum(degree, out=first[1:])
    coarse_of_net = np.full(fine.num_nets, -1, dtype=np.int64)
    key_pins: list[np.ndarray] = []       # each key's clusters, flat
    key_len: list[np.ndarray] = []
    key_first: list[np.ndarray] = []      # first fine net with the key
    n_keys = 0
    for d in np.unique(degree[degree >= 2]).tolist():
        nets = np.flatnonzero(degree == d)
        mat = cl[first[nets][:, None] + np.arange(d)]
        rows, head_row, inverse = np.unique(
            mat, axis=0, return_index=True, return_inverse=True)
        coarse_of_net[nets] = n_keys + inverse.reshape(-1)
        key_pins.append(rows.reshape(-1))
        key_len.append(np.full(rows.shape[0], d, dtype=np.int64))
        key_first.append(nets[head_row])
        n_keys += rows.shape[0]
    empty = np.zeros(0, dtype=np.int64)
    flat = np.concatenate([empty, *key_pins])
    length = np.concatenate([empty, *key_len])
    offset = np.cumsum(length) - length
    # coarse nets in the order their cluster set first appears, weights
    # summed over the fine nets in net order
    order = np.argsort(np.concatenate([empty, *key_first]), kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(n_keys)
    spans = coarse_of_net >= 0
    weight = np.bincount(rank[coarse_of_net[spans]],
                         weights=fine.net_weight[spans],
                         minlength=n_keys).astype(float, copy=False)
    keep = order[np.flatnonzero(weight)]   # zero-weight nets are dropped
    net_start = np.zeros(keep.shape[0] + 1, dtype=np.int64)
    np.cumsum(length[keep], out=net_start[1:])
    pin_cell = flat[np.repeat(offset[keep] - net_start[:-1], length[keep])
                    + np.arange(net_start[-1])]
    # centres go through the corner, as Cell.center_x computes them for
    # a cell placed at ``centre - size / 2``, which keeps each level
    # bit-identical to the netlist-built one
    return PlacementArrays(
        pin_cell=pin_cell,
        pin_dx=np.zeros(pin_cell.shape[0]),
        pin_dy=np.zeros(pin_cell.shape[0]),
        net_start=net_start,
        net_weight=weight[np.flatnonzero(weight)],
        movable=movable,
        width=width,
        height=height,
        name=name,
        center_x=(cx - width / 2.0) + width / 2.0,
        center_y=(cy - height / 2.0) + height / 2.0,
    )


def interpolate_positions(clustering: Clustering, fine_widths: np.ndarray,
                          fine_heights: np.ndarray, fine_areas: np.ndarray,
                          coarse_x: np.ndarray, coarse_y: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Decluster coarse cell centers to fine cell centers.

    Members scatter over their cluster's footprint instead of stacking at
    its center — coincident pins make the next refinement's B2B system
    catastrophically ill-conditioned.  Bundle clusters lay members out
    left-to-right in slice order at the cluster's y (slice-aligned
    placement); generic clusters use a near-square grid at the member
    pitch.  Both layouts are shifted so the members' area-weighted
    centroid lands exactly on the cluster center, which makes a 1-level
    cluster/decluster cycle the identity on cluster centroids.

    Clusters of one kind and size are laid out together as the rows of
    one matrix; numpy reduces each row exactly as it would reduce that
    cluster's members alone.
    """
    n = fine_widths.shape[0]
    dx = np.zeros(n)
    dy = np.zeros(n)
    size = np.diff(clustering.member_start)
    for atomic in (True, False):
        kind = (clustering.atomic == atomic) & (size > 1)
        for k in np.unique(size[kind]).tolist():
            cids = np.flatnonzero(kind & (size == k))
            idx = clustering.member_cell[
                clustering.member_start[cids][:, None] + np.arange(k)]
            if atomic:
                widths = fine_widths[idx]
                run = np.zeros_like(widths)
                run[:, 1:] = np.cumsum(widths, axis=1)[:, :-1]
                mx = run + widths / 2.0 \
                    - (widths.sum(axis=1) / 2.0)[:, None]
                my = np.zeros_like(mx)
            else:
                ncols = int(np.ceil(np.sqrt(k)))
                nrows = int(np.ceil(k / ncols))
                pitch_x = np.mean(fine_widths[idx], axis=1) * 1.25
                pitch_y = np.mean(fine_heights[idx], axis=1)
                t = np.arange(k)
                mx = (t % ncols - (ncols - 1) / 2.0) * pitch_x[:, None]
                my = (t // ncols - (nrows - 1) / 2.0) * pitch_y[:, None]
            w = fine_areas[idx]
            dx[idx] = mx - np.average(mx, axis=1, weights=w)[:, None]
            dy[idx] = my - np.average(my, axis=1, weights=w)[:, None]
    x = coarse_x[clustering.cluster_of] + dx
    y = coarse_y[clustering.cluster_of] + dy
    return x, y
