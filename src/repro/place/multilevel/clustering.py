"""Structure-preserving clustering for multilevel placement.

One coarsening step partitions the cells of a level into clusters:

- **Atomic bundles** — extracted bit-slice groups seed closed clusters
  that never merge and never split, so datapath regularity survives
  coarsening and the declusterer can restore slice formation exactly.
- **Fixed cells** — singleton clusters, never merged (they stay fixed at
  their positions on every level).
- **Remaining logic** — greedy best-choice merging by edge affinity: each
  small net of weight ``w`` and distinct-cell degree ``d`` contributes
  ``w / (d - 1)`` affinity to every cell pair it connects (the standard
  clique discount), and a cluster repeatedly absorbs the neighbour with
  the best ``affinity / (1 + combined area)`` score subject to an area
  cap, until the level shrinks below the target size or no legal merge
  remains.

Everything but the greedy merge runs on the level's CSR arrays.  Pair
affinities are integer pair keys whose contributions ``np.bincount``
sums in the order they arise, net by net, and keys keep the order of
their first contribution; cluster roots come from pointer jumping.  The
merge itself is order-dependent (every merge changes later scores), so
it stays a sequential loop over flat lists.

The result is a dense ``cluster_of`` index map (fine cell -> cluster id)
that interpolation applies vectorized (``x_fine = X[cluster_of] + dx``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..arrays import PlacementArrays


@dataclass
class Clustering:
    """A one-step clustering of a level's cells.

    Attributes:
        cluster_of: (N,) int64 — cluster id of every fine cell; ids are
            dense in ``[0, num_clusters)`` and double as the coarse
            level's cell indices.
        member_start: (C+1,) int64 CSR offsets into ``member_cell``.
        member_cell: (N,) int64 — fine cells grouped by cluster.  For
            atomic bundle clusters the order is the bundle's slice/stage
            order (the declusterer lays members out left-to-right in
            it); generic clusters list members in ascending index order.
        atomic: (C,) bool — True for bundle clusters.
    """

    cluster_of: np.ndarray
    member_start: np.ndarray
    member_cell: np.ndarray
    atomic: np.ndarray

    @property
    def num_clusters(self) -> int:
        return self.member_start.shape[0] - 1

    @cached_property
    def members(self) -> list[list[int]]:
        """Cluster id -> fine cell indices, in member order."""
        flat = self.member_cell.tolist()
        start = self.member_start.tolist()
        return [flat[start[k]:start[k + 1]]
                for k in range(len(start) - 1)]


def _sum_by_key(keys: np.ndarray, values: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``values`` per distinct key, keys in first-occurrence order.

    Each key's total adds its values in input order starting from 0.0,
    the same IEEE sequence as ``d[k] = d.get(k, 0.0) + v`` over a dict
    (``np.bincount`` accumulates sequentially).

    Returns:
        ``(unique_keys, sums)``, keys in the order they first appear.
    """
    uniq, first, inverse = np.unique(keys, return_index=True,
                                     return_inverse=True)
    rank = np.argsort(first, kind="stable")
    slot = np.empty_like(rank)
    slot[rank] = np.arange(rank.shape[0])
    sums = np.bincount(slot[inverse.reshape(-1)], weights=values,
                       minlength=rank.shape[0])
    return uniq[rank], sums


def distinct_net_cells(pin_net: np.ndarray, pin_key: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Each net's distinct ``pin_key`` values, ascending, nets in order.

    Returns ``(net, key)`` arrays sorted by net and then key, with
    duplicates inside a net removed — ``np.unique`` per net, flattened.
    """
    order = np.lexsort((pin_key, pin_net))
    net = pin_net[order]
    key = pin_key[order]
    keep = np.ones(net.shape[0], dtype=bool)
    keep[1:] = (net[1:] != net[:-1]) | (key[1:] != key[:-1])
    return net[keep], key[keep]


def pair_affinities(arrays: PlacementArrays, max_degree: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clique-model cell-pair affinities from small nets.

    Nets with more than ``max_degree`` distinct cells are skipped: a
    high-fanout net says nothing about which two of its sinks belong
    together, and its O(d^2) pairs would dominate the affinity map.

    Returns:
        ``(ci, cj, a)`` with ``ci < cj``: one entry per connected cell
        pair, in the order the pair first appears (nets in order, each
        net's distinct cells ascending, pairs ``(ii, jj)`` with ``ii``
        outer), and ``a`` summed in that same order.
    """
    net, cell = distinct_net_cells(arrays.pin_net(), arrays.pin_cell)
    degree = np.bincount(net, minlength=arrays.num_nets)
    first = np.zeros(arrays.num_nets + 1, dtype=np.int64)
    np.cumsum(degree, out=first[1:])
    weights = arrays.net_weight
    ok = ~(weights <= 0.0) & (degree >= 2) & (degree <= max_degree)
    parts_net, parts_i, parts_j, parts_a = [], [], [], []
    for d in np.unique(degree[ok]).tolist():
        nets = np.flatnonzero(ok & (degree == d))
        mat = cell[first[nets][:, None] + np.arange(d)]
        ii, jj = np.triu_indices(d, 1)
        parts_net.append(np.repeat(nets, ii.shape[0]))
        parts_i.append(mat[:, ii].reshape(-1))
        parts_j.append(mat[:, jj].reshape(-1))
        parts_a.append(np.repeat(weights[nets] / (d - 1), ii.shape[0]))
    if not parts_net:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), np.zeros(0)
    order = np.argsort(np.concatenate(parts_net), kind="stable")
    ci = np.concatenate(parts_i)[order]
    cj = np.concatenate(parts_j)[order]
    a = np.concatenate(parts_a)[order]
    n = np.int64(arrays.num_cells)
    keys, sums = _sum_by_key(ci * n + cj, a)
    return keys // n, keys % n, sums


def _roots(parent: np.ndarray) -> np.ndarray:
    """Root of every node of a parent-pointer forest (pointer jumping)."""
    root = parent
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            return root
        root = nxt


def cluster_cells(arrays: PlacementArrays, *, target: int, area_cap: float,
                  atomic_groups: list[list[int]] | None = None,
                  max_affinity_degree: int = 8,
                  max_passes: int = 12) -> Clustering:
    """Cluster one level's cells down toward ``target`` clusters.

    Args:
        arrays: the level's flattened netlist (affinity source).
        target: desired total cluster count (the loop stops merging once
            reached; the result may stay above it if no legal merges
            remain).
        area_cap: maximum area of a merged cluster.  Atomic bundles may
            exceed it (they are seeds, not merge products).
        atomic_groups: cell-index lists (in slice order) that become
            closed clusters.  Cells claimed by an earlier group (or
            listed twice) are dropped from later ones, so every cell
            lands in exactly one cluster.
        max_affinity_degree: see :func:`pair_affinities`.
        max_passes: merge-pass budget (each pass rebuilds cluster-level
            affinities from the current mapping).
    """
    n = arrays.num_cells
    movable = arrays.movable

    # --- seed clusters -------------------------------------------------
    seed_of = [-1] * n
    slot = [0] * n                       # position inside its bundle
    is_movable = movable.tolist()
    next_id = 0
    for group in atomic_groups or []:
        ms = list(dict.fromkeys(int(i) for i in group
                                if is_movable[i] and seed_of[i] < 0))
        if len(ms) < 2:
            continue
        for k, i in enumerate(ms):
            seed_of[i] = next_id
            slot[i] = k
        next_id += 1
    n_atomic = next_id
    cluster_of = np.asarray(seed_of, dtype=np.int64)
    loose = np.flatnonzero(cluster_of < 0)
    cluster_of[loose] = n_atomic + np.arange(loose.shape[0])
    n_seeds = n_atomic + loose.shape[0]

    mergeable = np.ones(n_seeds, dtype=bool)
    mergeable[:n_atomic] = False                       # bundles are closed
    mergeable[cluster_of[~movable]] = False            # fixed = singletons
    can_merge = mergeable.tolist()

    # --- greedy best-choice merging over the cluster graph -------------
    ai, aj, av = pair_affinities(arrays, max_affinity_degree)
    seed_i = cluster_of[ai]
    seed_j = cluster_of[aj]
    parent = np.arange(n_seeds, dtype=np.int64)
    count = n_seeds
    for _ in range(max_passes):
        if count <= target:
            break
        root = _roots(parent)
        cu = root[seed_i]
        cv = root[seed_j]
        cross = cu != cv
        if not cross.any():
            break
        lo = np.minimum(cu, cv)[cross]
        hi = np.maximum(cu, cv)[cross]
        keys, cl_aff = _sum_by_key(lo * np.int64(n_seeds) + hi, av[cross])
        # neighbour lists: each pair lists its far end under both ends,
        # in pair order
        ends = np.stack([keys // n_seeds, keys % n_seeds], axis=1)
        src = ends.reshape(-1)
        order = np.argsort(src, kind="stable")
        nodes, counts = np.unique(src[order], return_counts=True)
        bounds = np.concatenate([[0], np.cumsum(counts)]).tolist()
        nbr = ends[:, ::-1].reshape(-1)[order].tolist()
        nbr_aff = np.repeat(cl_aff, 2)[order].tolist()
        carea = np.bincount(root[cluster_of], weights=arrays.area,
                            minlength=n_seeds).tolist()

        # Every id in ``nodes``/``nbr`` is a root at the start of the
        # pass.  A merge re-parents only the ``u`` being visited, and
        # points it at a root that is closed for the rest of the pass,
        # so one parent hop finds a root.
        par = root.tolist()
        absorbed = [False] * n_seeds
        merged_any = False
        for k, u in enumerate(nodes.tolist()):
            if count <= target:
                break
            if not can_merge[u] or absorbed[u]:
                continue
            area_u = carea[u]
            best_score = 0.0
            best = -1
            for t in range(bounds[k], bounds[k + 1]):
                vr = par[nbr[t]]
                if vr == u or not can_merge[vr]:
                    continue
                if area_u + carea[vr] > area_cap:
                    continue
                score = nbr_aff[t] / (1.0 + area_u + carea[vr])
                if best < 0 or score > best_score \
                        or (score == best_score and vr < best):
                    best_score, best = score, vr
            if best < 0:
                continue
            par[u] = best
            carea[best] += area_u
            absorbed[best] = True
            count -= 1
            merged_any = True
        parent = np.asarray(par, dtype=np.int64)
        if not merged_any:
            break

    # --- compact relabel -----------------------------------------------
    roots = _roots(parent)[cluster_of]
    uniq, compact = np.unique(roots, return_inverse=True)
    compact = compact.reshape(-1).astype(np.int64)
    atomic = uniq < n_atomic
    # bundle members keep slice order, generic members ascend by index
    within = np.where(atomic[compact], np.asarray(slot, dtype=np.int64),
                      np.arange(n, dtype=np.int64))
    member_cell = np.lexsort((within, compact)).astype(np.int64)
    member_start = np.zeros(uniq.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(compact, minlength=uniq.shape[0]),
              out=member_start[1:])
    return Clustering(cluster_of=compact, member_start=member_start,
                      member_cell=member_cell, atomic=atomic)
