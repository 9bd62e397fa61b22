"""Bit-slice growth from matching edge bundles.

A *slice* is the per-bit unit of a datapath array: a small connected
subcircuit repeated once per bit.  Matching bundles (see
:mod:`repro.core.bundles`) are exactly the intra-slice wiring repeated per
bit, so connected components over matching-bundle edges recover candidate
slices directly.  Chain bundles (carry chains and their kin) are *excluded*
here — they connect different bits and would short all slices together —
and are consumed later for ordering.

Each slice gets a canonical *form* (isomorphism key) and a canonical
internal cell order, so that parallel slices can be compared and aligned
stage-by-stage.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..netlist import Cell
from .bundles import BundleLabel, EdgeBundle


@dataclass
class Slice:
    """One candidate bit slice.

    Attributes:
        cells: members in canonical (stage) order.
        form: exact isomorphism key shared by parallel slices.
        stage_forms: per-cell local form ``(master, sorted incident
            internal edge labels)``, parallel to ``cells``; array
            formation groups slices by the *frequent* subset of these
            ("spine"), which tolerates per-bit boundary differences (a bit
            whose input register is fed by a different glue gate still
            matches its siblings).
    """

    cells: list[Cell] = field(default_factory=list)
    form: tuple = ()
    stage_forms: list[tuple] = field(default_factory=list)
    edge_labels: list[tuple] = field(default_factory=list)
    edges: list[tuple] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.cells)

    def cell_names(self) -> set[str]:
        return {c.name for c in self.cells}


class _UnionFind:
    """Union-find over arbitrary hashable keys (dict-backed)."""

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, a: int) -> int:
        root = a
        while self.parent.setdefault(root, root) != root:
            root = self.parent[root]
        while self.parent[a] != root:  # path compression
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


class _DenseUnionFind:
    """Union-find over dense local indices ``0..n-1``.

    List-backed rather than dict-backed: slice growth unions hundreds of
    thousands of edge endpoints, and the find/union inner loops on a flat
    list (with full path compression) run several times faster than dict
    ``setdefault`` chains keyed by object ids.
    """

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:  # path compression
            parent[a], a = root, parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _canonical_order(cells: list[Cell],
                     edges: list[tuple[Cell, Cell, BundleLabel]]
                     ) -> list[Cell]:
    """Order slice cells by dataflow depth, deterministically.

    Depth = longest path from any slice-internal source along internal
    edges; ties broken by (master name, sorted incident edge labels) so
    isomorphic slices order their cells identically.
    """
    index = {id(c): i for i, c in enumerate(cells)}
    succ: list[list[int]] = [[] for _ in cells]
    pred_count = [0] * len(cells)
    labels_at: list[list[tuple]] = [[] for _ in cells]
    for u, v, label in edges:
        iu, iv = index[id(u)], index[id(v)]
        succ[iu].append(iv)
        pred_count[iv] += 1
        labels_at[iu].append(("o",) + label)
        labels_at[iv].append(("i",) + label)

    # longest-path depth via Kahn; cycles (rare) fall back to depth 0 order
    depth = [0] * len(cells)
    queue = [i for i, p in enumerate(pred_count) if p == 0]
    remaining = list(pred_count)
    seen = 0
    while queue:
        i = queue.pop()
        seen += 1
        for j in succ[i]:
            depth[j] = max(depth[j], depth[i] + 1)
            remaining[j] -= 1
            if remaining[j] == 0:
                queue.append(j)
    # (cycles leave some nodes unprocessed with depth 0 — acceptable)

    def key(i: int) -> tuple:
        return (depth[i], cells[i].cell_type.name,
                tuple(sorted(labels_at[i])))

    return [cells[i] for i in sorted(range(len(cells)), key=key)]


def _form_of(cells: list[Cell],
             edges: list[tuple[Cell, Cell, BundleLabel]]) -> tuple:
    """Isomorphism key: ordered type sequence + edge-label multiset."""
    types = tuple(c.cell_type.name for c in cells)
    label_multiset = tuple(sorted(label for _u, _v, label in edges))
    return (types, label_multiset)


def _split_oversized(cells: list[Cell],
                     edges: list[tuple[Cell, Cell, BundleLabel]],
                     max_size: int
                     ) -> list[tuple[list[Cell],
                                     list[tuple[Cell, Cell, BundleLabel]]]]:
    """Split an oversized component by peeling weak bundles.

    Several bit lanes can short into one giant component through glue-level
    bundles (a register output wired into another lane's coefficient
    input).  Those bridging labels are locally *rare* — the lane's own
    stage labels appear once per lane, i.e. dozens of times — so removing
    the rarest label's edges (ties: smallest label) and re-splitting
    isolates the true slices.  Singletons fall away, pieces still over
    ``max_size`` are peeled again, and a piece left with one label (or
    none) is dropped.  Pieces come out in first-cell order, each with its
    cells and edges in input order.

    The peel runs on integer arrays: cells and edges get local indices
    and labels their sort rank once, then each level is one ``bincount``,
    one mask and one connected-components labelling in C.  Pending pieces
    sit on a stack, so a peel that sheds one cell per level is a loop,
    never a deep recursion.
    """
    if len(cells) <= max_size:
        return [(cells, edges)]
    # imported here: csgraph pulls in scipy.sparse.linalg, which only an
    # oversized component needs
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    local = {id(c): i for i, c in enumerate(cells)}
    rank_of = {label: r for r, label in
               enumerate(sorted({label for _u, _v, label in edges}))}
    src = np.array([local[id(u)] for u, _v, _l in edges], dtype=np.intp)
    dst = np.array([local[id(v)] for _u, v, _l in edges], dtype=np.intp)
    rank = np.array([rank_of[label] for _u, _v, label in edges],
                    dtype=np.intp)
    pos = np.empty(len(cells), dtype=np.intp)  # cell -> index in its piece

    out: list[tuple[list[Cell], list[tuple[Cell, Cell, BundleLabel]]]] = []
    stack = [(np.arange(len(cells)), np.arange(len(edges)))]
    while stack:
        piece, piece_edges = stack.pop()
        if len(piece) <= max_size:
            out.append(([cells[i] for i in piece],
                        [edges[e] for e in piece_edges]))
            continue
        counts = np.bincount(rank[piece_edges], minlength=len(rank_of))
        present = np.flatnonzero(counts)
        if len(present) < 2:
            continue  # homogeneous but oversized: not a slice structure
        rarest = present[np.argmin(counts[present])]
        kept = piece_edges[rank[piece_edges] != rarest]
        pos[piece] = np.arange(len(piece))
        u = pos[src[kept]]
        graph = csr_matrix((np.ones(len(kept)), (u, pos[dst[kept]])),
                           shape=(len(piece), len(piece)))
        _n, comp = connected_components(graph, directed=False)
        # group cells and edges by component, each in input order
        edge_comp = comp[u]
        sizes = np.bincount(comp)
        cell_at = np.concatenate(([0], np.cumsum(sizes)))
        edge_at = np.concatenate(
            ([0], np.cumsum(np.bincount(edge_comp, minlength=len(sizes)))))
        cell_order = np.argsort(comp, kind="stable")
        by_cell = piece[cell_order]
        by_edge = kept[np.argsort(edge_comp, kind="stable")]
        # push components of two or more cells to pop in first-cell order
        first = cell_order[cell_at[:-1]]
        for k in np.argsort(first)[::-1]:
            if sizes[k] >= 2:
                stack.append((by_cell[cell_at[k]:cell_at[k + 1]],
                              by_edge[edge_at[k]:edge_at[k + 1]]))
    return out


def grow_slices(bundles: dict[BundleLabel, EdgeBundle], *,
                max_slice_size: int = 64,
                min_slice_size: int = 2) -> list[Slice]:
    """Grow candidate slices from matching bundles.

    Args:
        bundles: qualifying bundles from :func:`repro.core.bundles.edge_bundles`.
        max_slice_size: components larger than this are discarded (they
            indicate a shorted structure, not a bit slice).
        min_slice_size: singletons and undersized components are dropped.

    Returns:
        Candidate slices with canonical order and form.
    """
    matching = [b for b in bundles.values() if b.is_matching()]
    local: dict[int, int] = {}
    seen_cells: list[Cell] = []
    for bundle in matching:
        for u, v in bundle.edges:
            for c in (u, v):
                if id(c) not in local:
                    local[id(c)] = len(seen_cells)
                    seen_cells.append(c)
    uf = _DenseUnionFind(len(seen_cells))
    for bundle in matching:
        for u, v in bundle.edges:
            uf.union(local[id(u)], local[id(v)])

    members: dict[int, list[Cell]] = defaultdict(list)
    for i, cell in enumerate(seen_cells):
        members[uf.find(i)].append(cell)

    edges_of: dict[int, list[tuple[Cell, Cell, BundleLabel]]] = \
        defaultdict(list)
    for bundle in matching:
        for u, v in bundle.edges:
            edges_of[uf.find(local[id(u)])].append((u, v, bundle.label))

    pieces: list[tuple[list[Cell], list[tuple[Cell, Cell, BundleLabel]]]] = []
    for root, cells in members.items():
        if len(cells) < min_slice_size:
            continue
        pieces.extend(_split_oversized(cells, edges_of.get(root, []),
                                       max_slice_size))

    slices: list[Slice] = []
    for cells, edges in pieces:
        if not min_slice_size <= len(cells) <= max_slice_size:
            continue
        ordered = _canonical_order(cells, edges)
        incident: dict[int, list[tuple]] = defaultdict(list)
        for u, v, label in edges:
            incident[id(u)].append(("o",) + label)
            incident[id(v)].append(("i",) + label)
        forms = [(c.cell_type.name, tuple(sorted(incident[id(c)])))
                 for c in ordered]
        slices.append(Slice(cells=ordered, form=_form_of(ordered, edges),
                            stage_forms=forms,
                            edge_labels=[label for _u, _v, label in edges],
                            edges=list(edges)))
    return slices
