"""Multilevel V-cycle: clustering invariants, coarsening, end-to-end.

The array coarsening is checked against the netlist-walking version it
replaced, which is kept at the bottom of this module as the reference
(``_ref_*``): clusterings, coarse levels and declustered positions must
match it bit for bit.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PlacerOptions, StructureAwarePlacer, extract_datapaths
from repro.errors import OptionsError
from repro.eval import evaluate_placement
from repro.gen import build_design, datapath_fraction_design
from repro.netlist import Netlist, default_library
from repro.netlist.library import CellType, Library, PinDirection, PinSpec
from repro.place import PlacementArrays
from repro.place.multilevel import (MultilevelOptions, build_coarse_netlist,
                                    cluster_cells, interpolate_positions,
                                    multilevel_place, pair_affinities)
from repro.place.multilevel.vcycle import _build_levels
from repro.runtime.telemetry import Tracer


@pytest.fixture(scope="module")
def arrays():
    design = build_design("dp_alu16")
    return PlacementArrays.build(design.netlist)


def _cluster(arrays, *, target=None, atomic_groups=None, area_cap=None):
    n_mov = int(np.count_nonzero(arrays.movable))
    if target is None:
        target = arrays.num_cells - n_mov + max(n_mov // 3, 16)
    if area_cap is None:
        area_cap = 6.0 * float(arrays.area[arrays.movable].sum()) \
            / max(target, 1)
    return cluster_cells(arrays, target=target, area_cap=area_cap,
                         atomic_groups=atomic_groups)


def _coarsen(arrays, cl):
    return build_coarse_netlist(arrays, cl, name="t_l1",
                                row_height=arrays.netlist.library.row_height)


class TestClusteringInvariants:
    def test_every_cell_in_exactly_one_cluster(self, arrays):
        cl = _cluster(arrays)
        n = arrays.num_cells
        assert cl.cluster_of.shape == (n,)
        assert cl.cluster_of.min() == 0
        assert cl.cluster_of.max() == cl.num_clusters - 1
        # members lists partition [0, n)
        flat = sorted(i for ms in cl.members for i in ms)
        assert flat == list(range(n))
        for cid, ms in enumerate(cl.members):
            assert all(cl.cluster_of[i] == cid for i in ms)

    def test_reduction_toward_target(self, arrays):
        cl = _cluster(arrays)
        assert cl.num_clusters < arrays.num_cells

    def test_atomic_bundles_never_split(self, arrays):
        mov = np.flatnonzero(arrays.movable)
        groups = [list(map(int, mov[:6])), list(map(int, mov[6:14]))]
        cl = _cluster(arrays, atomic_groups=groups)
        for group in groups:
            cids = {int(cl.cluster_of[i]) for i in group}
            assert len(cids) == 1          # all members share one cluster
            cid = cids.pop()
            assert bool(cl.atomic[cid])
            # the cluster is exactly the bundle, in slice order
            assert cl.members[cid] == group

    def test_atomic_member_order_is_slice_order(self, arrays):
        mov = np.flatnonzero(arrays.movable)
        group = [int(mov[8]), int(mov[2]), int(mov[11]), int(mov[5])]
        cl = _cluster(arrays, atomic_groups=[group])
        cid = int(cl.cluster_of[group[0]])
        assert cl.members[cid] == group    # not re-sorted

    def test_fixed_cells_stay_singletons(self, arrays):
        cl = _cluster(arrays)
        for i in np.flatnonzero(~arrays.movable):
            assert len(cl.members[int(cl.cluster_of[i])]) == 1

    def test_deterministic(self, arrays):
        a = _cluster(arrays)
        b = _cluster(arrays)
        assert np.array_equal(a.cluster_of, b.cluster_of)
        assert a.members == b.members


class TestCoarsening:
    def test_area_conserved_per_cluster(self, arrays):
        cl = _cluster(arrays)
        coarse = _coarsen(arrays, cl)
        assert coarse.num_cells == cl.num_clusters
        for cid, ms in enumerate(cl.members):
            fine_area = sum(arrays.netlist.cells[i].area for i in ms)
            assert coarse.area[cid] == pytest.approx(fine_area, rel=1e-9)

    def test_fixed_flag_survives(self, arrays):
        cl = _cluster(arrays)
        coarse = _coarsen(arrays, cl)
        for i in np.flatnonzero(~arrays.movable):
            assert not coarse.movable[int(cl.cluster_of[i])]

    def test_nets_project_and_dedupe(self, arrays):
        cl = _cluster(arrays)
        coarse = _coarsen(arrays, cl)
        assert 0 < coarse.num_nets <= arrays.num_nets
        assert (coarse.net_degrees() >= 2).all()
        # total projected weight is conserved for surviving nets: the
        # coarse weights add up to the fine nets spanning >= 2 clusters
        spanning = 0.0
        for j in range(arrays.num_nets):
            pins = arrays.pin_cell[arrays.net_start[j]:
                                   arrays.net_start[j + 1]]
            if len(set(cl.cluster_of[pins].tolist())) >= 2:
                spanning += float(arrays.net_weight[j])
        assert spanning > 0.0
        assert float(coarse.net_weight.sum()) == pytest.approx(
            spanning, rel=1e-12)

    def test_decluster_round_trip_preserves_centroids(self, arrays):
        cl = _cluster(arrays)
        rng = np.random.default_rng(11)
        cx = rng.uniform(0.0, 500.0, cl.num_clusters)
        cy = rng.uniform(0.0, 300.0, cl.num_clusters)
        x, y = interpolate_positions(cl, arrays.width, arrays.height,
                                     arrays.area, cx, cy)
        for cid, ms in enumerate(cl.members):
            idx = np.asarray(ms)
            w = arrays.area[idx]
            assert np.average(x[idx], weights=w) == pytest.approx(
                cx[cid], abs=1e-6)
            assert np.average(y[idx], weights=w) == pytest.approx(
                cy[cid], abs=1e-6)

    def test_atomic_members_laid_out_in_order(self, arrays):
        mov = np.flatnonzero(arrays.movable)
        group = list(map(int, mov[:5]))
        cl = _cluster(arrays, atomic_groups=[group])
        cid = int(cl.cluster_of[group[0]])
        cx = np.zeros(cl.num_clusters)
        cy = np.zeros(cl.num_clusters)
        x, _y = interpolate_positions(cl, arrays.width, arrays.height,
                                      arrays.area, cx, cy)
        xs = [x[i] for i in cl.members[cid]]
        assert xs == sorted(xs)            # left-to-right in slice order

    def test_no_netlist_above_level_zero(self, monkeypatch):
        design = build_design("ctrl_glue2k")
        arrays = PlacementArrays.build(design.netlist)
        built: list[str] = []
        for cls in (Netlist, CellType, Library):
            init = cls.__init__

            def counted(self, *args, _init=init, _name=cls.__name__,
                        **kwargs):
                built.append(_name)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        tracer = Tracer()
        result = multilevel_place(
            arrays, design.region, tracer=tracer,
            ml_options=MultilevelOptions(enabled=True))
        assert tracer.count("ml.levels") >= 1       # coarse levels ran
        assert tracer.count("ml.flat_fallbacks") == 0
        assert built == []
        assert np.isfinite(result.x).all() and np.isfinite(result.y).all()


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-identical arrays: same dtype kind, shape and bytes."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a.dtype.kind == b.dtype.kind and a.shape == b.shape \
        and a.astype(b.dtype).tobytes() == b.tobytes()


def _assert_level_matches(fine, ref_fine, cl, ref_cl, coarse, ref_nl,
                          seed: int) -> None:
    """One coarsening step equals the reference, bit for bit."""
    assert _same(cl.cluster_of, ref_cl.cluster_of)
    assert cl.members == ref_cl.members
    assert _same(cl.atomic, ref_cl.atomic)
    ref = _ref_build_arrays(ref_nl)
    for field in ("pin_cell", "pin_dx", "pin_dy", "net_start",
                  "net_weight", "movable", "width", "height"):
        assert _same(getattr(coarse, field), getattr(ref, field)), field
    assert _same(coarse.area, ref.area)
    pos = _ref_positions(ref_nl)
    x, y = coarse.initial_positions()
    assert _same(x, pos[:, 0]) and _same(y, pos[:, 1])
    rng = np.random.default_rng(seed)
    cx = rng.uniform(0.0, 400.0, cl.num_clusters)
    cy = rng.uniform(0.0, 300.0, cl.num_clusters)
    got = interpolate_positions(cl, fine.width, fine.height, fine.area,
                                cx, cy)
    want = _ref_interpolate_positions(ref_cl, ref_fine.width,
                                      ref_fine.height, ref_fine.area,
                                      cx, cy)
    assert _same(got[0], want[0]) and _same(got[1], want[1])


def _ref_build_levels(netlist, ml, atomic_groups):
    """The parent's ``_build_levels`` loop over reference netlists."""
    current_nl = netlist
    current = _ref_build_arrays(netlist)
    groups_for_level = atomic_groups
    out = []
    for k in range(1, max(int(ml.max_levels), 0) + 1):
        n_mov = int(np.count_nonzero(current.movable))
        if n_mov <= ml.coarsest_cells:
            break
        target_mov = max(int(np.ceil(ml.cluster_ratio * n_mov)), 16)
        n_fixed = current.num_cells - n_mov
        mov_area = float(current.area[current.movable].sum())
        cap = ml.area_cap_factor * mov_area / max(target_mov, 1)
        clustering = _ref_cluster_cells(
            current, target=n_fixed + target_mov, area_cap=cap,
            atomic_groups=groups_for_level,
            max_affinity_degree=ml.max_affinity_degree)
        if clustering.num_clusters >= 0.95 * current.num_cells:
            break
        coarse_nl = _ref_build_coarse_netlist(
            current_nl, clustering, name=f"{netlist.name}__l{k}")
        out.append((current, clustering, coarse_nl))
        current_nl = coarse_nl
        current = _ref_build_arrays(coarse_nl)
        groups_for_level = None
    return out


class TestArrayCoarseningMatchesReference:
    """Every level ``_build_levels`` makes equals the netlist walk's."""

    @pytest.mark.parametrize("design", ["dp_alu16", "f4_3200"])
    def test_every_level_bit_identical(self, design):
        if design == "f4_3200":
            gd = datapath_fraction_design("f4_3200", 3200, 0.55, seed=9)
        else:
            gd = build_design(design)
        extraction = extract_datapaths(gd.netlist)
        groups = [[c.index for c in s] for a in extraction.arrays
                  for s in a.slices if len(s) >= 2]
        assert groups
        arrays = PlacementArrays.build(gd.netlist)
        ml = MultilevelOptions(enabled=True, coarsest_cells=100)
        levels = _build_levels(arrays, ml, groups, Tracer())
        ref_levels = _ref_build_levels(gd.netlist, ml, groups)
        assert len(levels) - 1 == len(ref_levels) >= 2
        for k, (ref_fine, ref_cl, ref_nl) in enumerate(ref_levels,
                                                      start=1):
            _assert_level_matches(levels[k - 1].arrays, ref_fine,
                                  levels[k].clustering, ref_cl,
                                  levels[k].arrays, ref_nl, seed=k)

    def test_pair_affinities_in_insertion_order(self, arrays):
        ci, cj, a = pair_affinities(arrays, 8)
        ref = _ref_pair_affinities(arrays, 8)
        assert list(zip(ci.tolist(), cj.tolist())) == list(ref)
        assert _same(a, np.array(list(ref.values())))


_MASTERS = ("INV", "NAND2", "NAND2", "AOI21", "FA", "DFF")


@st.composite
def hypergraphs(draw):
    """Small random netlists that hit every coarsening corner case:
    repeated pins of one cell on a net, zero-weight nets, nets above the
    affinity degree cap, fixed cells, overlapping atomic groups that hold
    fixed cells, and equal-size equal-weight cells whose scores tie."""
    lib = default_library()
    nl = Netlist(name="hyp", library=lib)
    n = draw(st.integers(4, 28))
    masters = draw(st.lists(st.sampled_from(_MASTERS), min_size=n,
                            max_size=n))
    fixed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    coord = st.integers(0, 40).map(float)
    for i in range(n):
        nl.add_cell(f"c{i}", masters[i], x=draw(coord) * 2.0,
                    y=draw(coord), fixed=fixed[i] and i % 3 == 0)
    n_nets = draw(st.integers(1, 3 * n))
    for j in range(n_nets):
        net = nl.add_net(f"n{j}", weight=draw(
            st.sampled_from([1.0, 1.0, 1.0, 0.0, 0.5, 2.0, 0.1])))
        degree = draw(st.integers(1, 12))
        for _ in range(degree):
            cell = nl.cells[draw(st.integers(0, n - 1))]
            pin = draw(st.sampled_from(
                [p.name for p in cell.cell_type.pins]))
            nl.connect(net, cell, pin)
    groups = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=6,
                 unique=True),
        max_size=4))
    ratio = draw(st.sampled_from([0.2, 0.4, 0.7]))
    cap_factor = draw(st.sampled_from([1.5, 6.0, 100.0]))
    return nl, groups, ratio, cap_factor


class TestArrayCoarseningProperties:
    @settings(max_examples=120, deadline=None)
    @given(hypergraphs())
    def test_random_hypergraphs_match_reference(self, case):
        nl, groups, ratio, cap_factor = case
        fine = PlacementArrays.build(nl)
        ref_fine = _ref_build_arrays(nl)
        fine_nl = nl
        row_height = nl.library.row_height
        for level in range(1, 3):
            n_mov = int(np.count_nonzero(fine.movable))
            target = fine.num_cells - n_mov + max(int(ratio * n_mov), 1)
            cap = cap_factor * float(fine.area[fine.movable].sum()) \
                / max(target, 1)
            use = groups if level == 1 else None
            cl = cluster_cells(fine, target=target, area_cap=cap,
                               atomic_groups=use, max_affinity_degree=4)
            ref_cl = _ref_cluster_cells(ref_fine, target=target,
                                        area_cap=cap, atomic_groups=use,
                                        max_affinity_degree=4)
            coarse = build_coarse_netlist(fine, cl, name=f"h{level}",
                                          row_height=row_height)
            ref_nl = _ref_build_coarse_netlist(fine_nl, ref_cl,
                                               name=f"h{level}")
            _assert_level_matches(fine, ref_fine, cl, ref_cl, coarse,
                                  ref_nl, seed=level)
            fine, ref_fine, fine_nl = coarse, _ref_build_arrays(ref_nl), \
                ref_nl


class TestOptionsValidation:
    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"), 1.5,
                                       1.0, 0.0, -1.0, "0.4", True])
    def test_bad_cluster_ratio_rejected(self, ratio):
        with pytest.raises(OptionsError, match="cluster_ratio"):
            MultilevelOptions(enabled=True, cluster_ratio=ratio)

    @pytest.mark.parametrize("levels", [-3, -1, 2.5, "3", None, False])
    def test_bad_max_levels_rejected(self, levels):
        with pytest.raises(OptionsError, match="max_levels"):
            MultilevelOptions(enabled=True, max_levels=levels)

    def test_edges_accepted(self):
        MultilevelOptions(max_levels=0, cluster_ratio=0.999)
        MultilevelOptions(max_levels=np.int64(2),
                          cluster_ratio=np.float64(1e-6))


class TestEndToEnd:
    """The electro V-cycle against flat electro, all else equal."""

    def _run(self, n=800):
        gd = datapath_fraction_design(f"f4_{n}", n, 0.55, seed=9)
        opts = PlacerOptions(engine="electro",
                             multilevel=MultilevelOptions(enabled=True))
        StructureAwarePlacer(opts).place(gd.netlist, gd.region)
        return gd

    def test_multilevel_end_to_end_legal(self):
        gd = self._run()
        report = evaluate_placement(gd.netlist, gd.region)
        assert report.legal
        assert report.hpwl > 0

    def test_multilevel_quality_near_flat(self):
        gd_ml = self._run()
        gd_flat = datapath_fraction_design("f4_800", 800, 0.55, seed=9)
        StructureAwarePlacer(PlacerOptions(engine="electro")).place(
            gd_flat.netlist, gd_flat.region)
        h_ml = evaluate_placement(gd_ml.netlist, gd_ml.region).hpwl
        h_flat = evaluate_placement(gd_flat.netlist, gd_flat.region).hpwl
        assert h_ml <= 1.02 * h_flat

    def test_multilevel_bit_stable(self):
        a = self._run()
        b = self._run()
        pa = {c.name: (c.x, c.y) for c in a.netlist.movable_cells()}
        pb = {c.name: (c.x, c.y) for c in b.netlist.movable_cells()}
        assert pa == pb


# ----------------------------------------------------------------------
# Reference: the coarsening this package had before it moved onto the
# CSR arrays, verbatim apart from the ``_ref_`` names and ``_seq_sum``.
# It walks Netlist objects and builds a Netlist (masters, library) per
# coarse level.
# ----------------------------------------------------------------------
def _seq_sum(values):
    """``sum()`` over floats as Python 3.11 runs it: left to right from
    0, uncompensated.  Python 3.12's ``sum()`` compensates the rounding
    error; the array code keeps the plain left-to-right order."""
    total = 0
    for v in values:
        total = total + v
    return total


@dataclass
class _RefClustering:
    cluster_of: np.ndarray
    members: list[list[int]]
    atomic: np.ndarray

    @property
    def num_clusters(self) -> int:
        return len(self.members)


def _ref_pair_affinities(arrays: PlacementArrays, max_degree: int
                         ) -> dict[tuple[int, int], float]:
    """Clique-model cell-pair affinities from small nets.

    Nets with more than ``max_degree`` distinct cells are skipped: a
    high-fanout net says nothing about which two of its sinks belong
    together, and its O(d^2) pairs would dominate the affinity map.
    """
    aff: dict[tuple[int, int], float] = {}
    starts = arrays.net_start
    pin_cell = arrays.pin_cell
    weights = arrays.net_weight
    for j in range(arrays.num_nets):
        w = float(weights[j])
        if w <= 0.0:
            continue
        cells = np.unique(pin_cell[starts[j]:starts[j + 1]])
        d = len(cells)
        if d < 2 or d > max_degree:
            continue
        a = w / (d - 1)
        for ii in range(d):
            ci = int(cells[ii])
            for jj in range(ii + 1, d):
                key = (ci, int(cells[jj]))
                aff[key] = aff.get(key, 0.0) + a
    return aff


def _ref_cluster_cells(arrays: PlacementArrays, *, target: int,
                       area_cap: float,
                       atomic_groups: list[list[int]] | None = None,
                       max_affinity_degree: int = 8,
                       max_passes: int = 12) -> "_RefClustering":
    """Cluster one level's cells down toward ``target`` clusters.

    Args:
        arrays: the level's flattened netlist (affinity source).
        target: desired total cluster count (the loop stops merging once
            reached; the result may stay above it if no legal merges
            remain).
        area_cap: maximum area of a merged cluster.  Atomic bundles may
            exceed it (they are seeds, not merge products).
        atomic_groups: cell-index lists (in slice order) that become
            closed clusters.  Cells claimed by an earlier group are
            dropped from later ones, so every cell lands in exactly one
            cluster.
        max_affinity_degree: see :func:`pair_affinities`.
        max_passes: merge-pass budget (each pass rebuilds cluster-level
            affinities from the current mapping).
    """
    n = arrays.num_cells
    areas = arrays.area
    movable = arrays.movable

    # --- seed clusters -------------------------------------------------
    cluster_of = np.full(n, -1, dtype=np.int64)
    bundle_order: dict[int, list[int]] = {}
    next_id = 0
    for group in atomic_groups or []:
        ms = [int(i) for i in group
              if movable[i] and cluster_of[i] < 0]
        if len(ms) < 2:
            continue
        for i in ms:
            cluster_of[i] = next_id
        bundle_order[next_id] = ms
        next_id += 1
    n_atomic = next_id
    for i in range(n):
        if cluster_of[i] < 0:
            cluster_of[i] = next_id
            next_id += 1
    n_seeds = next_id

    mergeable = np.ones(n_seeds, dtype=bool)
    mergeable[:n_atomic] = False                       # bundles are closed
    mergeable[cluster_of[~movable]] = False            # fixed = singletons

    # --- greedy best-choice merging over the cluster graph -------------
    parent = np.arange(n_seeds, dtype=np.int64)

    def find(u: int) -> int:
        root = u
        while parent[root] != root:
            root = parent[root]
        while parent[u] != root:                       # path compression
            parent[u], u = root, parent[u]
        return root

    aff = _ref_pair_affinities(arrays, max_affinity_degree)
    count = n_seeds
    for _ in range(max_passes):
        if count <= target:
            break
        cl_aff: dict[tuple[int, int], float] = {}
        for (ci, cj), a in aff.items():
            cu = find(cluster_of[ci])
            cv = find(cluster_of[cj])
            if cu == cv:
                continue
            key = (cu, cv) if cu < cv else (cv, cu)
            cl_aff[key] = cl_aff.get(key, 0.0) + a
        if not cl_aff:
            break
        nbr: dict[int, list[tuple[int, float]]] = {}
        for (cu, cv), a in cl_aff.items():
            nbr.setdefault(cu, []).append((cv, a))
            nbr.setdefault(cv, []).append((cu, a))
        carea: dict[int, float] = {}
        for i in range(n):
            r = find(cluster_of[i])
            carea[r] = carea.get(r, 0.0) + float(areas[i])

        merged_any = False
        absorbed_into: set[int] = set()
        for u in sorted(nbr):
            if count <= target:
                break
            if find(u) != u or not mergeable[u] or u in absorbed_into:
                continue
            best: tuple[float, int] | None = None
            for v, a in nbr[u]:
                vr = find(v)
                if vr == u or not mergeable[vr]:
                    continue
                if carea[u] + carea[vr] > area_cap:
                    continue
                score = a / (1.0 + carea[u] + carea[vr])
                if best is None or score > best[0] \
                        or (score == best[0] and vr < best[1]):
                    best = (score, vr)
            if best is None:
                continue
            vr = best[1]
            parent[u] = vr
            carea[vr] += carea.pop(u)
            absorbed_into.add(vr)
            count -= 1
            merged_any = True
        if not merged_any:
            break

    # --- compact relabel -----------------------------------------------
    roots = np.fromiter((find(cluster_of[i]) for i in range(n)),
                        dtype=np.int64, count=n)
    uniq, compact = np.unique(roots, return_inverse=True)
    members: list[list[int]] = [[] for _ in range(len(uniq))]
    for i in range(n):
        members[compact[i]].append(i)
    atomic = np.zeros(len(uniq), dtype=bool)
    for k, r in enumerate(uniq):
        if r < n_atomic:
            atomic[k] = True
            members[k] = bundle_order[int(r)]          # keep slice order
    return _RefClustering(cluster_of=compact.astype(np.int64),
                          members=members, atomic=atomic)


def _ref_build_coarse_netlist(fine: Netlist, clustering: "_RefClustering",
                              name: str) -> Netlist:
    """Reduce ``fine`` to one cell per cluster and deduplicated nets."""
    if fine.library is not None:
        row_h = fine.library.row_height
        site_w = fine.library.site_width
    else:
        row_h = max((c.height for c in fine.cells), default=8.0)
        site_w = 1.0
    lib = Library(name=f"{name}_lib", site_width=site_w, row_height=row_h)
    coarse = Netlist(name=name, library=lib)

    cells = fine.cells
    for cid, ms in enumerate(clustering.members):
        if len(ms) == 1:
            c = cells[ms[0]]
            w, h = c.width, c.height
            fixed = c.fixed
            cx, cy = c.center_x, c.center_y
        else:
            area = float(_seq_sum(cells[i].area for i in ms))
            h = row_h
            w = area / h
            fixed = False
            cx = _seq_sum(cells[i].center_x * cells[i].area
                          for i in ms) / area
            cy = _seq_sum(cells[i].center_y * cells[i].area
                          for i in ms) / area
        master = lib.add(CellType(
            name=f"CL_{w!r}x{h!r}", width=w, height=h,
            pins=(PinSpec("P", PinDirection.INOUT,
                          x_offset=w / 2.0, y_offset=h / 2.0),)))
        coarse.add_cell(f"c{cid}", master, x=cx - w / 2.0, y=cy - h / 2.0,
                        fixed=fixed)

    cluster_of = clustering.cluster_of
    edges: dict[tuple[int, ...], float] = {}
    for net in fine.nets:
        if net.weight == 0.0 or net.degree < 2:
            continue
        touched = {int(cluster_of[ref.cell.index]) for ref in net.pins}
        if len(touched) < 2:
            continue
        key = tuple(sorted(touched))
        edges[key] = edges.get(key, 0.0) + net.weight
    for k, (key, weight) in enumerate(edges.items()):
        net = coarse.add_net(f"n{k}", weight=weight)
        for cid in key:
            coarse.connect(net, coarse.cells[cid], "P")
    return coarse


def _ref_interpolate_positions(clustering, fine_widths: np.ndarray,
                               fine_heights: np.ndarray,
                               fine_areas: np.ndarray,
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
    """
    n = fine_widths.shape[0]
    dx = np.zeros(n)
    dy = np.zeros(n)
    for cid, ms in enumerate(clustering.members):
        k = len(ms)
        if k <= 1:
            continue
        idx = np.asarray(ms, dtype=np.int64)
        if clustering.atomic[cid]:
            widths = fine_widths[idx]
            run = np.concatenate([[0.0], np.cumsum(widths)[:-1]])
            dx[idx] = run + widths / 2.0 - widths.sum() / 2.0
            dy[idx] = 0.0
        else:
            ncols = int(np.ceil(np.sqrt(k)))
            nrows = int(np.ceil(k / ncols))
            pitch_x = float(np.mean(fine_widths[idx])) * 1.25
            pitch_y = float(np.mean(fine_heights[idx]))
            t = np.arange(k)
            col = t % ncols
            row = t // ncols
            dx[idx] = (col - (ncols - 1) / 2.0) * pitch_x
            dy[idx] = (row - (nrows - 1) / 2.0) * pitch_y
        w = fine_areas[idx]
        dx[idx] -= float(np.average(dx[idx], weights=w))
        dy[idx] -= float(np.average(dy[idx], weights=w))
    x = coarse_x[clustering.cluster_of] + dx
    y = coarse_y[clustering.cluster_of] + dy
    return x, y


def _ref_build_arrays(netlist: Netlist, min_degree: int = 2,
                      max_degree: int | None = None,
                      skip_zero_weight: bool = True) -> PlacementArrays:
    """``PlacementArrays.build``'s object walk, as the parent had it."""
    pin_cell: list[int] = []
    pin_dx: list[float] = []
    pin_dy: list[float] = []
    net_start: list[int] = [0]
    net_weight: list[float] = []
    for net in netlist.nets:
        if net.degree < min_degree:
            continue
        if max_degree is not None and net.degree > max_degree:
            continue
        if skip_zero_weight and net.weight == 0.0:
            continue
        for ref in net.pins:
            cell = ref.cell
            pin_cell.append(cell.index)
            pin_dx.append(ref.pin.x_offset - cell.width / 2.0)
            pin_dy.append(ref.pin.y_offset - cell.height / 2.0)
        net_start.append(len(pin_cell))
        net_weight.append(net.weight)

    sizes = netlist.sizes()
    return PlacementArrays(
        netlist=netlist,
        pin_cell=np.asarray(pin_cell, dtype=np.int64),
        pin_dx=np.asarray(pin_dx, dtype=float),
        pin_dy=np.asarray(pin_dy, dtype=float),
        net_start=np.asarray(net_start, dtype=np.int64),
        net_weight=np.asarray(net_weight, dtype=float),
        movable=netlist.movable_mask(),
        width=sizes[:, 0].copy(),
        height=sizes[:, 1].copy(),
    )


def _ref_positions(self: Netlist) -> np.ndarray:
    """(N, 2) array of cell centers, in dense-index order."""
    pos = np.empty((self.num_cells, 2), dtype=float)
    for i, c in enumerate(self._cells):
        pos[i, 0] = c.center_x
        pos[i, 1] = c.center_y
    return pos

