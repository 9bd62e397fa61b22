"""Tests for the density model and structural signatures."""

import numpy as np
import pytest

from repro.core import signature_classes, structural_signatures
from repro.gen import UnitSpec, build_design, compose_design
from repro.place import PlacementArrays, default_grid, density_map, overflow


@pytest.fixture(scope="module")
def design():
    return build_design("dp_add8")


class TestDensityMap:
    def test_total_area_conserved(self, design):
        arrays = PlacementArrays.build(design.netlist)
        grid = default_grid(design.region, len(design.netlist.movable_cells()))
        pos = design.netlist.positions()
        # keep movable cells inside so no area falls off the map
        u = density_map(arrays, pos[:, 0], pos[:, 1], grid)
        deposited = float(u.sum() * grid.bin_area)
        movable_area = float(arrays.area[arrays.movable].sum())
        assert deposited == pytest.approx(movable_area, rel=0.02)

    def test_overflow_zero_when_uniform(self, design):
        """A legal (spread) placement at 70% utilization has no overflow
        at target density 1.0 once legalized."""
        from repro.core import BaselinePlacer
        d = build_design("dp_add8")
        BaselinePlacer().place(d.netlist, d.region)
        arrays = PlacementArrays.build(d.netlist)
        grid = default_grid(d.region, len(d.netlist.movable_cells()))
        pos = d.netlist.positions()
        assert overflow(arrays, pos[:, 0], pos[:, 1], grid) < 0.12

    def test_clump_has_overflow(self, design):
        arrays = PlacementArrays.build(design.netlist)
        grid = default_grid(design.region, len(design.netlist.movable_cells()))
        cx, cy = design.region.center
        x = np.full(arrays.num_cells, cx)
        y = np.full(arrays.num_cells, cy)
        assert overflow(arrays, x, y, grid) > 0.5


class TestSignatures:
    def test_same_role_cells_share_signature(self):
        design = compose_design("s", [UnitSpec("ripple_adder", 12)],
                                glue_cells=0, seed=0, validate=False)
        sigs = structural_signatures(design.netlist, rounds=1)
        fa_sigs = {sigs[design.netlist.cell(f"ripple_adder0/fa{b}").index]
                   for b in range(3, 9)}  # interior bits only
        assert len(fa_sigs) == 1

    def test_different_types_differ(self, design):
        sigs = structural_signatures(design.netlist, rounds=0)
        by_type = {}
        for cell in design.netlist.cells:
            by_type.setdefault(cell.cell_type.name, set()).add(
                sigs[cell.index])
        assert by_type["FA"] != by_type["DFF"]

    def test_rounds_refine_classes(self, design):
        c0 = signature_classes(design.netlist, rounds=0)
        c2 = signature_classes(design.netlist, rounds=2)
        assert len(c2) >= len(c0)

    def test_negative_rounds_rejected(self, design):
        with pytest.raises(ValueError):
            structural_signatures(design.netlist, rounds=-1)
