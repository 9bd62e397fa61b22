"""Tests for placement region, rows, and bin grids."""

import pytest

from repro.gen import build_design
from repro.netlist import Netlist, default_library
from repro.place import BinGrid, PlacementRegion, default_grid, region_for


class TestRow:
    def test_row_geometry(self):
        region = PlacementRegion(0, 0, 100, 40, row_height=8, site_width=1)
        assert region.num_rows == 5
        row = region.rows[2]
        assert row.y == 16
        assert row.num_sites == 100
        assert row.x_end == 100
        assert row.y_top == 24

    def test_snap_x(self):
        region = PlacementRegion(0, 0, 100, 8, row_height=8, site_width=2)
        row = region.rows[0]
        assert row.snap_x(5.1) == 6.0
        assert row.snap_x(-3.0) == 0.0
        assert row.snap_x(250.0) == 100.0


class TestPlacementRegion:
    def test_height_clipped_to_rows(self):
        region = PlacementRegion(0, 0, 100, 43, row_height=8)
        assert region.height == 40
        assert region.num_rows == 5

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            PlacementRegion(0, 0, -1, 40)
        with pytest.raises(ValueError):
            PlacementRegion(0, 0, 100, 4, row_height=8)

    def test_contains(self):
        region = PlacementRegion(0, 0, 100, 40, row_height=8)
        assert region.contains_point(50, 20)
        assert not region.contains_point(101, 20)
        assert region.contains_cell(0, 0, 10, 8)
        assert not region.contains_cell(95, 0, 10, 8)

    def test_row_at_and_nearest(self):
        region = PlacementRegion(0, 0, 100, 40, row_height=8)
        assert region.row_at(17.0).index == 2
        assert region.nearest_row(12.0).index == 1
        assert region.nearest_row(-100.0).index == 0
        assert region.nearest_row(1000.0).index == region.num_rows - 1

    def test_clamp_center(self):
        region = PlacementRegion(0, 0, 100, 40, row_height=8)
        cx, cy = region.clamp_center(-50, 200, 10, 8)
        assert cx == 5.0
        assert cy == 36.0


class TestRegionFor:
    def test_sizing_hits_utilization(self):
        design = build_design("dp_add8")
        nl = design.netlist
        region = region_for(nl, target_utilization=0.6)
        util = nl.total_movable_area() / region.area
        # rounding to whole rows/sites can only reduce utilization
        assert util <= 0.6 + 1e-9
        assert util > 0.4

    def test_aspect_ratio(self):
        design = build_design("dp_add8")
        region = region_for(design.netlist, aspect_ratio=2.0)
        assert region.height / region.width == pytest.approx(2.0, rel=0.3)

    def test_invalid_utilization(self):
        design = build_design("dp_add8")
        with pytest.raises(ValueError):
            region_for(design.netlist, target_utilization=0.0)

    def test_empty_netlist_rejected(self):
        nl = Netlist(library=default_library())
        with pytest.raises(ValueError):
            region_for(nl)


class TestBinGrid:
    def test_bin_of_clamps(self):
        region = PlacementRegion(0, 0, 100, 40, row_height=8)
        grid = BinGrid(region, nx=10, ny=4)
        assert grid.bin_of(5, 5) == (0, 0)
        assert grid.bin_of(99.9, 39.9) == (9, 3)
        assert grid.bin_of(-5, 500) == (0, 3)

    def test_centers_and_edges(self):
        region = PlacementRegion(0, 0, 100, 40, row_height=8)
        grid = BinGrid(region, nx=10, ny=4)
        xs, ys = grid.centers()
        assert xs[0] == 5.0 and xs[-1] == 95.0
        ex, ey = grid.edges()
        assert len(ex) == 11 and ex[-1] == 100.0

    def test_default_grid_scales(self):
        design = build_design("dp_add8")
        grid = default_grid(design.region, len(design.netlist.movable_cells()))
        assert grid.nx >= 2 and grid.ny >= 2
        n_movable = len(design.netlist.movable_cells())
        assert grid.nx * grid.ny <= n_movable

    def test_invalid_grid(self):
        region = PlacementRegion(0, 0, 100, 40, row_height=8)
        with pytest.raises(ValueError):
            BinGrid(region, nx=0, ny=4)
