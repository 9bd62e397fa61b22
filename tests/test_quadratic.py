"""Tests for the B2B model, spreading, and the quadratic global placer."""

import numpy as np
import pytest

from repro.gen import build_design
from repro.netlist import Netlist, default_library
from repro.place import (B2BBuilder, GlobalPlaceOptions, PlacementArrays,
                         QuadraticPlacer, default_grid, overflow,
                         spread_positions)
from repro.place.wirelength import hpwl


@pytest.fixture(scope="module")
def design():
    return build_design("dp_add8")


class TestB2B:
    def test_two_cell_system_solution(self):
        """One movable cell between two fixed pads must settle between
        them (quadratic optimum of two equal springs = midpoint)."""
        lib = default_library()
        nl = Netlist(library=lib)
        left = nl.add_cell("l", "PI", x=0.0, y=0.0, fixed=True)
        right = nl.add_cell("r", "PO", x=100.0, y=0.0, fixed=True)
        mid = nl.add_cell("m", "BUF", x=7.0, y=0.0)
        n1 = nl.add_net("n1")
        nl.connect(n1, left, "Y")
        nl.connect(n1, mid, "A")
        n2 = nl.add_net("n2")
        nl.connect(n2, mid, "Y")
        nl.connect(n2, right, "A")
        arrays = PlacementArrays.build(nl)
        builder = B2BBuilder(arrays)
        x, y = arrays.initial_positions()
        system = builder.build_axis(x, arrays.pin_dx)
        sol = system.solve()
        # any point between the pads is HPWL-optimal for a 2-net chain;
        # the B2B solution must stay in that interval (no divergence)
        assert 0.0 <= sol[0] <= 100.0

    def test_quadratic_cost_at_linearization_equals_hpwl_2pin(self):
        """For 2-pin nets the B2B cost at the linearisation point equals
        HPWL per axis (weight 2/(p-1)/|d| * d^2 = 2*|d| ... per pair).

        We verify solving strictly reduces HPWL from a perturbed start.
        """
        design = build_design("dp_add8")
        arrays = PlacementArrays.build(design.netlist)
        x, y = arrays.initial_positions()
        before = hpwl(arrays, x, y)
        builder = B2BBuilder(arrays)
        for _ in range(3):
            sx = builder.build_axis(x, arrays.pin_dx)
            x2 = x.copy()
            x2[sx.cells] = sx.solve(x0=x[sx.cells])
            sy = builder.build_axis(y, arrays.pin_dy)
            y2 = y.copy()
            y2[sy.cells] = sy.solve(x0=y[sy.cells])
            x, y = x2, y2
        assert hpwl(arrays, x, y) < before

    def test_anchor_pull(self, design):
        arrays = PlacementArrays.build(design.netlist)
        x, _y = arrays.initial_positions()
        builder = B2BBuilder(arrays)
        anchors = np.full(arrays.num_cells, 123.0)
        system = builder.build_axis(x, arrays.pin_dx, anchors=anchors,
                                    anchor_weight=1e9)
        sol = system.solve()
        assert np.allclose(sol, 123.0, atol=0.1)

    def test_extra_pairs_enforce_offset(self, design):
        arrays = PlacementArrays.build(design.netlist)
        x, _y = arrays.initial_positions()
        movable = np.nonzero(arrays.movable)[0]
        i, j = int(movable[0]), int(movable[1])
        builder = B2BBuilder(arrays)
        system = builder.build_axis(x, arrays.pin_dx,
                                    extra_pairs=[(i, j, 1e9, -10.0)])
        sol = system.solve()
        row = {c: k for k, c in enumerate(system.cells)}
        # strong pair forces x_i - x_j = 10
        assert sol[row[i]] - sol[row[j]] == pytest.approx(10.0, abs=0.05)


class TestSpreading:
    def test_spread_reduces_overflow(self, design):
        arrays = PlacementArrays.build(design.netlist)
        region = design.region
        grid = default_grid(region, len(design.netlist.movable_cells()))
        # clump everything at the center
        cx, cy = region.center
        x = np.full(arrays.num_cells, cx)
        y = np.full(arrays.num_cells, cy)
        before = overflow(arrays, x, y, grid)
        sx, sy = spread_positions(arrays, x, y, region)
        after = overflow(arrays, sx, sy, grid)
        assert after < before
        assert after < 0.25

    def test_spread_keeps_cells_inside(self, design):
        arrays = PlacementArrays.build(design.netlist)
        region = design.region
        x, y = arrays.initial_positions()
        sx, sy = spread_positions(arrays, x, y, region)
        mv = arrays.movable
        half_w = arrays.width / 2.0
        half_h = arrays.height / 2.0
        assert np.all(sx[mv] - half_w[mv] >= region.x - 1e-6)
        assert np.all(sx[mv] + half_w[mv] <= region.x_end + 1e-6)
        assert np.all(sy[mv] - half_h[mv] >= region.y - 1e-6)
        assert np.all(sy[mv] + half_h[mv] <= region.y_top + 1e-6)

    def test_groups_translate_rigidly(self, design):
        arrays = PlacementArrays.build(design.netlist)
        region = design.region
        x, y = arrays.initial_positions()
        movable = np.nonzero(arrays.movable)[0]
        groups = np.full(arrays.num_cells, -1, dtype=np.int64)
        members = movable[:6]
        groups[members] = 0
        # keep the group interior so the boundary clamp cannot break it
        x[members] = region.x + region.width / 2.0 \
            + np.arange(6, dtype=float)
        y[members] = region.y + region.height / 2.0
        sx, sy = spread_positions(arrays, x, y, region, groups=groups)
        dx = sx[members] - x[members]
        dy = sy[members] - y[members]
        assert np.allclose(dx, dx[0], atol=1e-6)
        assert np.allclose(dy, dy[0], atol=1e-6)


class TestQuadraticPlacer:
    def test_place_reduces_hpwl_and_overflow(self, design):
        arrays = PlacementArrays.build(design.netlist)
        placer = QuadraticPlacer(arrays, design.region)
        result = placer.place()
        assert len(result.history) >= 1
        final = result.history[-1]
        grid = default_grid(design.region, len(design.netlist.movable_cells()))
        assert overflow(arrays, result.x, result.y, grid) < 0.3
        # GP should do far better than the random scatter start
        x0, y0 = arrays.initial_positions()
        assert final.hpwl_upper < hpwl(arrays, x0, y0)

    def test_fixed_cells_never_move(self, design):
        arrays = PlacementArrays.build(design.netlist)
        x0, y0 = arrays.initial_positions()
        result = QuadraticPlacer(arrays, design.region).place()
        fixed = ~arrays.movable
        assert np.allclose(result.x[fixed], x0[fixed])
        assert np.allclose(result.y[fixed], y0[fixed])

    def test_history_monotone_iterations(self, design):
        arrays = PlacementArrays.build(design.netlist)
        result = QuadraticPlacer(
            arrays, design.region,
            options=GlobalPlaceOptions(max_iterations=5)).place()
        iters = [h.iteration for h in result.history]
        assert iters == sorted(iters)
        assert len(iters) <= 5

    def test_post_solve_hook_invoked(self, design):
        arrays = PlacementArrays.build(design.netlist)
        calls = []

        def hook(x, y):
            calls.append(1)

        QuadraticPlacer(arrays, design.region,
                        options=GlobalPlaceOptions(max_iterations=3),
                        post_solve=hook).place()
        assert len(calls) >= 2
