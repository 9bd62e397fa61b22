"""Tests for the density model, CG optimizer, and structural signatures."""

import numpy as np
import pytest

from repro.core import signature_classes, structural_signatures
from repro.gen import UnitSpec, build_design, compose_design
from repro.place import (BellDensity, CGOptions, PlacementArrays,
                         conjugate_gradient, default_grid, density_map,
                         overflow)


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


class TestBellDensity:
    def test_value_positive_when_clumped(self, design):
        arrays = PlacementArrays.build(design.netlist)
        grid = default_grid(design.region, len(design.netlist.movable_cells()))
        bell = BellDensity(arrays, grid)
        cx, cy = design.region.center
        x = np.full(arrays.num_cells, cx)
        y = np.full(arrays.num_cells, cy)
        value, gx, gy = bell.value_grad(x, y)
        assert value > 0
        assert np.any(gx != 0) or np.any(gy != 0)

    def test_gradient_matches_finite_difference(self, design):
        """The analytic gradient includes the normaliser derivative, so it
        is exact (up to the piecewise windows' interiors)."""
        arrays = PlacementArrays.build(design.netlist)
        grid = default_grid(design.region, len(design.netlist.movable_cells()))
        bell = BellDensity(arrays, grid)
        x, y = arrays.initial_positions()
        _v, gx, gy = bell.value_grad(x, y)
        rng = np.random.default_rng(1)
        movable = np.nonzero(arrays.movable)[0]
        eps = 1e-4
        for k in rng.choice(movable, size=8, replace=False):
            orig = x[k]
            x[k] = orig + eps
            up, *_ = bell.value_grad(x, y)
            x[k] = orig - eps
            down, *_ = bell.value_grad(x, y)
            x[k] = orig
            numeric = (up - down) / (2 * eps)
            assert gx[k] == pytest.approx(numeric, rel=1e-3, abs=1e-4)

    def test_spread_lower_penalty_than_clump(self, design):
        arrays = PlacementArrays.build(design.netlist)
        grid = default_grid(design.region, len(design.netlist.movable_cells()))
        bell = BellDensity(arrays, grid)
        x, y = arrays.initial_positions()  # scattered start
        spread_value, *_ = bell.value_grad(x, y)
        cx, cy = design.region.center
        clump_value, *_ = bell.value_grad(
            np.full(arrays.num_cells, cx), np.full(arrays.num_cells, cy))
        assert spread_value < clump_value


class TestConjugateGradient:
    def test_quadratic_bowl(self):
        target = np.array([3.0, -2.0, 7.0])

        def objective(v):
            d = v - target
            return float(d @ d), 2 * d

        result = conjugate_gradient(objective, np.zeros(3),
                                    CGOptions(max_iterations=50))
        assert np.allclose(result.x, target, atol=1e-3)
        assert result.converged

    def test_rosenbrock_descends(self):
        def rosenbrock(v):
            a, b = v
            value = (1 - a) ** 2 + 100 * (b - a * a) ** 2
            grad = np.array([
                -2 * (1 - a) - 400 * a * (b - a * a),
                200 * (b - a * a)])
            return float(value), grad

        start = np.array([-1.0, 1.0])
        v0, _ = rosenbrock(start)
        result = conjugate_gradient(rosenbrock, start,
                                    CGOptions(max_iterations=200))
        assert result.value < v0 / 10

    def test_history_monotone_nonincreasing(self):
        def objective(v):
            return float(v @ v), 2 * v

        result = conjugate_gradient(objective, np.ones(4) * 10,
                                    CGOptions(max_iterations=30))
        hist = result.history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


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
