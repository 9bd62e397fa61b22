"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval import geomean, rmst_length, steiner_length
from repro.eval.report import format_table
from repro.gen import UnitSpec, compose_design
from repro.gen.rng import make_rng, weighted_choice
from repro.place import PlacementArrays, PlacementRegion
from repro.place.spreading import spread_positions

_coords = st.lists(
    st.tuples(st.floats(-1e3, 1e3, allow_nan=False),
              st.floats(-1e3, 1e3, allow_nan=False)),
    min_size=2, max_size=12)


class TestSteinerProperties:
    @given(_coords)
    def test_rmst_nonnegative_and_translation_invariant(self, pts):
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        length = rmst_length(xs, ys)
        assert length >= 0
        shifted = rmst_length(xs + 37.0, ys - 11.0)
        assert shifted == length or abs(shifted - length) < 1e-6 * max(
            1.0, length)

    @given(_coords)
    def test_rmst_at_least_bbox(self, pts):
        """An MST connects all points, so it is at least as long as the
        larger bbox side (and at least half the HPWL)."""
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        length = rmst_length(xs, ys)
        span = max(xs.max() - xs.min(), ys.max() - ys.min())
        assert length >= span - 1e-6

    @given(_coords)
    def test_steiner_estimate_between_bounds(self, pts):
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        est = steiner_length(xs, ys)
        hp = (xs.max() - xs.min()) + (ys.max() - ys.min())
        assert est >= hp / 2.0 - 1e-6   # classic lower bound
        assert est <= len(pts) * hp + 1e-6

    @given(_coords, st.floats(0.1, 10.0))
    def test_rmst_scales_linearly(self, pts, k):
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        base = rmst_length(xs, ys)
        scaled = rmst_length(k * xs, k * ys)
        assert scaled == np.float64(k) * base or \
            abs(scaled - k * base) <= 1e-6 * max(1.0, abs(k * base))


class TestWirelengthProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_spreading_keeps_cells_in_region(self, seed):
        design = compose_design("p", [UnitSpec("ripple_adder", 4)],
                                glue_cells=30, seed=3, validate=False)
        arrays = PlacementArrays.build(design.netlist)
        region = design.region
        rng = make_rng(seed)
        x = rng.uniform(region.x - 50, region.x_end + 50, arrays.num_cells)
        y = rng.uniform(region.y - 50, region.y_top + 50, arrays.num_cells)
        sx, sy = spread_positions(arrays, x, y, region)
        mv = arrays.movable
        assert np.all(sx[mv] >= region.x - 1e-6)
        assert np.all(sx[mv] <= region.x_end + 1e-6)
        assert np.all(sy[mv] >= region.y - 1e-6)
        assert np.all(sy[mv] <= region.y_top + 1e-6)


class TestGeneratorProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 10 ** 6))
    def test_adder_truth_rectangular(self, width, seed):
        design = compose_design("p", [UnitSpec("ripple_adder", width)],
                                glue_cells=0, seed=seed, validate=True)
        truth = design.truth[0]
        assert truth.width == width
        assert all(len(s.cells) == 4 for s in truth.slices)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_compose_always_validates(self, seed):
        design = compose_design("p", [UnitSpec("alu", 4)],
                                glue_cells=60, seed=seed)
        assert design.netlist.num_cells > 0  # assert_clean ran inside

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_weighted_choice_respects_support(self, seed):
        rng = make_rng(seed)
        items = ["a", "b", "c"]
        out = weighted_choice(rng, items, [1.0, 0.0, 2.0])
        assert out in ("a", "c")


class TestRegionProperties:
    @given(st.floats(16.0, 500.0), st.floats(16.0, 500.0),
           st.floats(2.0, 16.0))
    def test_rows_tile_region(self, width, height, row_height):
        region = PlacementRegion(0, 0, width, height,
                                 row_height=row_height)
        assert region.num_rows == int(height // row_height)
        tops = [r.y_top for r in region.rows]
        assert tops[-1] == pytest.approx(region.y_top, abs=1e-9)
        for a, b in zip(region.rows, region.rows[1:]):
            assert b.y == pytest.approx(a.y_top, abs=1e-9)

    @given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))
    def test_clamp_center_inside(self, cx, cy):
        region = PlacementRegion(0, 0, 100, 40, row_height=8)
        nx, ny = region.clamp_center(cx, cy, 10, 8)
        assert region.x + 5 <= nx <= region.x_end - 5
        assert region.y + 4 <= ny <= region.y_top - 4


class TestReportProperties:
    @given(st.lists(st.floats(0.1, 1e3), min_size=1, max_size=8))
    def test_geomean_between_min_and_max(self, values):
        g = geomean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9

    @given(st.lists(
        st.dictionaries(st.sampled_from(["a", "b", "c"]),
                        st.integers(-1000, 1000), min_size=1),
        min_size=1, max_size=6))
    def test_format_table_never_crashes(self, rows):
        text = format_table(rows)
        assert isinstance(text, str)
        assert len(text.splitlines()) >= 3
