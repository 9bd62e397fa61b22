"""Tests for evaluation: Steiner, congestion, metrics, scoring, reports."""

import numpy as np
import pytest

from repro.eval import (congestion_report, evaluate_placement, format_table,
                        geomean, ratio_row, rmst_length, rudy_map,
                        score_extraction, steiner_length, total_steiner)
from repro.gen import build_design
from repro.gen.units import ArrayTruth, SliceTruth
from repro.place import default_grid


class TestSteiner:
    def test_two_points(self):
        assert steiner_length(np.array([0.0, 3.0]),
                              np.array([0.0, 4.0])) == 7.0

    def test_three_points_is_hpwl(self):
        xs = np.array([0.0, 5.0, 10.0])
        ys = np.array([0.0, 7.0, 2.0])
        assert steiner_length(xs, ys) == 10.0 + 7.0

    def test_single_point_zero(self):
        assert steiner_length(np.array([1.0]), np.array([2.0])) == 0.0

    def test_rmst_line(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        ys = np.zeros(4)
        assert rmst_length(xs, ys) == pytest.approx(3.0)

    def test_rmst_cross(self):
        """Star of 4 points around origin: MST = sum of spokes via hub?
        Without a hub the MST connects successive arms; check the known
        value."""
        xs = np.array([0.0, 1.0, -1.0, 0.0, 0.0])
        ys = np.array([0.0, 0.0, 0.0, 1.0, -1.0])
        assert rmst_length(xs, ys) == pytest.approx(4.0)

    def test_rmst_at_least_steiner_bound(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0, 100, size=12)
        ys = rng.uniform(0, 100, size=12)
        mst = rmst_length(xs, ys)
        hpwl = (xs.max() - xs.min()) + (ys.max() - ys.min())
        assert mst >= hpwl - 1e-9  # MST cannot beat the bbox bound / ...
        assert mst <= 12 * hpwl

    def test_total_steiner_vs_hpwl(self):
        design = build_design("dp_add8")
        st = total_steiner(design.netlist)
        hp = design.netlist.hpwl()
        assert st >= hp * 0.8
        assert st <= hp * 2.0


class TestCongestion:
    def test_rudy_map_nonnegative(self):
        design = build_design("dp_add8")
        grid = default_grid(design.region, len(design.netlist.movable_cells()))
        demand = rudy_map(design.netlist, grid)
        assert demand.shape == (grid.nx, grid.ny)
        assert np.all(demand >= 0)
        assert demand.sum() > 0

    def test_report_fields(self):
        design = build_design("dp_add8")
        grid = default_grid(design.region, len(design.netlist.movable_cells()))
        report = congestion_report(design.netlist, grid)
        assert report.max >= report.p95 >= 0
        assert report.mean >= 0

    def test_spread_less_congested_than_clump(self):
        design = build_design("dp_add8")
        nl, region = design.netlist, design.region
        grid = default_grid(region, len(nl.movable_cells()))
        # clump
        for c in nl.movable_cells():
            c.set_center(*region.center)
        clumped = congestion_report(nl, grid)
        # place legally
        from repro.place import PlacementArrays, QuadraticPlacer, \
            tetris_legalize
        arrays = PlacementArrays.build(nl)
        res = QuadraticPlacer(arrays, region).place()
        arrays.write_back(res.x, res.y)
        tetris_legalize(nl, region)
        spread = congestion_report(nl, grid)
        assert spread.max < clumped.max


class TestEvaluatePlacement:
    def test_full_report(self):
        design = build_design("dp_add8")
        from repro.core import BaselinePlacer
        BaselinePlacer().place(design.netlist, design.region)
        report = evaluate_placement(design.netlist, design.region)
        assert report.legal
        assert report.hpwl > 0
        assert report.steiner >= report.hpwl * 0.8
        assert report.max_density <= 1.0 + 1e-6


class TestScoring:
    def _truth(self):
        return [ArrayTruth(name="t", kind="x", slices=[
            SliceTruth(cells=["a0", "a1"]), SliceTruth(cells=["b0", "b1"])])]

    def test_perfect_extraction(self):
        truth = self._truth()
        score = score_extraction("d", truth, [{"a0", "a1", "b0", "b1"}])
        assert score.precision == 1.0
        assert score.recall == 1.0
        assert score.f1 == 1.0
        assert score.pair_precision == 1.0
        assert score.pair_recall == 1.0

    def test_partial_recall(self):
        truth = self._truth()
        score = score_extraction("d", truth, [{"a0", "a1"}])
        assert score.precision == 1.0
        assert score.recall == 0.5

    def test_false_positives(self):
        truth = self._truth()
        score = score_extraction("d", truth,
                                 [{"a0", "a1", "b0", "b1", "junk"}])
        assert score.precision == pytest.approx(0.8)
        assert score.recall == 1.0

    def test_empty_extraction(self):
        score = score_extraction("d", self._truth(), [])
        assert score.precision == 0.0 and score.recall == 0.0
        assert score.f1 == 0.0

    def test_fragmented_arrays_hit_pair_recall(self):
        truth = self._truth()
        whole = score_extraction("d", truth, [{"a0", "a1", "b0", "b1"}])
        split = score_extraction("d", truth, [{"a0", "a1"}, {"b0", "b1"}])
        assert split.recall == whole.recall == 1.0
        assert split.pair_recall < whole.pair_recall


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xx"}, {"a": 222, "b": "y"}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_table_union_of_row_keys(self):
        # a column present only on later rows (the degradation "rung"
        # added per-result) must still render
        rows = [{"placer": "baseline", "hpwl": 10.0},
                {"placer": "structure", "hpwl": 9.0, "rung": "row-scan"}]
        text = format_table(rows)
        assert "rung" in text.splitlines()[0]
        assert "row-scan" in text

    def test_format_table_stable_across_runs(self):
        def build_rows():
            return [{"placer": "baseline", "hpwl": 10.0},
                    {"placer": "structure", "hpwl": 9.0, "rung": "cg"}]

        assert format_table(build_rows()) == format_table(build_rows())

    def test_ratio_row(self):
        row = ratio_row("hpwl", 100.0, 90.0)
        assert row["improvement_%"] == pytest.approx(10.0)
        worse = ratio_row("hpwl", 100.0, 110.0)
        assert worse["improvement_%"] == pytest.approx(-10.0)

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
        assert geomean([1.0, -1.0]) == 0.0
