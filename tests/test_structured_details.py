"""Tests for structure-placement internals: planning, slice legalization,
flips, formation scoring, visualization, and the extended unit set."""

import pytest

from repro.core import (StructureAwarePlacer, extract_datapaths,
                        legalize_structured)
from repro.core.groups import plan_array, plan_arrays
from repro.core.structured_placer import legalize_slices, optimize_flips
from repro.eval import formation_score
from repro.eval.visualize import (render_density, render_placement,
                                  render_slice_profile)
from repro.gen import UnitSpec, compose_design
from repro.place import check_legal, detailed_place


@pytest.fixture(scope="module")
def adder_design():
    return compose_design("det", [UnitSpec("ripple_adder", 8)],
                          glue_cells=120, seed=4)


@pytest.fixture(scope="module")
def extraction(adder_design):
    return extract_datapaths(adder_design.netlist)


class TestPlanning:
    def test_plan_shape(self, adder_design, extraction):
        array = max(extraction.arrays, key=lambda a: a.num_cells)
        plan = plan_array(array, adder_design.region)
        assert plan.width > 0 and plan.height > 0
        # one row per slice per fold block
        assert plan.height <= array.width * adder_design.region.row_height

    def test_offsets_non_overlapping_within_rows(self, adder_design,
                                                 extraction):
        array = max(extraction.arrays, key=lambda a: a.num_cells)
        plan = plan_array(array, adder_design.region)
        by_row: dict[float, list[tuple[float, float]]] = {}
        for cell in plan.cells():
            dx, dy = plan.offsets[cell.index]
            by_row.setdefault(dy, []).append((dx, dx + cell.width))
        for spans in by_row.values():
            spans.sort()
            for (a0, a1), (b0, _b1) in zip(spans, spans[1:]):
                assert b0 >= a1 - 1e-9

    def test_folding_respects_width(self):
        """A very wide array must fold or split to fit the region."""
        design = compose_design(
            "wide", [UnitSpec("pipeline", 48, (("depth", 2),))],
            glue_cells=0, seed=1)
        res = extract_datapaths(design.netlist)
        plans = plan_arrays(res.arrays, design.region)
        for plan in plans:
            assert plan.width <= design.region.width + 1e-6
            assert plan.height <= design.region.height + 1e-6


class TestSliceLegalization:
    """Glue cells and slice units legalize in one Abacus pass."""

    @pytest.fixture
    def legalized(self):
        design = compose_design("det", [UnitSpec("ripple_adder", 8)],
                                glue_cells=120, seed=4)
        res = extract_datapaths(design.netlist)
        plans = plan_arrays(res.arrays, design.region)
        placed = legalize_slices(design.netlist, design.region, plans)
        slices = [s for plan in plans for s in plan.array.slices if s]
        return design, slices, placed

    def test_slices_land_in_single_rows(self, legalized):
        """Each slice is one contiguous run of one row, in stage order."""
        _design, slices, placed = legalized
        assert {c.name for c in placed} == {c.name for s in slices
                                            for c in s}
        for s in slices:
            assert len({c.y for c in s}) == 1
            for a, b in zip(s, s[1:]):
                assert b.x == pytest.approx(a.x + a.width)

    def test_no_overlaps_between_placed_slices(self, legalized):
        design, _slices, placed = legalized
        by_row: dict[float, list] = {}
        for c in placed:
            by_row.setdefault(c.y, []).append(c)
        for cells in by_row.values():
            cells.sort(key=lambda c: c.x)
            for a, b in zip(cells, cells[1:]):
                assert a.x + a.width <= b.x + 1e-6

    def test_one_pass_leaves_the_whole_design_legal(self, legalized):
        design, _slices, _placed = legalized
        assert check_legal(design.netlist, design.region) == []

    def test_unit_that_fits_nowhere_retries_cell_by_cell(self):
        """Pads split every row but the middle one into segments narrower
        than any slice: the units that miss the middle row fail in Abacus,
        and their cells are legalized one by one and not returned."""
        design = compose_design("det", [UnitSpec("ripple_adder", 8)],
                                glue_cells=120, seed=4,
                                target_utilization=0.6)
        nl, region = design.netlist, design.region
        plans = plan_arrays(extract_datapaths(nl).arrays, region)
        slices = [s for plan in plans for s in plan.array.slices if s]
        step = int(min(sum(c.width for c in s) for s in slices))
        for row in region.rows:
            if row.index == region.num_rows // 2:
                continue
            for x in range(step - 1, int(region.width), step):
                nl.add_cell(f"split_{row.index}_{x}", "PI",
                            x=region.x + x, y=row.y, fixed=True)
        placed = {c.name for c in legalize_slices(nl, region, plans)}
        kept = [s for s in slices if s[0].name in placed]
        assert 0 < len(kept) < len(slices)
        assert placed == {c.name for s in kept for c in s}
        assert check_legal(nl, region) == []
        detailed_place(nl, region, frozen=placed)
        assert check_legal(nl, region) == []


class TestBlocksAndFlips:
    def test_block_snap_then_flip_stays_legal(self):
        design = compose_design("blk", [UnitSpec("ripple_adder", 8)],
                                glue_cells=100, seed=6)
        res = extract_datapaths(design.netlist)
        plans = plan_arrays(res.arrays, design.region)
        legalize_structured(design.netlist, design.region, plans)
        before = design.netlist.hpwl()
        flips = optimize_flips(design.netlist, plans)
        after = design.netlist.hpwl()
        assert after <= before + 1e-6
        assert flips >= 0
        # flips keep every cell inside its array's placed box
        for plan in plans:
            if plan.placed_origin is None:
                continue
            ox, oy = plan.placed_origin
            for cell in plan.cells():
                assert ox - 1e-6 <= cell.x <= ox + plan.width + 1e-6
                assert oy - 1e-6 <= cell.y <= oy + plan.height + 1e-6

    def test_off_row_pad_blocks_the_row_it_lies_in(self):
        """A pad at ``row_height * k + 5`` lies in row ``k``; the planner
        must not round it into row ``k + 1`` and snap an array onto it."""
        design = compose_design("blk", [UnitSpec("ripple_adder", 8)],
                                glue_cells=100, seed=6)
        nl, region = design.netlist, design.region
        plans = plan_arrays(extract_datapaths(nl).arrays, region)
        start = [(c.x, c.y) for c in nl.cells]
        legalize_structured(nl, region, plans)
        # a cell in the top row of the largest array, where the pad goes
        plan = max(plans, key=lambda p: p.area)
        top = max(c.y for c in plan.cells())
        victim = min((c for c in plan.cells() if c.y == top),
                     key=lambda c: c.x)
        pad = nl.add_cell("pad_off_row", "PI", x=victim.x, y=top + 5.0,
                          fixed=True)
        for cell, (x, y) in zip(nl.cells, start):
            cell.x, cell.y = x, y
        placed = legalize_structured(nl, region, plans)
        assert placed
        assert not any(cell.overlaps(pad) for cell in placed)


class TestFormationScore:
    def test_structured_placement_forms_all_slices(self):
        design = compose_design("fs", [UnitSpec("ripple_adder", 8)],
                                glue_cells=120, seed=4)
        out = StructureAwarePlacer().place(design.netlist, design.region)
        slices = [[c.name for c in s]
                  for a in out.extraction.arrays for s in a.slices]
        assert formation_score(design.netlist, slices) == 1.0

    def test_scattered_placement_scores_low(self, adder_design,
                                            extraction):
        slices = [[c.name for c in s]
                  for a in extraction.arrays for s in a.slices]
        # random initial scatter: essentially nothing is in formation
        score = formation_score(adder_design.netlist, slices)
        assert score < 0.3

    def test_empty_slices_score_one(self, adder_design):
        assert formation_score(adder_design.netlist, []) == 1.0


class TestVisualize:
    def test_render_placement_dimensions(self, adder_design):
        text = render_placement(adder_design.netlist, adder_design.region,
                                width=40, height=12)
        lines = text.splitlines()
        assert len(lines) == 14  # 12 rows + 2 borders
        assert all(len(line) == 42 for line in lines)

    def test_render_placement_marks_arrays(self, adder_design, extraction):
        groups = [list(a.cell_names()) for a in extraction.arrays]
        text = render_placement(adder_design.netlist, adder_design.region,
                                arrays=groups)
        assert "A" in text
        assert "#" in text  # pads

    def test_render_density_runs(self, adder_design):
        text = render_density(adder_design.netlist, adder_design.region)
        assert "peak utilization" in text

    def test_render_slice_profile(self, adder_design, extraction):
        slices = [[c.name for c in s]
                  for a in extraction.arrays for s in a.slices]
        text = render_slice_profile(adder_design.netlist, slices)
        assert "bit" in text


class TestNewUnits:
    def test_carry_select_adder_extraction(self):
        design = compose_design("csa", [UnitSpec("carry_select_adder", 16)],
                                glue_cells=150, seed=9)
        res = extract_datapaths(design.netlist)
        from repro.eval import score_extraction
        score = score_extraction("csa", design.truth, res.cell_sets())
        assert score.recall >= 0.9
        assert score.precision >= 0.9

    def test_mac_composite_truths(self):
        design = compose_design("mac", [UnitSpec("mac", 8)],
                                glue_cells=0, seed=9, io_fraction=1.0)
        assert len(design.truth) == 2  # multiplier + accumulator
        kinds = {t.kind for t in design.truth}
        assert kinds == {"array_multiplier", "ripple_adder"}

    def test_mac_places_legally(self):
        design = compose_design("mac", [UnitSpec("mac", 8)],
                                glue_cells=120, seed=9)
        out = StructureAwarePlacer().place(design.netlist, design.region)
        assert out.legal
        assert check_legal(design.netlist, design.region) == []
