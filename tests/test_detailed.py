"""Tests for detailed placement and the nonlinear engine."""

import pytest

from repro.gen import build_design
from repro.place import (NonlinearOptions, NonlinearPlacer, PlacementArrays,
                         QuadraticPlacer, abacus_legalize, check_legal,
                         detailed_place, global_swap_pass, row_reorder_pass)


@pytest.fixture
def legal_design():
    design = build_design("dp_add8")
    arrays = PlacementArrays.build(design.netlist)
    result = QuadraticPlacer(arrays, design.region).place()
    arrays.write_back(result.x, result.y)
    abacus_legalize(design.netlist, design.region)
    return design


class TestDetailedPlace:
    def test_improves_or_holds_hpwl(self, legal_design):
        nl, region = legal_design.netlist, legal_design.region
        before = nl.hpwl()
        stats = detailed_place(nl, region)
        assert stats.final_hpwl <= before + 1e-6
        assert stats.initial_hpwl == pytest.approx(before)

    def test_preserves_legality(self, legal_design):
        nl, region = legal_design.netlist, legal_design.region
        detailed_place(nl, region)
        assert check_legal(nl, region) == []

    def test_frozen_cells_do_not_move(self, legal_design):
        nl, region = legal_design.netlist, legal_design.region
        frozen_names = {c.name for c in nl.movable_cells()[:20]}
        before = {n: (nl.cell(n).x, nl.cell(n).y) for n in frozen_names}
        detailed_place(nl, region, frozen=frozen_names)
        for n in frozen_names:
            assert (nl.cell(n).x, nl.cell(n).y) == before[n]

    def test_swap_pass_counts(self, legal_design):
        nl, _region = legal_design.netlist, legal_design.region
        accepted = global_swap_pass(nl)
        assert accepted >= 0

    def test_reorder_window_validation(self, legal_design):
        nl, region = legal_design.netlist, legal_design.region
        with pytest.raises(ValueError):
            row_reorder_pass(nl, region, window=1)
        with pytest.raises(ValueError):
            row_reorder_pass(nl, region, window=9)

    def test_gain_property(self, legal_design):
        nl, region = legal_design.netlist, legal_design.region
        stats = detailed_place(nl, region)
        assert 0.0 <= stats.gain < 1.0


class TestNonlinearEngine:
    def test_nonlinear_place_reduces_hpwl(self):
        design = build_design("dp_add8")
        arrays = PlacementArrays.build(design.netlist)
        x0, y0 = arrays.initial_positions()
        from repro.place.wirelength import hpwl
        before = hpwl(arrays, x0, y0)
        opts = NonlinearOptions(max_rounds=4)
        opts.cg.max_iterations = 25
        placer = NonlinearPlacer(arrays, design.region, options=opts)
        result = placer.place()
        assert hpwl(arrays, result.x, result.y) < before
        assert result.rounds >= 1

    def test_wa_model_selected_by_default(self):
        assert NonlinearOptions().wirelength_model == "wa"

    def test_unknown_model_rejected(self):
        design = build_design("dp_add8")
        arrays = PlacementArrays.build(design.netlist)
        with pytest.raises(ValueError):
            NonlinearPlacer(arrays, design.region,
                            options=NonlinearOptions(
                                wirelength_model="bogus"))
