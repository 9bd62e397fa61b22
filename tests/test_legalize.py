"""Tests for Tetris and Abacus legalization, the shared row model, and
legality checking."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BaselinePlacer, PlacerOptions
from repro.errors import LegalizationError
from repro.gen import UnitSpec, build_design, compose_design
from repro.netlist import CellType, Netlist, PinDirection, PinSpec
from repro.place import (PlacementArrays, PlacementRegion, QuadraticPlacer,
                         abacus_legalize, check_legal, row_reorder_pass,
                         tetris_legalize)
from repro.place.legalize import (row_blockages, row_scan_place,
                                  rows_spanned)
from repro.robust import place_with_fallback


@pytest.fixture
def placed_design():
    """A globally placed (overlapping) design ready for legalization."""
    design = build_design("dp_add8")
    arrays = PlacementArrays.build(design.netlist)
    result = QuadraticPlacer(arrays, design.region).place()
    arrays.write_back(result.x, result.y)
    return design


@pytest.mark.parametrize("legalizer", [tetris_legalize, abacus_legalize])
class TestLegalizers:
    def test_produces_legal_placement(self, placed_design, legalizer):
        nl, region = placed_design.netlist, placed_design.region
        result = legalizer(nl, region)
        assert result.ok
        assert check_legal(nl, region) == []

    def test_displacement_reported(self, placed_design, legalizer):
        nl, region = placed_design.netlist, placed_design.region
        result = legalizer(nl, region)
        assert result.total_displacement >= 0
        assert result.max_displacement <= result.total_displacement

    def test_fixed_cells_untouched(self, placed_design, legalizer):
        nl, region = placed_design.netlist, placed_design.region
        before = {c.name: (c.x, c.y) for c in nl.fixed_cells()}
        legalizer(nl, region)
        for c in nl.fixed_cells():
            assert (c.x, c.y) == before[c.name]

    def test_idempotent_on_legal_input(self, placed_design, legalizer):
        nl, region = placed_design.netlist, placed_design.region
        legalizer(nl, region)
        first = {c.name: (c.x, c.y) for c in nl.movable_cells()}
        result = legalizer(nl, region)
        assert result.ok
        moved = sum(1 for c in nl.movable_cells()
                    if (c.x, c.y) != first[c.name])
        # already-legal placements should barely move (small displacement)
        assert result.total_displacement <= 1e-6 or \
            result.total_displacement < 0.2 * len(first) * 8

    def test_obstacles_respected(self, placed_design, legalizer):
        nl, region = placed_design.netlist, placed_design.region
        # park two movable cells as pseudo-obstacles mid-core
        cells = nl.movable_cells()
        obstacle_cells = cells[:2]
        row = region.rows[region.num_rows // 2]
        x = region.x + region.width / 2.0
        for k, cell in enumerate(obstacle_cells):
            cell.x = row.snap_x(x + 20 * k)
            cell.y = row.y
        rest = cells[2:]
        result = legalizer(nl, region, cells=rest,
                           obstacles=obstacle_cells)
        assert result.ok
        for cell in rest:
            for obs in obstacle_cells:
                assert not cell.overlaps(obs), \
                    f"{cell.name} overlaps obstacle {obs.name}"


class TestCheckLegal:
    def test_detects_outside(self, placed_design):
        nl, region = placed_design.netlist, placed_design.region
        tetris_legalize(nl, region)
        victim = nl.movable_cells()[0]
        victim.x = region.x_end + 50.0
        problems = check_legal(nl, region)
        assert any("outside" in p for p in problems)

    def test_detects_off_row(self, placed_design):
        nl, region = placed_design.netlist, placed_design.region
        tetris_legalize(nl, region)
        victim = nl.movable_cells()[0]
        victim.y += 3.0
        problems = check_legal(nl, region)
        assert any("row-aligned" in p for p in problems)

    def test_detects_overlap(self, placed_design):
        nl, region = placed_design.netlist, placed_design.region
        tetris_legalize(nl, region)
        cells = sorted(nl.movable_cells(), key=lambda c: (c.y, c.x))
        a, b = cells[0], cells[1]
        if a.y == b.y:  # move b onto a
            b.x = a.x
            problems = check_legal(nl, region)
            assert any("overlap" in p for p in problems)


class TestAbacusQuality:
    def test_abacus_not_worse_than_tetris(self):
        """Abacus displacement should generally beat Tetris."""
        d1 = build_design("dp_add8")
        arrays1 = PlacementArrays.build(d1.netlist)
        r1 = QuadraticPlacer(arrays1, d1.region).place()
        arrays1.write_back(r1.x, r1.y)
        tetris = tetris_legalize(d1.netlist, d1.region)

        d2 = build_design("dp_add8")
        arrays2 = PlacementArrays.build(d2.netlist)
        r2 = QuadraticPlacer(arrays2, d2.region).place()
        arrays2.write_back(r2.x, r2.y)
        abacus = abacus_legalize(d2.netlist, d2.region)
        assert abacus.total_displacement <= tetris.total_displacement * 1.2


# ----------------------------------------------------------------------
# the shared row model
# ----------------------------------------------------------------------

ROW_H = 8.0
PIN = (PinSpec("A", PinDirection.INPUT),)
PAD = CellType("PAD", 1.0, 1.0, PIN)


def _master(width: float) -> CellType:
    return CellType(f"W{width:g}", width, ROW_H, PIN)


def _region(rows: int = 4, width: float = 40.0) -> PlacementRegion:
    return PlacementRegion(x=0.0, y=0.0, width=width, height=rows * ROW_H,
                           row_height=ROW_H)


def _connect(netlist: Netlist, name: str, *cells) -> None:
    net = netlist.add_net(name)
    for cell in cells:
        netlist.connect(net, cell, "A")


def _on_fixed_cells(netlist: Netlist, region: PlacementRegion) -> list:
    """Movable cells overlapping an in-core fixed cell, found pairwise
    (independently of the row model)."""
    inside = [f for f in netlist.fixed_cells()
              if f.x < region.x_end and f.x + f.width > region.x
              and f.y < region.y_top and f.y + f.height > region.y]
    return [c for c in netlist.movable_cells()
            if any(c.overlaps(f) for f in inside)]


class TestRowBlockages:
    def test_spans_merge_and_clip_to_rows(self):
        nl = Netlist(name="spans")
        nl.add_cell("p0", PAD, x=3.0, y=5.0, fixed=True)       # off-row
        nl.add_cell("p1", PAD, x=3.5, y=4.0, fixed=True)       # overlaps p0
        nl.add_cell("tall", CellType("T", 2.0, 10.0, PIN), x=-1.0, y=12.0,
                    fixed=True)                                 # rows 1-2
        nl.add_cell("out", PAD, x=100.0, y=5.0, fixed=True)    # off-core
        spans = row_blockages(nl, _region())
        assert spans[0] == [(3.0, 4.5)]
        assert spans[1] == [(0.0, 1.0)]
        assert spans[2] == [(0.0, 1.0)]
        assert spans[3] == []

    def test_extra_cells_block_like_fixed_ones(self):
        nl = Netlist(name="extra")
        placed = nl.add_cell("m", _master(4.0), x=10.0, y=ROW_H)
        assert row_blockages(nl, _region(), [placed])[1] == [(10.0, 14.0)]

    def test_rows_spanned_is_the_physical_row_range(self):
        region = _region()
        assert rows_spanned(region, ROW_H + 5.0, 1.0) == range(1, 2)
        assert rows_spanned(region, ROW_H + 5.0, ROW_H) == range(1, 3)
        assert rows_spanned(region, ROW_H, ROW_H) == range(1, 2)
        assert rows_spanned(region, ROW_H - 1e-9, ROW_H) == range(1, 2)
        assert rows_spanned(region, -ROW_H, 2 * ROW_H) == range(0, 1)
        assert not rows_spanned(region, region.y_top, ROW_H)


class TestReorderAroundFixedCells:
    def test_reorder_does_not_close_a_gap_over_a_pad(self):
        """A window whose gap holds a pad must not re-pack over it."""
        nl = Netlist(name="gap")
        region = _region(rows=1)
        w2 = _master(2.0)
        a = nl.add_cell("a", w2, x=0.0, y=0.0)
        b = nl.add_cell("b", w2, x=2.0, y=0.0)
        c = nl.add_cell("c", w2, x=8.0, y=0.0)
        pad = nl.add_cell("pad", PAD, x=5.0, y=0.0, fixed=True)
        # off-core terminals make (c, b, a) the better order
        _connect(nl, "na", a, nl.add_cell("east", PAD, x=100.0, y=0.0,
                                          fixed=True))
        _connect(nl, "nc", c, nl.add_cell("west", PAD, x=-100.0, y=0.0,
                                          fixed=True))
        _connect(nl, "nb", b, pad)
        assert check_legal(nl, region) == []
        row_reorder_pass(nl, region, window=3)
        assert not any(cell.overlaps(pad) for cell in (a, b, c))
        assert check_legal(nl, region) == []

    def test_reorder_still_repacks_when_the_gap_is_free(self):
        nl = Netlist(name="free")
        region = _region(rows=1)
        w2 = _master(2.0)
        a = nl.add_cell("a", w2, x=0.0, y=0.0)
        b = nl.add_cell("b", w2, x=2.0, y=0.0)
        c = nl.add_cell("c", w2, x=8.0, y=0.0)
        _connect(nl, "na", a, nl.add_cell("east", PAD, x=100.0, y=0.0,
                                          fixed=True))
        _connect(nl, "nc", c, nl.add_cell("west", PAD, x=-100.0, y=0.0,
                                          fixed=True))
        assert row_reorder_pass(nl, region, window=3) == 1
        assert c.x == 0.0
        assert check_legal(nl, region) == []


class TestCheckLegalFixedCells:
    def _design(self):
        nl = Netlist(name="chk")
        region = _region()
        cell = nl.add_cell("m", _master(4.0), x=10.0, y=ROW_H)
        return nl, region, cell

    def test_flags_a_movable_cell_on_an_in_core_pad(self):
        nl, region, _cell = self._design()
        nl.add_cell("pad", PAD, x=12.0, y=ROW_H + 5.0, fixed=True)
        problems = check_legal(nl, region)
        assert any("m: covers a fixed cell" in p for p in problems)

    def test_abutting_pad_is_legal(self):
        nl, region, _cell = self._design()
        nl.add_cell("pad", PAD, x=14.0, y=ROW_H + 5.0, fixed=True)
        assert check_legal(nl, region) == []

    def test_ignores_off_core_and_fixed_fixed_overlaps(self):
        nl, region, _cell = self._design()
        nl.add_cell("far", _master(4.0), x=10.0, y=10 * ROW_H, fixed=True)
        nl.add_cell("p0", PAD, x=30.0, y=2.0, fixed=True)
        nl.add_cell("p1", PAD, x=30.0, y=2.0, fixed=True)
        assert check_legal(nl, region) == []


_WIDTHS = st.sampled_from([1.0, 2.0, 3.0, 5.0])


@st.composite
def _row_designs(draw):
    """Random rows with pads on and off row boundaries, at most ~40%
    utilised, plus random two-pin nets for the reorder pass to chase."""
    rows = draw(st.integers(2, 5))
    width = float(draw(st.integers(24, 48)))
    region = _region(rows=rows, width=width)
    nl = Netlist(name="prop")
    pads = []
    for i in range(draw(st.integers(0, 3 * rows))):
        x = float(draw(st.integers(0, int(width) - 1)))
        y = float(draw(st.integers(0, rows * int(ROW_H) - 2)))
        h = float(draw(st.sampled_from([1.0, 2.0])))
        pads.append(nl.add_cell(f"pad{i}", CellType("P", 1.0, h, PIN),
                                x=x, y=y, fixed=True))
    budget = 0.4 * (rows * width - len(pads) * 2.0)
    cells = []
    while True:
        w = draw(_WIDTHS)
        if w > budget:
            break
        budget -= w
        x = draw(st.floats(0.0, width - w))
        y = draw(st.floats(0.0, (rows - 1) * ROW_H))
        cells.append(nl.add_cell(f"c{len(cells)}", _master(w), x=x, y=y))
    pool = cells + pads
    for k in range(len(cells)):
        other = pool[draw(st.integers(0, len(pool) - 1))]
        if other is not cells[k]:
            _connect(nl, f"n{k}", cells[k], other)
    return nl, region


class TestRowModelProperty:
    @settings(max_examples=60, deadline=None)
    @given(_row_designs(), st.sampled_from(["tetris", "abacus", "scan"]))
    def test_legalize_then_reorder_is_legal(self, design, legalizer):
        nl, region = design
        if legalizer == "scan":
            row_scan_place(nl, region)
        else:
            fn = tetris_legalize if legalizer == "tetris" else abacus_legalize
            assert fn(nl, region).ok
        assert check_legal(nl, region) == []
        assert _on_fixed_cells(nl, region) == []
        row_reorder_pass(nl, region, window=3)
        assert check_legal(nl, region) == []
        assert _on_fixed_cells(nl, region) == []


class TestRetryAfterAbacus:
    """Abacus fails a few cells of a nearly full design; the Tetris retry
    must route around what Abacus placed instead of overlapping it."""

    @staticmethod
    def _full():
        return compose_design("full", [UnitSpec("ripple_adder", 8)],
                              glue_cells=200, seed=11,
                              target_utilization=0.95)

    def test_retry_that_cannot_fit_raises(self):
        d = self._full()
        with pytest.raises(LegalizationError):
            BaselinePlacer(PlacerOptions(run_detailed=False)).place(
                d.netlist, d.region)

    def test_ladder_ends_legal_on_row_scan(self):
        d = self._full()
        outcome, report = place_with_fallback(
            d.netlist, d.region, PlacerOptions(run_detailed=False),
            placer="baseline")
        assert report.succeeded == "row-scan"
        assert outcome.violations == 0
        assert check_legal(d.netlist, d.region) == []
