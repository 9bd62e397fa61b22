"""Tests for cells, nets, and the netlist container."""

import numpy as np
import pytest

from repro.gen import build_design
from repro.netlist import Netlist, default_library


@pytest.fixture
def lib():
    return default_library()


@pytest.fixture
def simple(lib):
    """inv -> nand -> dff chain plus a fixed input pad."""
    nl = Netlist(name="simple", library=lib)
    pad = nl.add_cell("pad", "PI", x=0.0, y=0.0, fixed=True)
    inv = nl.add_cell("inv", "INV", x=10.0, y=8.0)
    nand = nl.add_cell("nand", "NAND2", x=20.0, y=8.0)
    dff = nl.add_cell("dff", "DFF", x=30.0, y=16.0)
    n0 = nl.add_net("n0")
    nl.connect(n0, pad, "Y")
    nl.connect(n0, inv, "A")
    n1 = nl.add_net("n1")
    nl.connect(n1, inv, "Y")
    nl.connect(n1, nand, "A")
    nl.connect(n1, nand, "B")
    n2 = nl.add_net("n2")
    nl.connect(n2, nand, "Y")
    nl.connect(n2, dff, "D")
    clk = nl.add_net("clk", weight=0.0)
    nl.connect(clk, dff, "CK")
    nq = nl.add_net("nq")
    nl.connect(nq, dff, "Q")
    nl.connect(nq, inv, "A")  # tiny loop to exercise queries
    return nl


class TestConstruction:
    def test_counts(self, simple):
        assert simple.num_cells == 4
        assert simple.num_nets == 5
        assert simple.num_pins == 10

    def test_duplicate_cell_rejected(self, simple):
        with pytest.raises(ValueError):
            simple.add_cell("inv", "INV")

    def test_duplicate_net_rejected(self, simple):
        with pytest.raises(ValueError):
            simple.add_net("n0")

    def test_master_by_name_requires_library(self):
        nl = Netlist()
        with pytest.raises(ValueError):
            nl.add_cell("x", "INV")

    def test_indices_dense(self, simple):
        for i, cell in enumerate(simple.cells):
            assert cell.index == i
        for j, net in enumerate(simple.nets):
            assert net.index == j

    def test_lookup(self, simple):
        assert simple.cell("inv").name == "inv"
        assert simple.net("n1").name == "n1"
        with pytest.raises(KeyError):
            simple.cell("nope")
        with pytest.raises(KeyError):
            simple.net("nope")


class TestConnectivity:
    def test_nets_of(self, simple):
        inv_nets = {n.name for n in simple.nets_of("inv")}
        assert inv_nets == {"n0", "n1", "nq"}

    def test_neighbors(self, simple):
        names = {c.name for c in simple.neighbors("inv")}
        assert names == {"pad", "nand", "dff"}

    def test_driver_of(self, simple):
        assert simple.driver_of("n1").name == "inv"
        assert simple.driver_of("n0").name == "pad"

    def test_fanout_fanin(self, simple):
        assert {c.name for c in simple.fanout_cells("inv")} == {"nand"}
        assert {c.name for c in simple.fanin_cells("nand")} == {"inv"}
        assert {c.name for c in simple.fanin_cells("inv")} \
            == {"pad", "dff"}

    def test_iter_connected_covers_component(self, simple):
        seen = {c.name for c in simple.iter_connected(simple.cell("inv"))}
        assert seen == {"pad", "inv", "nand", "dff"}


class TestPositions:
    def test_positions_roundtrip(self, simple):
        pos = simple.positions()
        simple.set_positions(pos)
        assert np.allclose(simple.positions(), pos)

    def test_set_positions_respects_fixed(self, simple):
        pos = simple.positions()
        moved = pos + 5.0
        simple.set_positions(moved)
        new = simple.positions()
        assert np.allclose(new[0], pos[0])      # pad is fixed
        assert np.allclose(new[1:], moved[1:])  # others moved

    def test_set_positions_shape_check(self, simple):
        with pytest.raises(ValueError):
            simple.set_positions(np.zeros((2, 2)))

    def test_movable_mask(self, simple):
        assert list(simple.movable_mask()) == [False, True, True, True]

    def test_pin_position_uses_offsets(self, simple):
        inv = simple.cell("inv")
        px, py = inv.pin_position("Y")
        assert px == inv.x + inv.cell_type.pin("Y").x_offset
        assert py == inv.y + inv.cell_type.pin("Y").y_offset


class TestHpwl:
    def test_zero_weight_net_excluded(self, simple):
        base = simple.hpwl()
        # moving only along the clock net must not change weighted HPWL
        dff = simple.cell("dff")
        clk_only = simple.net("clk")
        assert clk_only.weight == 0.0
        assert base == pytest.approx(simple.hpwl())

    def test_hpwl_matches_manual(self, lib):
        nl = Netlist(library=lib)
        a = nl.add_cell("a", "INV", x=0.0, y=0.0)
        b = nl.add_cell("b", "INV", x=10.0, y=20.0)
        net = nl.add_net("n")
        nl.connect(net, a, "Y")
        nl.connect(net, b, "A")
        ax, ay = a.pin_position("Y")
        bx, by = b.pin_position("A")
        assert nl.hpwl() == pytest.approx(abs(ax - bx) + abs(ay - by))

    def test_flat_view_matches_object_walk(self):
        """``hpwl`` reads the cached flat view; it must equal the per-net
        object walk exactly after moves and after every mutator, each of
        which drops the view so that the next use rebuilds it."""
        nl = build_design("dp_alu16").netlist
        rng = np.random.default_rng(5)
        last = [nl.flat()]

        def move_and_check(edited=True):
            for c in nl.cells:
                c.x += float(rng.uniform(-40.0, 40.0))
                c.y += float(rng.uniform(-16.0, 16.0))
            assert nl.hpwl() == _ref_hpwl(nl)
            view = nl.flat()
            assert (view is not last[0]) == edited
            last[0] = view
            assert view.cell_w.shape == (nl.num_cells,)
            np.testing.assert_array_equal(np.diff(view.net_start),
                                          [net.degree for net in nl.nets])
            np.testing.assert_array_equal(
                nl.sizes(), [[c.width, c.height] for c in nl.cells])
            np.testing.assert_array_equal(
                nl.movable_mask(), [c.movable for c in nl.cells])

        move_and_check(edited=False)
        move_and_check(edited=False)       # cached view, new positions
        a = nl.add_cell("extra_a", "NAND2", x=5.0, y=8.0)
        move_and_check()
        b = nl.add_cell("extra_b", "INV", x=90.0, y=40.0, fixed=True)
        move_and_check()
        net = nl.add_net("extra_n", weight=2.5)
        move_and_check()
        nl.connect(net, a, "Y")
        move_and_check()                   # degree 1: still left out
        nl.connect(net, b, "A")
        move_and_check()
        nl.connect(net, a, "B")            # two pins of one cell
        move_and_check()
        c = nl.add_cell("extra_c", "INV", x=40.0, y=0.0)
        open_net = nl.add_net("extra_open")
        nl.connect(open_net, c, "A")
        nl.connect(open_net, a, "A")
        move_and_check()
        nl.merge_nets(net, open_net)
        move_and_check()
        assert nl.remove_empty_nets() == 1
        move_and_check()


class TestEditing:
    def test_merge_nets(self, lib):
        nl = Netlist(library=lib)
        a = nl.add_cell("a", "INV")
        b = nl.add_cell("b", "INV")
        driven = nl.add_net("driven")
        nl.connect(driven, a, "Y")
        open_net = nl.add_net("open")
        nl.connect(open_net, b, "A")
        nl.merge_nets(driven, open_net)
        assert driven.degree == 2
        assert open_net.degree == 0
        assert {n.name for n in nl.nets_of(b)} == {"driven"}

    def test_merge_two_driven_rejected(self, lib):
        nl = Netlist(library=lib)
        a = nl.add_cell("a", "INV")
        b = nl.add_cell("b", "INV")
        n1 = nl.add_net("n1")
        nl.connect(n1, a, "Y")
        n2 = nl.add_net("n2")
        nl.connect(n2, b, "Y")
        with pytest.raises(ValueError):
            nl.merge_nets(n1, n2)

    def test_merge_self_rejected(self, lib):
        nl = Netlist(library=lib)
        n1 = nl.add_net("n1")
        with pytest.raises(ValueError):
            nl.merge_nets(n1, n1)

    def test_remove_empty_nets_reindexes(self, lib):
        nl = Netlist(library=lib)
        a = nl.add_cell("a", "INV")
        keep = nl.add_net("keep")
        nl.connect(keep, a, "Y")
        nl.add_net("empty1")
        nl.add_net("empty2")
        removed = nl.remove_empty_nets()
        assert removed == 2
        assert nl.num_nets == 1
        assert nl.nets[0].index == 0
        assert not nl.has_net("empty1")


class TestCellGeometry:
    def test_overlap(self, lib):
        nl = Netlist(library=lib)
        a = nl.add_cell("a", "INV", x=0.0, y=0.0)
        b = nl.add_cell("b", "INV", x=1.0, y=0.0)
        c = nl.add_cell("c", "INV", x=2.0, y=0.0)
        assert a.overlaps(b)
        assert not a.overlaps(c)  # abutting at x=2 is not overlap

    def test_set_center(self, lib):
        nl = Netlist(library=lib)
        a = nl.add_cell("a", "INV")
        a.set_center(10.0, 20.0)
        assert a.center_x == pytest.approx(10.0)
        assert a.center_y == pytest.approx(20.0)


def _ref_hpwl(self: Netlist) -> float:
    """``Netlist.hpwl`` as an object walk over every net (the version
    the flat pin view replaced), kept as the reference."""
    total = 0.0
    for net in self._nets:
        if net.degree >= 2:
            total += net.weight * net.hpwl()
    return total
