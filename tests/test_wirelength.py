"""Tests for HPWL and the flattened placement arrays."""

import numpy as np
import pytest

from repro.gen import build_design
from repro.place import PlacementArrays
from repro.place.wirelength import hpwl, hpwl_per_net


@pytest.fixture(scope="module")
def small():
    design = build_design("dp_add8")
    arrays = PlacementArrays.build(design.netlist)
    x, y = arrays.initial_positions()
    return arrays, x, y


class TestHpwl:
    def test_matches_netlist_hpwl(self, small):
        arrays, x, y = small
        assert hpwl(arrays, x, y) == pytest.approx(
            arrays.netlist.hpwl(), rel=1e-9)

    def test_translation_invariant(self, small):
        arrays, x, y = small
        base = hpwl(arrays, x, y)
        assert hpwl(arrays, x + 100.0, y - 37.0) == pytest.approx(base)

    def test_scaling(self, small):
        arrays, x, y = small
        base = hpwl(arrays, x, y)
        # scaling positions scales HPWL linearly up to pin-offset effects;
        # use zero offsets by collapsing to centers only
        arrays2 = PlacementArrays.build(build_design("dp_add8").netlist)
        arrays2.pin_dx[:] = 0.0
        arrays2.pin_dy[:] = 0.0
        b1 = hpwl(arrays2, x, y)
        b2 = hpwl(arrays2, 2 * x, 2 * y)
        assert b2 == pytest.approx(2 * b1, rel=1e-9)
        assert base > 0

    def test_per_net_sums_to_total_when_unweighted(self, small):
        arrays, x, y = small
        per_net = hpwl_per_net(arrays, x, y)
        assert float(per_net @ arrays.net_weight) == pytest.approx(
            hpwl(arrays, x, y))


class TestArrays:
    def test_csr_consistency(self, small):
        arrays, _x, _y = small
        degrees = arrays.net_degrees()
        assert degrees.min() >= 2
        assert degrees.sum() == arrays.num_pins

    def test_zero_weight_nets_dropped(self, small):
        arrays, _x, _y = small
        assert np.all(arrays.net_weight > 0)

    def test_pin_net_inverse(self, small):
        arrays, _x, _y = small
        pin_net = arrays.pin_net()
        for j in (0, arrays.num_nets // 2, arrays.num_nets - 1):
            s, e = arrays.net_start[j], arrays.net_start[j + 1]
            assert np.all(pin_net[s:e] == j)

    def test_write_back_roundtrip(self):
        design = build_design("dp_add8")
        arrays = PlacementArrays.build(design.netlist)
        x, y = arrays.initial_positions()
        x2 = x + 3.0
        y2 = y - 2.0
        arrays.write_back(x2, y2)
        nx, ny = arrays.initial_positions()
        movable = arrays.movable
        assert np.allclose(nx[movable], x2[movable])
        assert np.allclose(ny[movable], y2[movable])
        assert np.allclose(nx[~movable], x[~movable])
