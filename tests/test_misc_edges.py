"""Edge-case tests: Abacus cluster math, RNG helpers, parser tolerance,
stats, and option plumbing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gen import make_rng
from repro.gen.rng import choose, sample_without_replacement, weighted_choice
from repro.netlist import Netlist, compute_stats, default_library, \
    degree_histogram, fanout_histogram
from repro.place.abacus import _Cluster, _Segment


class TestAbacusCluster:
    def test_single_cell_optimum_is_desired(self):
        lib = default_library()
        nl = Netlist(library=lib)
        cell = nl.add_cell("a", "INV")
        cluster = _Cluster()
        cluster.add_cell(cell, desired_x=42.0)
        assert cluster.optimal_x(0.0, 100.0) == pytest.approx(42.0)

    def test_optimum_clamped_to_segment(self):
        lib = default_library()
        nl = Netlist(library=lib)
        cell = nl.add_cell("a", "INV")
        cluster = _Cluster()
        cluster.add_cell(cell, desired_x=-50.0)
        assert cluster.optimal_x(0.0, 100.0) == 0.0
        cluster2 = _Cluster()
        cluster2.add_cell(cell, desired_x=500.0)
        assert cluster2.optimal_x(0.0, 100.0) == 100.0 - cell.width

    def test_merge_preserves_width_and_weight(self):
        lib = default_library()
        nl = Netlist(library=lib)
        a = nl.add_cell("a", "INV")
        b = nl.add_cell("b", "NAND2")
        c1 = _Cluster()
        c1.add_cell(a, 10.0)
        c2 = _Cluster()
        c2.add_cell(b, 20.0)
        c1.merge(c2)
        assert c1.width == a.width + b.width
        assert c1.weight == 2.0
        assert c1.cells == [a, b]

    def test_merged_optimum_between_desires(self):
        lib = default_library()
        nl = Netlist(library=lib)
        a = nl.add_cell("a", "INV")
        b = nl.add_cell("b", "INV")
        c1 = _Cluster()
        c1.add_cell(a, 10.0)
        c2 = _Cluster()
        c2.add_cell(b, 30.0)
        c1.merge(c2)
        x = c1.optimal_x(0.0, 100.0)
        assert 10.0 <= x <= 30.0

    def test_segment_rejects_overfull(self):
        lib = default_library()
        nl = Netlist(library=lib)
        seg = _Segment(y=0.0, x0=0.0, x1=5.0, site=1.0)
        wide = nl.add_cell("w", "MUX4")  # width 10 > 5
        assert seg.trial_add(wide, 0.0) is None

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.floats(-40.0, 160.0),
                              st.sampled_from(["INV", "NAND2", "FA",
                                               "DFF", "MUX4"])),
                    min_size=1, max_size=30),
           st.floats(-10.0, 10.0), st.floats(20.0, 120.0))
    def test_trial_price_matches_brute_force(self, specs, x0, length):
        nl = Netlist(library=default_library())
        seg = _Segment(y=0.0, x0=x0, x1=x0 + length, site=1.0)
        desired: dict[int, float] = {}
        for i, (x, master) in enumerate(sorted(specs)):
            cell = nl.add_cell(f"c{i}", master)
            desired[id(cell)] = x
            brute = _brute_price(seg, cell, desired)
            trial = seg.trial_add(cell, x)
            if brute is None:
                assert trial is None
                continue
            price, clusters = brute
            cost, keep, composite = trial
            assert cost == pytest.approx(price, rel=1e-12, abs=1e-9)
            assert seg.displacement_floor(x, cell.width) <= price + 1e-9
            seg.commit(cell, x, keep, composite)
            assert [cl.cells for cl in seg.clusters] == \
                [cl.cells for cl in clusters]


def _brute_price(seg, cell, desired):
    """Price ``cell`` the long way: collapse a full copy of the cluster
    list (classic Abacus, leftward merges while neighbours overlap) and
    walk every cell of every cluster."""
    if sum(cl.width for cl in seg.clusters) + cell.width > \
            seg.x1 - seg.x0 + 1e-9:
        return None
    clusters = []
    for cl in seg.clusters:
        copy = _Cluster()
        for c in cl.cells:
            copy.add_cell(c, desired[id(c)])
        clusters.append(copy)
    last = _Cluster()
    last.add_cell(cell, desired[id(cell)])
    clusters.append(last)
    while len(clusters) > 1:
        prev, last = clusters[-2], clusters[-1]
        if prev.optimal_x(seg.x0, seg.x1) + prev.width <= \
                last.optimal_x(seg.x0, seg.x1) + 1e-9:
            break
        prev.merge(last)
        clusters.pop()
    price = 0.0
    for cl in clusters:
        run = cl.optimal_x(seg.x0, seg.x1)
        for c in cl.cells:
            price += abs(run - desired[id(c)])
            run += c.width
    return price, clusters


class TestRngHelpers:
    def test_choose_empty_rejected(self):
        with pytest.raises(ValueError):
            choose(make_rng(0), [])

    def test_weighted_choice_validation(self):
        rng = make_rng(0)
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a", "b"], [0.0, 0.0])

    def test_sample_without_replacement(self):
        rng = make_rng(1)
        out = sample_without_replacement(rng, 10, 5)
        assert len(set(out)) == 5
        assert all(0 <= v < 10 for v in out)
        with pytest.raises(ValueError):
            sample_without_replacement(rng, 3, 4)

    def test_make_rng_passthrough(self):
        rng = make_rng(7)
        assert make_rng(rng) is rng


class TestStatsHistograms:
    @pytest.fixture
    def small(self):
        lib = default_library()
        nl = Netlist(name="h", library=lib)
        drv = nl.add_cell("drv", "INV")
        sinks = [nl.add_cell(f"s{i}", "INV") for i in range(3)]
        fan = nl.add_net("fan")
        nl.connect(fan, drv, "Y")
        for s in sinks:
            nl.connect(fan, s, "A")
        out = nl.add_net("out")
        nl.connect(out, sinks[0], "Y")
        nl.connect(out, drv, "A")
        return nl

    def test_degree_histogram(self, small):
        hist = degree_histogram(small)
        assert hist[4] == 1
        assert hist[2] == 1

    def test_fanout_histogram(self, small):
        hist = fanout_histogram(small)
        assert hist[3] == 1  # drv drives 3 distinct cells

    def test_stats_type_histogram(self, small):
        stats = compute_stats(small)
        assert stats.type_histogram == {"INV": 4}
        assert stats.datapath_cells == 0


class TestOptionPlumbing:
    def test_baseline_inherits_engine(self):
        from repro.core import BaselinePlacer, PlacerOptions
        base = BaselinePlacer(PlacerOptions(engine="nonlinear"))
        assert base.options.engine == "nonlinear"
        assert base.options.structure_weight == 0.0
        assert base.options.structure_legalization == "none"

    def test_default_options(self):
        from repro.core import PlacerOptions
        opts = PlacerOptions()
        assert opts.engine == "quadratic"
        assert opts.structure_legalization == "slices"
        assert not opts.use_fusion
        assert opts.use_alignment

    def test_cli_structure_weight_flag(self, capsys):
        from repro.cli import main
        assert main(["place", "--design", "dp_add8",
                     "--placer", "structure",
                     "--structure-weight", "0.5"]) == 0
        assert "structure-aware" in capsys.readouterr().out
