"""End-to-end tests for the structure-aware and baseline placers."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core import (BaselinePlacer, PlacerOptions, StructureAwarePlacer,
                        extract_datapaths)
from repro.core.groups import group_ids, make_reprojector, plan_arrays
from repro.core.alignment import build_alignment
from repro.errors import OptionsError
from repro.gen import UnitSpec, build_design, compose_design
from repro.netlist.arena import NetlistArena
from repro.netlist.flat import FlatNetlist
from repro.place import PlacementArrays, QuadraticPlacer, check_legal
from repro.place.b2b import B2BBuilder
from repro.place.electrostatic import OVERFLOW_EVERY, ElectroOptions
from repro.place.multilevel import MultilevelOptions, place_flat
from repro.robust import JobHook
from repro.runtime.telemetry import Tracer


class RecordingHook(JobHook):
    """A job hook that records what the placer calls it with."""

    def __init__(self) -> None:
        super().__init__()
        self.iterations: list[int] = []
        self.stages: list[str] = []

    def __call__(self, iteration: int) -> None:
        self.iterations.append(iteration)

    def before(self, stage: str) -> None:
        self.stages.append(stage)


@pytest.fixture(scope="module")
def small_design_factory():
    def make():
        return compose_design("e2e", [UnitSpec("ripple_adder", 8)],
                              glue_cells=120, seed=4)
    return make


class TestBaselinePlacer:
    def test_options_differ_only_in_structure_switches(self):
        base = PlacerOptions(use_fusion=True,
                             electro=ElectroOptions(max_iterations=50))
        structure = asdict(StructureAwarePlacer(base).options)
        baseline = asdict(BaselinePlacer(base).options)
        differing = {k for k in structure if structure[k] != baseline[k]}
        assert differing == {"structure_weight", "use_fusion",
                             "use_alignment", "structure_legalization"}
        assert baseline["electro"]["max_iterations"] == 50

    def test_produces_legal_placement(self, small_design_factory):
        d = small_design_factory()
        out = BaselinePlacer().place(d.netlist, d.region)
        assert out.legal
        assert out.hpwl_final > 0
        assert check_legal(d.netlist, d.region) == []

    def test_improves_on_random_start(self, small_design_factory):
        d = small_design_factory()
        start = d.netlist.hpwl()
        out = BaselinePlacer().place(d.netlist, d.region)
        assert out.hpwl_final < start

    def test_phase_times_recorded(self, small_design_factory):
        d = small_design_factory()
        out = BaselinePlacer().place(d.netlist, d.region)
        assert out.runtime_s > 0
        assert out.gp_s > 0
        assert out.legalize_s >= 0


class TestStructureAwarePlacer:
    def test_produces_legal_placement(self, small_design_factory):
        d = small_design_factory()
        out = StructureAwarePlacer().place(d.netlist, d.region)
        assert out.legal
        assert out.extraction is not None
        assert out.extraction.arrays

    def test_slices_stay_in_rows(self, small_design_factory):
        """With slice legalization, every extracted slice ends up as a
        contiguous run in a single row."""
        d = small_design_factory()
        out = StructureAwarePlacer().place(d.netlist, d.region)
        for array in out.extraction.arrays:
            for s in array.slices:
                ys = {c.y for c in s}
                assert len(ys) == 1, "slice spans multiple rows"
                cells = sorted(s, key=lambda c: c.x)
                for a, b in zip(cells, cells[1:]):
                    assert b.x == pytest.approx(a.x + a.width, abs=1e-6)

    def test_hpwl_within_sane_band_of_baseline(self, small_design_factory):
        d1 = small_design_factory()
        base = BaselinePlacer().place(d1.netlist, d1.region)
        d2 = small_design_factory()
        struct = StructureAwarePlacer().place(d2.netlist, d2.region)
        # the structured result must stay competitive (reconstructed
        # claim: formation at no catastrophic HPWL cost)
        assert struct.hpwl_final <= base.hpwl_final * 1.25

    def test_weight_zero_disables_alignment(self, small_design_factory):
        d = small_design_factory()
        opts = PlacerOptions(structure_weight=0.0,
                             structure_legalization="none")
        out = StructureAwarePlacer(opts).place(d.netlist, d.region)
        assert out.legal

    def test_blocks_mode_formation(self, small_design_factory):
        d = small_design_factory()
        opts = PlacerOptions(use_fusion=True,
                             structure_legalization="blocks")
        out = StructureAwarePlacer(opts).place(d.netlist, d.region)
        assert out.legal
        # in block mode slices of an array sit on consecutive rows
        arrays = [a for a in out.extraction.arrays if a.width == 8]
        if arrays:
            rows = sorted({c.y for s in arrays[0].slices for c in s})
            diffs = np.diff(rows)
            assert np.all(diffs == d.region.row_height)

    def test_fusion_under_electro_rejected(self):
        # electro has no rigid-group or reprojection hook, so fusion
        # would be ignored without a word
        with pytest.raises(OptionsError) as excinfo:
            PlacerOptions(engine="electro", use_fusion=True)
        assert excinfo.value.option == "use_fusion"
        PlacerOptions(engine="electro")
        PlacerOptions(use_fusion=True)

    def test_multilevel_under_quadratic_rejected(self):
        # the V-cycle places every level with electro, so under the
        # quadratic engine it would place something else than asked
        with pytest.raises(OptionsError) as excinfo:
            PlacerOptions(multilevel=MultilevelOptions(enabled=True))
        assert excinfo.value.option == "multilevel"
        PlacerOptions(engine="electro",
                      multilevel=MultilevelOptions(enabled=True))

    def test_bad_legalization_mode_rejected(self, small_design_factory):
        d = small_design_factory()
        with pytest.raises(ValueError):
            opts = PlacerOptions(structure_legalization="bogus")
            StructureAwarePlacer(opts).place(d.netlist, d.region)

    def test_electro_engine_runs(self):
        d = compose_design("el", [UnitSpec("ripple_adder", 4)],
                           glue_cells=40, seed=2)
        opts = PlacerOptions(engine="electro")
        out = StructureAwarePlacer(opts).place(d.netlist, d.region)
        assert out.legal

    def test_electro_engine_multilevel_runs(self):
        from repro.place.multilevel import MultilevelOptions
        d = compose_design("elml", [UnitSpec("ripple_adder", 4)],
                           glue_cells=40, seed=2)
        opts = PlacerOptions(engine="electro",
                             multilevel=MultilevelOptions(enabled=True))
        out = StructureAwarePlacer(opts).place(d.netlist, d.region)
        assert out.legal

    def test_electro_history_numbers_nesterov_iterations(self):
        # gp_history, the job hook and the gp.iterations counter count
        # the same Nesterov iterations (the hook runs at every probe)
        d = build_design("dp_mix32")
        hook = RecordingHook()
        tracer = Tracer()
        out = StructureAwarePlacer(PlacerOptions(engine="electro")).place(
            d.netlist, d.region, tracer=tracer, hook=hook)
        hooked = hook.iterations
        every = OVERFLOW_EVERY
        assert hooked[:3] == [every, 2 * every, 3 * every]
        assert [h.iteration for h in out.gp_history] == hooked
        assert tracer.count("gp.iterations") == hooked[-1]
        assert hook.stages == ["legalize", "detailed"]

    @pytest.mark.parametrize("placer_cls", [StructureAwarePlacer,
                                            BaselinePlacer])
    def test_electro_multilevel_gp_reaches_target_overflow(self,
                                                           placer_cls):
        # the V-cycle's finest electro level runs to the target, as a
        # flat run does; coarse levels keep their short refinement.
        # Records and the job hook count Nesterov iterations across the
        # levels, and the hook runs on every level
        d = build_design("ctrl_glue2k")
        opts = PlacerOptions(engine="electro",
                             multilevel=MultilevelOptions(enabled=True))
        hook = RecordingHook()
        tracer = Tracer()
        out = placer_cls(opts).place(d.netlist, d.region, tracer=tracer,
                                     hook=hook)
        assert tracer.count("ml.levels") >= 1
        assert out.gp_overflow <= ElectroOptions().target_overflow
        assert out.legal
        records = [h.iteration for h in out.gp_history]
        assert hook.iterations == records
        assert tracer.count("gp.iterations") == records[-1]

    def test_gp_overflow_without_history_is_nan(self):
        from repro.core import PlaceOutcome
        out = PlaceOutcome(placer="p", design="d", hpwl_gp=1.0,
                           hpwl_legal=1.0, hpwl_final=1.0, runtime_s=0.0)
        assert np.isnan(out.gp_overflow)

    def test_electro_spreads_below_target_overflow(self):
        from repro.place import PlacementArrays
        from repro.place.density import overflow
        from repro.place.electrostatic import (ElectroOptions,
                                               ElectrostaticPlacer)
        d = compose_design("elovf", [UnitSpec("ripple_adder", 8)],
                           glue_cells=200, seed=6)
        arrays = PlacementArrays.build(d.netlist)
        placer = ElectrostaticPlacer(arrays, d.region,
                                     options=ElectroOptions())
        res = placer.place()
        assert res.final_overflow <= placer.options.target_overflow
        got = overflow(arrays, res.x, res.y, placer.grid)
        assert got == pytest.approx(res.final_overflow, rel=1e-9)

    def test_electro_deterministic(self):
        from repro.place import PlacementArrays
        from repro.place.electrostatic import ElectrostaticPlacer
        d = compose_design("eldet", [UnitSpec("ripple_adder", 4)],
                           glue_cells=60, seed=3)
        arrays = PlacementArrays.build(d.netlist)
        a = ElectrostaticPlacer(arrays, d.region).place()
        b = ElectrostaticPlacer(arrays, d.region).place()
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_electro_guard_raises_on_injected_nan(self, monkeypatch):
        from repro.errors import NumericalError
        from repro.place import PlacementArrays
        from repro.place.electrostatic import ElectrostaticPlacer
        from repro.robust import faults
        d = compose_design("elnan", [UnitSpec("ripple_adder", 4)],
                           glue_cells=40, seed=2)
        arrays = PlacementArrays.build(d.netlist)
        monkeypatch.setenv(faults.ENV_VAR, "solver_nan:*")
        with pytest.raises(NumericalError):
            ElectrostaticPlacer(arrays, d.region).place()


class TestFullFlowLegality:
    """No movable cell ends on an in-core I/O pad after detailed
    placement (row reorder used to re-pack windows over them)."""

    @pytest.mark.parametrize("placer_cls", [StructureAwarePlacer,
                                            BaselinePlacer])
    @pytest.mark.parametrize("name", ["dp_add8", "dp_mul16"])
    def test_full_flow_is_legal(self, name, placer_cls):
        d = build_design(name)
        out = placer_cls().place(d.netlist, d.region)
        assert check_legal(d.netlist, d.region) == []
        assert out.violations == 0
        pads = [f for f in d.netlist.fixed_cells()
                if d.region.contains_cell(f.x, f.y, f.width, f.height)]
        assert not [c.name for c in d.netlist.movable_cells()
                    if any(c.overlaps(p) for p in pads)]


class TestGroupsAndAlignment:
    def test_plan_offsets_cover_all_cells(self, small_design_factory):
        d = small_design_factory()
        res = extract_datapaths(d.netlist)
        plans = plan_arrays(res.arrays, d.region)
        for plan in plans:
            for cell in plan.cells():
                assert cell.index in plan.offsets

    def test_plan_fits_region(self, small_design_factory):
        d = small_design_factory()
        res = extract_datapaths(d.netlist)
        for plan in plan_arrays(res.arrays, d.region):
            assert plan.width <= d.region.width
            assert plan.height <= d.region.height

    def test_alignment_pair_count_scales_with_cells(self,
                                                    small_design_factory):
        d = small_design_factory()
        res = extract_datapaths(d.netlist)
        plans = plan_arrays(res.arrays, d.region)
        arrays = PlacementArrays.build(d.netlist)
        forces = build_alignment(plans, arrays, structure_weight=1.0)
        assert forces.count > 0
        zero = build_alignment(plans, arrays, structure_weight=0.0)
        assert zero.count == 0

    def test_reprojector_restores_formation(self, small_design_factory):
        d = small_design_factory()
        res = extract_datapaths(d.netlist)
        plans = plan_arrays(res.arrays, d.region)
        arrays = PlacementArrays.build(d.netlist)
        reproject = make_reprojector(plans, arrays, d.region)
        x, y = arrays.initial_positions()
        reproject(x, y)
        # after reprojection, member offsets match the plan exactly
        plan = plans[0]
        cells = plan.cells()
        half_w = arrays.width / 2.0
        i0 = cells[0].index
        ox = x[i0] - plan.offsets[i0][0] - half_w[i0]
        for c in cells:
            expect = ox + plan.offsets[c.index][0] + half_w[c.index]
            assert x[c.index] == pytest.approx(expect, abs=1e-9)

    def test_group_ids_mark_members(self, small_design_factory):
        d = small_design_factory()
        res = extract_datapaths(d.netlist)
        plans = plan_arrays(res.arrays, d.region)
        arrays = PlacementArrays.build(d.netlist)
        gids = group_ids(plans, arrays.num_cells)
        marked = int((gids >= 0).sum())
        assert marked == sum(len(p.cells()) for p in plans)


class TestDeterminism:
    def test_full_pipeline_deterministic(self, small_design_factory):
        finals = []
        for _ in range(2):
            d = small_design_factory()
            out = StructureAwarePlacer().place(d.netlist, d.region)
            finals.append(out.hpwl_final)
        assert finals[0] == pytest.approx(finals[1])


class TestEngineDispatch:
    """Every global placement goes through one dispatch, which knows
    exactly the engines in ``ENGINES``."""

    def test_flat_equals_one_level_vcycle(self):
        positions = []
        for multilevel in (False, True):
            d = build_design("dp_alu16")
            # a V-cycle that may not coarsen places flat
            ml = MultilevelOptions(
                enabled=multilevel,
                coarsest_cells=len(d.netlist.movable_cells()))
            opts = PlacerOptions(engine="electro", multilevel=ml)
            tracer = Tracer()
            StructureAwarePlacer(opts).place(d.netlist, d.region,
                                             tracer=tracer)
            assert len(tracer.phases("multilevel")) == multilevel
            assert tracer.count("ml.levels") == 0
            positions.append(d.netlist.positions())
        assert (positions[0] == positions[1]).all()

    def test_flat_quadratic_runs_no_cg(self, monkeypatch):
        """The default flat quadratic flow never calls CG: both placers
        finish legal without it, and an axis solve is the direct one."""
        import scipy.sparse.linalg as spla

        def no_cg(*_args, **_kwargs):
            raise AssertionError("the flat quadratic flow called CG")

        monkeypatch.setattr(spla, "cg", no_cg)
        for placer in (StructureAwarePlacer(), BaselinePlacer()):
            d = build_design("dp_add8")
            assert placer.place(d.netlist, d.region).legal
        d = build_design("dp_add8")
        arrays = PlacementArrays.build(d.netlist)
        x, _y = arrays.initial_positions()
        got = QuadraticPlacer(arrays, d.region)._solve_axis(
            x, arrays.pin_dx, x, 0.1, [], axis="x")
        system = B2BBuilder(arrays).build_axis(x, arrays.pin_dx, anchors=x,
                                               anchor_weight=0.1)
        assert (got[system.cells] == system.solve_direct()).all()

    @pytest.mark.parametrize("engine", ["nonlinear", "bogus"])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(OptionsError, match="engine"):
            PlacerOptions(engine=engine)
        d = build_design("dp_add8")
        arrays = PlacementArrays.build(d.netlist)
        with pytest.raises(OptionsError, match="engine"):
            place_flat(arrays, d.region, engine=engine)


class TestFlatNetlist:
    @pytest.mark.parametrize("placer_cls", [StructureAwarePlacer,
                                            BaselinePlacer])
    def test_one_flat_walk_per_placement(self, placer_cls, monkeypatch):
        # every array consumer (placement arrays, hpwl, the detailed
        # oracle, swap partners) reads one flat view: a generator-built
        # design is walked once per placement, an arena-rebuilt one never
        walked: list[str] = []
        build = FlatNetlist.build.__func__

        def counting_build(cls, netlist):
            walked.append(netlist.name)
            return build(cls, netlist)

        monkeypatch.setattr(FlatNetlist, "build",
                            classmethod(counting_build))
        d = build_design("dp_mix32")
        placer_cls().place(d.netlist, d.region)
        assert walked == ["dp_mix32"]

        rebuilt = NetlistArena.compile(build_design("dp_mix32")).to_design()
        walked.clear()
        out = placer_cls().place(rebuilt.netlist, rebuilt.region)
        assert out.legal
        assert walked == []
