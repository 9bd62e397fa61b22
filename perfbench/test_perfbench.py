"""Tests for the benchmark's own code (not the program's).

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import serve_mix  # noqa: E402


@pytest.fixture(scope="module")
def placed_add8():
    """dp_add8 after a baseline placement (legal by the program)."""
    from repro.core import BaselinePlacer
    from repro.gen import build_design

    design = build_design("dp_add8")
    before = checks.positions(design.netlist)
    BaselinePlacer().place(design.netlist, design.region)
    return design, before


def test_hpwl_matches_netlist_hpwl_on_dp_add8(placed_add8):
    from repro.gen import build_design

    design, _ = placed_add8
    nl = design.netlist
    pins = checks.PinTable(nl)
    x, y = checks.positions(nl)
    assert pins.hpwl(x, y) == pytest.approx(nl.hpwl(), rel=1e-9)

    # and on scattered, unplaced positions of a fresh copy
    fresh = build_design("dp_add8").netlist
    rng = np.random.default_rng(3)
    for cell in fresh.cells:
        if cell.movable:
            cell.x, cell.y = rng.uniform(0, 50, size=2)
    x, y = checks.positions(fresh)
    assert checks.PinTable(fresh).hpwl(x, y) == pytest.approx(
        fresh.hpwl(), rel=1e-9)


def _arrays(design):
    x, y = checks.positions(design.netlist)
    w, h, fixed = checks.geometry(design.netlist)
    return x, y, w, h, fixed


def test_legality_accepts_program_legal_placement(placed_add8):
    design, before = placed_add8
    x, y, w, h, fixed = _arrays(design)
    assert checks.legality_violations(x, y, w, h, fixed, design.region,
                                      fixed_xy=before) == []


def test_legality_catches_injected_overlap(placed_add8):
    design, _ = placed_add8
    x, y, w, h, fixed = _arrays(design)
    a, b = np.flatnonzero(~fixed)[:2]
    x[b], y[b] = x[a], y[a]
    found = checks.legality_violations(x, y, w, h, fixed, design.region)
    assert any("overlap" in p for p in found)


def test_legality_catches_off_row_cell(placed_add8):
    design, _ = placed_add8
    x, y, w, h, fixed = _arrays(design)
    i = int(np.flatnonzero(~fixed)[0])
    y[i] += design.region.row_height / 2.0
    found = checks.legality_violations(x, y, w, h, fixed, design.region)
    assert any(f"cell {i}: off row" in p for p in found)


def test_legality_catches_moved_fixed_cell(placed_add8):
    design, before = placed_add8
    x, y, w, h, fixed = _arrays(design)
    i = int(np.flatnonzero(fixed)[0])
    x[i] += 1.0
    found = checks.legality_violations(x, y, w, h, fixed, design.region,
                                       fixed_xy=before)
    assert any("fixed cell moved" in p for p in found)


def test_percentile_refuses_thin_tail():
    values = [float(v) for v in range(99)]
    with pytest.raises(ValueError):
        checks.percentile(values, 90)
    assert checks.percentile(values + [99.0], 90) == 89.0
    assert checks.percentile(values, 50) == 49.0


def test_wrappers_restore_program_attributes():
    import repro.core.structured_placer as sp
    from repro.place.arrays import PlacementArrays

    original = (sp.abacus_legalize, PlacementArrays.__dict__["build"])
    restore = layers.install(layers.Recorder())
    assert sp.abacus_legalize is not original[0]
    restore()
    assert (sp.abacus_legalize, PlacementArrays.__dict__["build"]) == original


def test_wrappers_charge_self_time(placed_add8):
    from repro.core import StructureAwarePlacer
    from repro.gen import build_design

    rec = layers.Recorder()
    restore = layers.install(rec)
    try:
        design = build_design("dp_add8")
        tracer = layers.stage_tracer(rec)
        start = rec.clock()
        StructureAwarePlacer().place(design.netlist, design.region,
                                     tracer=tracer)
        wall = rec.clock() - start
    finally:
        restore()
    # self times of everything under the placer add up to its wall time
    inside = sum(v for k, v in rec.self_s.items() if k != "gen.build")
    assert inside == pytest.approx(wall, rel=0.02)
    metrics, missing = layers.layer_metrics(rec, "dac2012_suite")
    assert missing == []
    assert metrics["place.legalize.tetris_cells"] == (0.0, "count")
    for stage in ("extract", "legalize", "detailed"):
        assert rec.stage_s[stage] == pytest.approx(tracer.total_s(stage),
                                                   rel=0.05)


def test_select_metrics_keeps_manifest_order_and_flags_gaps():
    measured = {"b": (2.0, "ms"), "a": (1.0, "s"), "extra": (3.0, "s")}
    chosen, problems = run.select_metrics(
        measured, {"a": "s", "b": "s", "c": "count"})
    assert chosen == {"a": {"value": 1.0, "unit": "s"}}
    assert len(problems) == 2
    assert any("b is in ms" in p for p in problems)
    assert any("c was not measured" in p for p in problems)


def test_manifest_layers_are_reached_on_every_workload():
    """Each workload must print every listed metric, so no listed time
    or call count may come from a layer only some workloads reach."""
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    by_name = {layer.name: layer for layer in layers.LAYERS}
    for name in run.manifest_metrics(manifest, trace=True):
        for suffix in ("_s", ".calls"):
            layer = by_name.get(name.removesuffix(suffix))
            if name.endswith(suffix) and layer is not None:
                assert set(run.WORKLOADS) <= set(layer.workloads), name
                assert not layer.optional, name


def test_serve_plan_repeats_every_job_once_per_client():
    cold, warm = serve_mix.request_plan(7)
    assert (cold, warm) == serve_mix.request_plan(7)
    assert cold != serve_mix.request_plan(8)[0]
    total = sum(len(p) for p in cold + warm)
    assert total >= 200
    keys = set()
    for first, again in zip(cold, warm):
        mine = [(r.design, r.placer, r.seed) for r in first]
        assert not any(r.repeat for r in first)
        assert all(r.repeat for r in again)
        assert sorted(mine) == sorted((r.design, r.placer, r.seed)
                                      for r in again)
        assert len(set(mine)) == len(mine)
        assert not keys & set(mine)  # no job shared between clients
        keys |= set(mine)
    assert sum(len(p) for p in warm) * 2 == total
