"""Tests for detailed placement."""

import functools
import itertools

import numpy as np
import pytest

from repro.core import StructureAwarePlacer
from repro.gen import build_design
from repro.kernels import IncrementalHPWL
from repro.place import (DetailedStats, PlacementArrays, QuadraticPlacer,
                         abacus_legalize, check_legal, detailed_place,
                         global_swap_pass, row_reorder_pass)
from repro.place.abacus import _Segment
from repro.place.legalize import blocked, row_blockages, rows_spanned
from repro.runtime.telemetry import Tracer


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


@functools.lru_cache(maxsize=None)
def _gp_positions(name):
    """Global-placement corner positions of a suite design."""
    design = build_design(name)
    arrays = PlacementArrays.build(design.netlist)
    result = QuadraticPlacer(arrays, design.region).place()
    arrays.write_back(result.x, result.y)
    return tuple((c.x, c.y) for c in design.netlist.cells)


def _at_gp(name):
    design = build_design(name)
    for cell, (x, y) in zip(design.netlist.cells, _gp_positions(name)):
        cell.x, cell.y = x, y
    return design


def _positions(netlist):
    return [(c.x, c.y) for c in netlist.cells]


def _reference_reorder(netlist, region, *, inc, window=3, frozen=None):
    """Row reorder priced the long way: one propose/rollback per
    permutation, moving the window's cells for each."""
    frozen = frozen or set()
    spans = row_blockages(netlist, region)
    rows = {}
    for cell in netlist.movable_cells():
        spanned = rows_spanned(region, cell.y, cell.height)
        if spanned:
            rows.setdefault(spanned.start, []).append(cell)
    accepted = 0
    for j, row_cells in rows.items():
        row_cells.sort(key=lambda c: c.x)
        for i in range(len(row_cells) - window + 1):
            win = row_cells[i:i + window]
            if any(c.name in frozen for c in win):
                continue
            left = win[0].x
            right = win[-1].x + win[-1].width
            packed = sum(c.width for c in win)
            if packed > right - left + 1e-9 or blocked(spans[j], left,
                                                       left + packed):
                continue
            orig = [(c.x, c.y) for c in win]
            idx = [c.index for c in win]
            ys = [c.y for c in win]
            best_perm = None
            best_cost = inc.incident_cost(idx)
            for perm in itertools.permutations(range(window)):
                run = left
                for pi in perm:
                    win[pi].x = run
                    run += win[pi].width
                _b, cost = inc.propose(idx, [c.x for c in win], ys)
                inc.rollback()
                if cost + 1e-9 < best_cost:
                    best_cost = cost
                    best_perm = perm
            if best_perm is None:
                for c, (ox, oy) in zip(win, orig):
                    c.x, c.y = ox, oy
            else:
                run = left
                for pi in best_perm:
                    win[pi].x = run
                    run += win[pi].width
                inc.update_cells(idx, [c.x for c in win], ys)
                accepted += 1
                row_cells[i:i + window] = [win[pi] for pi in best_perm]
    return accepted


def _reference_swap_pass(netlist, *, frozen=None, inc, max_candidates=8,
                         max_net_degree=16):
    """The global swap pass with its partner sets rebuilt from
    ``Net.cells()`` on every call."""
    frozen = frozen or set()
    eligible = {c.index: c for c in netlist.movable_cells()
                if c.name not in frozen}
    partners_of = {}
    for net in netlist.nets:
        if net.weight == 0.0 or not 2 <= net.degree <= max_net_degree:
            continue
        members = [c for c in net.cells() if c.index in eligible]
        for ai, a in enumerate(members):
            for b in members[ai + 1:]:
                if (a.width == b.width and a.height == b.height
                        and a is not b):
                    partners_of.setdefault(a.index, set()).add(b.index)
                    partners_of.setdefault(b.index, set()).add(a.index)
    accepted = 0
    for cell in eligible.values():
        ids = partners_of.get(cell.index)
        if not ids:
            continue
        candidates = [eligible[i] for i in sorted(ids)]
        if len(candidates) > max_candidates:
            d2 = np.array([(p.x - cell.x) ** 2 + (p.y - cell.y) ** 2
                           for p in candidates])
            keep = np.argsort(d2, kind="stable")[:max_candidates]
            candidates = [candidates[i] for i in keep]
        for other in candidates:
            cell.x, other.x = other.x, cell.x
            cell.y, other.y = other.y, cell.y
            before, after = inc.propose([cell.index, other.index],
                                        [cell.x, other.x],
                                        [cell.y, other.y])
            if after + 1e-9 < before:
                inc.commit()
                accepted += 1
            else:
                cell.x, other.x = other.x, cell.x
                cell.y, other.y = other.y, cell.y
                inc.rollback()
    return accepted


def _reference_detailed(netlist, region, *, frozen, min_gain,
                        max_passes=3):
    """``detailed_place`` with the reference swap pass."""
    stats = DetailedStats(initial_hpwl=netlist.hpwl(),
                          final_hpwl=netlist.hpwl())
    inc = IncrementalHPWL(netlist)
    for _round in range(max_passes):
        before = stats.final_hpwl
        stats.swaps_accepted += _reference_swap_pass(netlist, frozen=frozen,
                                                     inc=inc)
        stats.reorders_accepted += row_reorder_pass(
            netlist, region, frozen=frozen, inc=inc)
        stats.passes += 1
        stats.final_hpwl = netlist.hpwl()
        if before <= 0 or (before - stats.final_hpwl) / before < min_gain:
            break
    return stats


class TestRowPassEquivalence:
    """The row passes decide exactly as their reference loops do."""

    @pytest.mark.parametrize("name", ["dp_alu16", "ctrl_glue2k"])
    @pytest.mark.parametrize("with_frozen", [False, True])
    def test_swap_partners_built_once_match_per_pass_rebuild(
            self, name, with_frozen):
        # min_gain 0 runs every pass, so the partner map built once is
        # reused by later passes over moved cells
        runs = []
        for place in (detailed_place, _reference_detailed):
            design = _at_gp(name)
            nl, region = design.netlist, design.region
            abacus_legalize(nl, region)
            frozen = {c.name for c in nl.movable_cells()[::7]} \
                if with_frozen else None
            stats = place(nl, region, frozen=frozen, min_gain=0.0)
            runs.append((stats, _positions(nl)))
        assert runs[0][0].passes == 3
        assert runs[0][0].swaps_accepted > 0
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", ["dp_alu16", "ctrl_glue2k"])
    @pytest.mark.parametrize("with_frozen", [False, True])
    def test_reorder_matches_per_permutation_loop(self, name, with_frozen):
        runs = []
        for reorder in (row_reorder_pass, _reference_reorder):
            design = _at_gp(name)
            nl, region = design.netlist, design.region
            abacus_legalize(nl, region)
            frozen = {c.name for c in nl.movable_cells()[::7]} \
                if with_frozen else None
            # a swap pass first, so the shared oracle's bounds come from
            # incremental updates rather than a fresh build
            inc = IncrementalHPWL(nl)
            global_swap_pass(nl, frozen=frozen, inc=inc)
            accepted = reorder(nl, region, frozen=frozen, inc=inc)
            runs.append((accepted, _positions(nl), inc.total))
        assert runs[0][0] > 0
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", ["dp_mul16", "ctrl_glue2k"])
    def test_bounded_abacus_places_as_unbounded(self, name, monkeypatch):
        design = _at_gp(name)
        tracer = Tracer()
        abacus_legalize(design.netlist, design.region, tracer=tracer)
        bounded = _positions(design.netlist)
        walks = tracer.count("legalize.abacus.walks")
        assert 0 < walks < tracer.count("legalize.abacus.trials")

        trial_add = _Segment.trial_add
        monkeypatch.setattr(
            _Segment, "trial_add",
            lambda seg, cell, want, bound=None: trial_add(seg, cell, want))
        design = _at_gp(name)
        abacus_legalize(design.netlist, design.region)
        assert _positions(design.netlist) == bounded


class TestRowPassTelemetry:
    def test_placer_trace_has_row_pass_phases(self):
        design = build_design("dp_alu16")
        tracer = Tracer()
        StructureAwarePlacer().place(design.netlist, design.region,
                                     tracer=tracer)
        for phase in ("legalize.abacus", "detailed.swap",
                      "detailed.reorder"):
            assert tracer.phases(phase), phase
        paths = {e["path"] for e in tracer.phases()}
        assert "place/legalize/legalize.abacus" in paths
        assert "place/detailed/detailed.reorder" in paths
        walks = tracer.count("legalize.abacus.walks")
        assert 0 < walks <= tracer.count("legalize.abacus.trials")
        assert tracer.count("detailed.reorder.windows") > 0
