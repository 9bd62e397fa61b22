"""End-to-end placers: structure-aware pipeline and matched baseline.

:class:`StructureAwarePlacer` runs the paper's full flow:

1. extract datapath arrays (:mod:`repro.core.extraction`);
2. plan array geometry (:mod:`repro.core.groups`);
3. global placement with alignment forces and rigid-group spreading
   (:mod:`repro.core.alignment` hooks into either engine);
4. structure-preserving legalization — each bit slice becomes one Abacus
   unit as wide as the slice; glue cells and slice units legalize in one
   Abacus pass, and each unit unpacks its cells in stage order;
5. detailed placement with slice cells frozen.

:class:`BaselinePlacer` is the identical engine with every structure
feature disabled — the controlled comparison the T2/T3 experiments need.
Ablation switches (``use_fusion``, ``use_alignment``,
``structure_legalization``) expose the T5 rows.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import LegalizationError, OptionsError
from ..netlist import Cell, CellType, Netlist
from ..robust.checkpoint import Checkpoint, CheckpointHook
from ..robust.guards import GuardOptions
from ..runtime.telemetry import Tracer
from ..place.abacus import abacus_legalize
from ..place.arrays import PlacementArrays
from ..place.detailed import detailed_place
from ..place.legalize import (blocked, check_legal, row_blockages,
                               rows_spanned, tetris_legalize)
from ..place.electrostatic import ElectroOptions, ElectrostaticPlacer
from ..place.multilevel import MultilevelOptions, multilevel_place
from ..place.nonlinear import NonlinearOptions, NonlinearPlacer
from ..place.quadratic import (GlobalPlaceOptions, IterationStat,
                               QuadraticPlacer)
from ..place.region import PlacementRegion
from .alignment import build_alignment
from .extraction import ExtractionOptions, ExtractionResult, extract_datapaths
from .groups import ArrayPlan, group_ids, make_reprojector, plan_arrays


@dataclass
class PlacerOptions:
    """Configuration shared by both placers.

    Attributes:
        engine: ``"quadratic"`` (default, fast), ``"nonlinear"``, or
            ``"electro"`` (FFT electrostatic spreading with a Nesterov
            gradient loop — the fast choice on large flat designs).
        structure_weight: λ for the alignment forces (structure-aware
            only).
        use_fusion: move arrays through global placement as rigid macros
            (reprojected every solve).  Off by default: elastic alignment
            forces preserve more wirelength freedom; fusion is the
            ablation/strict mode.
        use_alignment: add alignment pair forces to global placement.
        structure_legalization: ``"slices"`` (default — each bit slice
            is one Abacus unit as wide as the slice, legalized in the same
            pass as the glue cells and unpacked in stage order),
            ``"blocks"`` (whole arrays snap to planned row stacks, then
            mirror-optimised; glue legalizes around them), or ``"none"``.
        run_detailed: run detailed placement after legalization.
        gp: global-placement loop knobs.
        multilevel: V-cycle knobs; when ``multilevel.enabled`` the
            global-placement stage coarsens the netlist (extracted
            bit-slice bundles stay atomic), places the coarsest level,
            and refines back down with warm-started solves.  A
            recoverable multilevel failure falls back to flat placement
            inside the engine (tracer event ``multilevel_fallback``).
        nonlinear: knobs for the nonlinear engine (when selected).
        electro: knobs for the electrostatic engine (when selected).
        extraction: extraction knobs (structure-aware only).
        guard: numerical-guard knobs applied to whichever engine runs;
            a tripped guard raises :class:`~repro.errors.NumericalError`
            instead of emitting garbage positions.
        seed: reserved for stochastic components.
    """

    engine: str = "quadratic"
    structure_weight: float = 1.0
    use_fusion: bool = False
    use_alignment: bool = True
    structure_legalization: str = "slices"
    run_detailed: bool = True
    gp: GlobalPlaceOptions = field(default_factory=GlobalPlaceOptions)
    multilevel: MultilevelOptions = field(default_factory=MultilevelOptions)
    nonlinear: NonlinearOptions = field(default_factory=NonlinearOptions)
    electro: ElectroOptions = field(default_factory=ElectroOptions)
    extraction: ExtractionOptions = field(default_factory=ExtractionOptions)
    guard: GuardOptions = field(default_factory=GuardOptions)
    seed: int = 0


@dataclass
class PlaceOutcome:
    """Everything a placement run produced.

    HPWL figures are weighted (clock nets excluded at weight 0).
    """

    placer: str
    design: str
    hpwl_gp: float
    hpwl_legal: float
    hpwl_final: float
    runtime_s: float
    extract_s: float = 0.0
    gp_s: float = 0.0
    legalize_s: float = 0.0
    detailed_s: float = 0.0
    violations: int = 0
    extraction: ExtractionResult | None = None
    gp_history: list[IterationStat] = field(default_factory=list)

    @property
    def legal(self) -> bool:
        return self.violations == 0

    def row(self) -> dict[str, object]:
        return {
            "design": self.design,
            "placer": self.placer,
            "hpwl": round(self.hpwl_final, 1),
            "legal": self.legal,
            "time_s": round(self.runtime_s, 2),
        }


# ----------------------------------------------------------------------
# structure-preserving legalization
# ----------------------------------------------------------------------

def _legalize_rows(netlist: Netlist, region: PlacementRegion, *,
                   cells: list[Cell] | None = None,
                   obstacles: list[Cell] | None = None,
                   units: Sequence[tuple[Cell, list[Cell]]] = ()
                   ) -> list[Cell]:
    """Abacus over ``cells`` (default: every movable cell) plus ``units``,
    then a Tetris retry for whatever Abacus could not place.

    A unit is ``(unit, members)``: a detached one-row cell as wide as its
    members, which the placed unit lays out side by side, in order, from
    its left edge.  A unit Abacus could not place retries as its member
    cells.  The retry routes around every other movable cell, so it never
    overlaps what Abacus placed.

    Returns:
        The members of the units Abacus placed.

    Raises:
        LegalizationError: the retry still left cells unplaced — a silent
            illegal placement is never returned.
    """
    if cells is None:
        cells = netlist.movable_cells()
    result = abacus_legalize(netlist, region,
                             cells=cells + [u for u, _ in units],
                             obstacles=obstacles)
    failed = set(result.failed)
    placed: list[Cell] = []
    for unit, members in units:
        if unit.name in failed:
            continue
        run = unit.x
        for cell in members:
            cell.x, cell.y = run, unit.y
            run += cell.width
        placed.extend(members)
    if failed:
        # units are detached cells, so only their members are in the netlist
        members_of = {c.name: [c] for c in cells}
        members_of.update((u.name, members) for u, members in units)
        retry_cells = [c for name in result.failed for c in members_of[name]]
        retrying = {c.name for c in retry_cells}
        retry = tetris_legalize(
            netlist, region, cells=retry_cells,
            obstacles=[c for c in netlist.movable_cells()
                       if c.name not in retrying])
        if retry.failed:
            raise LegalizationError(
                f"{len(retry.failed)} cells could not be legalized "
                "(Abacus and Tetris both failed)",
                design=netlist.name, cells=list(retry.failed))
    return placed


def legalize_structured(netlist: Netlist, region: PlacementRegion,
                        plans: list[ArrayPlan], *,
                        search_step: float = 4.0) -> list:
    """Snap planned arrays to legal row stacks; returns the array cells
    (now positioned) to be used as obstacles for glue legalization.

    Arrays are processed largest-first; each is placed at the snapped
    position nearest its global-placement centroid that does not collide
    with the row model's blocked spans (fixed cells inside the core),
    already-placed arrays or the core boundary (expanding ring search).
    """
    rows = row_blockages(netlist, region)

    def fits(x0: float, y0: float, width: float, height: float) -> bool:
        if (x0 < region.x - 1e-6 or x0 + width > region.x_end + 1e-6
                or y0 < region.y - 1e-6
                or y0 + height > region.y_top + 1e-6):
            return False
        return not any(blocked(rows[r], x0, x0 + width)
                       for r in rows_spanned(region, y0, height))

    placed_cells = []
    for plan in sorted(plans, key=lambda p: -p.area):
        cells = plan.cells()
        if not cells:
            continue
        # desired origin from current (GP) positions
        ox = float(np.mean([c.x - plan.offsets[c.index][0] for c in cells]))
        oy = float(np.mean([c.y - plan.offsets[c.index][1] for c in cells]))
        # snap to site/row grid and clamp inside the core
        ox = region.x + round((ox - region.x) / region.site_width) \
            * region.site_width
        oy = region.y + round((oy - region.y) / region.row_height) \
            * region.row_height
        ox = min(max(ox, region.x), region.x_end - plan.width)
        oy = min(max(oy, region.y), region.y_top - plan.height)
        oy = region.y + round((oy - region.y) / region.row_height) \
            * region.row_height

        chosen: tuple[float, float] | None = None
        max_ring = max(region.num_rows,
                       int(region.width / search_step)) + 1
        for ring in range(max_ring):
            candidates: list[tuple[float, float]] = []
            if ring == 0:
                candidates.append((ox, oy))
            else:
                dy = ring * region.row_height
                dx = ring * search_step
                for k in range(-ring, ring + 1):
                    candidates.append((ox + k * search_step, oy + dy))
                    candidates.append((ox + k * search_step, oy - dy))
                    candidates.append((ox + dx, oy + k * region.row_height))
                    candidates.append((ox - dx, oy + k * region.row_height))
            for cx, cy in candidates:
                cx = min(max(cx, region.x), region.x_end - plan.width)
                cy = min(max(cy, region.y), region.y_top - plan.height)
                cx = region.x + round((cx - region.x) / region.site_width) \
                    * region.site_width
                cy = region.y + round((cy - region.y) / region.row_height) \
                    * region.row_height
                if fits(cx, cy, plan.width, plan.height):
                    chosen = (cx, cy)
                    break
            if chosen is not None:
                break
        if chosen is None:
            # give up on structural snapping for this array; its cells
            # will legalize as ordinary glue
            plan.placed_origin = None
            continue
        cx, cy = chosen
        for r in rows_spanned(region, cy, plan.height):
            bisect.insort(rows[r], (cx, cx + plan.width))
        plan.placed_origin = (cx, cy)
        for cell in cells:
            dx, dy = plan.offsets[cell.index]
            cell.x = cx + dx
            cell.y = cy + dy
            placed_cells.append(cell)
    return placed_cells


def legalize_slices(netlist: Netlist, region: PlacementRegion,
                    plans: list[ArrayPlan]) -> list[Cell]:
    """Slice-level structure-preserving legalization.

    Gentler than whole-array block snapping: each bit slice becomes one
    Abacus unit, a cell one row high and as wide as the slice, that wants
    the slice's global-placement centroid.  Glue cells and slice units
    legalize together in one Abacus pass, and each placed unit unpacks
    its cells contiguously in stage order.  Array formation (slices on
    adjacent rows, stages aligned) is whatever the alignment forces
    achieved during global placement; legalization preserves it without
    imposing it, which keeps displacement (and therefore HPWL damage)
    small.

    Returns:
        The cells of the slices placed as units — the set detailed
        placement freezes.  A unit that fits nowhere is legalized cell by
        cell instead, and its cells are not returned.
    """
    slices = [s for plan in plans for s in plan.array.slices if s]
    units = []
    for k, members in enumerate(slices):
        width = sum(c.width for c in members)
        unit = Cell(f"slice unit {k}",
                    CellType("slice unit", width, region.row_height, ()),
                    x=float(np.mean([c.x for c in members])) - width / 2.0,
                    y=float(np.mean([c.center_y for c in members]))
                    - region.row_height / 2.0)
        units.append((unit, members))
    in_slice = {c.name for s in slices for c in s}
    glue = [c for c in netlist.movable_cells() if c.name not in in_slice]
    return _legalize_rows(netlist, region, cells=glue, units=units)


def optimize_flips(netlist: Netlist, plans: list[ArrayPlan], *,
                   passes: int = 2) -> int:
    """Mirror placed arrays (x, y, or both) when it shortens wirelength.

    Flipping happens inside each array's own placed bounding box, so
    legality is unaffected; only nets incident to the array change.  This
    mirrors the macro-orientation optimization of the authors' mixed-size
    placement work, restricted to the reflections a row-based layout
    allows (no 90-degree rotations).

    Returns:
        The number of flips applied.
    """
    applied = 0
    placed = [p for p in plans if p.placed_origin is not None]
    for _ in range(passes):
        improved = False
        for plan in placed:
            cells = plan.cells()
            ox, oy = plan.placed_origin
            nets = []
            seen: set[int] = set()
            for cell in cells:
                for net in netlist.nets_of(cell):
                    if net.index not in seen and net.degree >= 2 \
                            and net.weight > 0:
                        seen.add(net.index)
                        nets.append(net)

            def incident() -> float:
                return sum(net.weight * net.hpwl() for net in nets)

            def apply(flip_x: bool, flip_y: bool) -> None:
                for cell in cells:
                    dx, dy = plan.offsets[cell.index]
                    if flip_x:
                        dx = plan.width - dx - cell.width
                    if flip_y:
                        dy = plan.height - dy - cell.height
                    cell.x = ox + dx
                    cell.y = oy + dy

            best = (incident(), False, False)
            for fx, fy in ((True, False), (False, True), (True, True)):
                apply(fx, fy)
                cost = incident()
                if cost + 1e-9 < best[0]:
                    best = (cost, fx, fy)
            _cost, fx, fy = best
            apply(fx, fy)
            if fx or fy:
                # bake the flip into the plan so later passes and frozen
                # detailed placement see consistent offsets
                for cell in cells:
                    plan.offsets[cell.index] = (cell.x - ox, cell.y - oy)
                applied += 1
                improved = True
        if not improved:
            break
    return applied


# ----------------------------------------------------------------------
# placers
# ----------------------------------------------------------------------

def _run_engine(arrays: PlacementArrays, region: PlacementRegion,
                options: PlacerOptions, forces, groups, post_solve=None,
                tracer: Tracer | None = None, checkpoint=None,
                resume=None, atomic_groups=None):
    resume_x = resume_y = None
    resume_iteration = 0
    if resume is not None and resume.matches(arrays.num_cells):
        resume_x, resume_y = resume.x, resume.y
        resume_iteration = resume.iteration
    if options.multilevel.enabled:
        result = multilevel_place(
            arrays, region,
            gp_options=options.gp, ml_options=options.multilevel,
            engine=options.engine, nonlinear_options=options.nonlinear,
            electro_options=options.electro,
            extra_pairs_x=forces.pairs_x if forces else None,
            extra_pairs_y=forces.pairs_y if forces else None,
            groups=groups, post_solve=post_solve, tracer=tracer,
            guard=options.guard, checkpoint=checkpoint,
            atomic_groups=atomic_groups,
            resume_x=resume_x, resume_y=resume_y,
            resume_iteration=resume_iteration)
        return result.x, result.y, result.history
    if options.engine == "quadratic":
        placer = QuadraticPlacer(
            arrays, region, options=options.gp,
            extra_pairs_x=forces.pairs_x if forces else None,
            extra_pairs_y=forces.pairs_y if forces else None,
            groups=groups, post_solve=post_solve, tracer=tracer,
            guard=options.guard, checkpoint=checkpoint)
        result = placer.place(resume_x, resume_y,
                              resume_iteration=resume_iteration)
        return result.x, result.y, result.history
    if options.engine == "nonlinear":
        placer = NonlinearPlacer(
            arrays, region, options=options.nonlinear,
            extra_pairs_x=forces.pairs_x if forces else None,
            extra_pairs_y=forces.pairs_y if forces else None,
            guard=options.guard, checkpoint=checkpoint)
        result = placer.place(resume_x, resume_y)
        history = [IterationStat(iteration=i + 1, hpwl_lower=h,
                                 hpwl_upper=h, overflow=o, elapsed_s=0.0)
                   for i, (h, o) in enumerate(result.history)]
        return result.x, result.y, history
    if options.engine == "electro":
        placer = ElectrostaticPlacer(
            arrays, region, options=options.electro,
            extra_pairs_x=forces.pairs_x if forces else None,
            extra_pairs_y=forces.pairs_y if forces else None,
            guard=options.guard, checkpoint=checkpoint, tracer=tracer)
        result = placer.place(resume_x, resume_y)
        history = [IterationStat(iteration=i + 1, hpwl_lower=h,
                                 hpwl_upper=h, overflow=o, elapsed_s=0.0)
                   for i, (h, o) in enumerate(result.history)]
        return result.x, result.y, history
    raise OptionsError(f"unknown engine {options.engine!r}")


class StructureAwarePlacer:
    """The paper's placer: extraction + alignment + structured legalization.

    Args:
        options: pipeline configuration; ablation switches included.
    """

    name = "structure-aware"

    def __init__(self, options: PlacerOptions | None = None) -> None:
        self.options = options or PlacerOptions()

    def place(self, netlist: Netlist, region: PlacementRegion, *,
              tracer: Tracer | None = None,
              checkpoint: CheckpointHook | None = None,
              resume: Checkpoint | None = None) -> PlaceOutcome:
        """Place the netlist in-place and return the outcome record.

        Args:
            netlist: the design; cell positions are mutated.
            region: placement region.
            tracer: telemetry hook — every stage runs under a nested
                phase (``extract``/``global_place``/``legalize``/
                ``detailed``) and all reported ``*_s`` figures come from
                its clock.
            checkpoint: optional ``(iteration, x, y)`` hook the
                global-placement engine calls once per outer iteration
                (the runtime's checkpoint recorder).
            resume: optional :class:`~repro.robust.checkpoint.Checkpoint`
                — global placement re-enters its loop from these
                positions instead of cold-starting (extraction is
                recomputed either way; it is deterministic and cheap
                relative to the loop).

        Raises:
            NumericalError: a numerical guard tripped during global
                placement.
            LegalizationError: cells remained unplaced after both the
                Abacus and Tetris passes.
        """
        opts = self.options
        tracer = tracer or Tracer()
        with tracer.phase("place", placer=self.name,
                          design=netlist.name) as ph_all:
            extraction = extract_datapaths(netlist, opts.extraction,
                                           tracer=tracer)

            with tracer.phase("global_place", engine=opts.engine) as ph_gp:
                plans = plan_arrays(extraction.arrays, region)
                arrays = PlacementArrays.build(netlist)
                forces = build_alignment(
                    plans, arrays,
                    structure_weight=opts.structure_weight) \
                    if opts.use_alignment else None
                groups = group_ids(plans, arrays.num_cells) \
                    if opts.use_fusion else None
                post_solve = make_reprojector(plans, arrays, region) \
                    if opts.use_fusion and plans else None
                # extracted bit slices become atomic multilevel clusters
                atomic_groups = [[c.index for c in s]
                                 for plan in plans
                                 for s in plan.array.slices
                                 if len(s) >= 2] \
                    if opts.multilevel.enabled else None

                x, y, history = _run_engine(arrays, region, opts, forces,
                                            groups, post_solve,
                                            tracer=tracer,
                                            checkpoint=checkpoint,
                                            resume=resume,
                                            atomic_groups=atomic_groups)
                arrays.write_back(x, y)
                hpwl_gp = netlist.hpwl()

            with tracer.phase(
                    "legalize",
                    mode=opts.structure_legalization) as ph_legal:
                frozen: set[str] = set()
                if opts.structure_legalization == "none" or not plans:
                    _legalize_rows(netlist, region)
                elif opts.structure_legalization == "slices":
                    frozen = {c.name for c in
                              legalize_slices(netlist, region, plans)}
                elif opts.structure_legalization == "blocks":
                    obstacles = legalize_structured(netlist, region, plans)
                    frozen = {c.name for c in obstacles}
                    _legalize_rows(netlist, region,
                                   cells=[c for c in netlist.movable_cells()
                                          if c.name not in frozen],
                                   obstacles=obstacles)
                    optimize_flips(netlist, plans)
                else:
                    raise OptionsError(
                        "structure_legalization must be 'slices',"
                        " 'blocks', or 'none'")
                hpwl_legal = netlist.hpwl()

            with tracer.phase("detailed",
                              enabled=opts.run_detailed) as ph_detail:
                if opts.run_detailed:
                    detailed_place(netlist, region, frozen=frozen)
                hpwl_final = netlist.hpwl()

        return PlaceOutcome(
            placer=self.name,
            design=netlist.name,
            hpwl_gp=hpwl_gp,
            hpwl_legal=hpwl_legal,
            hpwl_final=hpwl_final,
            runtime_s=ph_all.elapsed_s,
            extract_s=extraction.elapsed_s,
            gp_s=ph_gp.elapsed_s,
            legalize_s=ph_legal.elapsed_s,
            detailed_s=ph_detail.elapsed_s,
            violations=len(check_legal(netlist, region)),
            extraction=extraction,
            gp_history=history,
        )


class BaselinePlacer:
    """The identical engine with all structure features off."""

    name = "baseline"

    def __init__(self, options: PlacerOptions | None = None) -> None:
        # every other field carries over, so a structure/baseline pair
        # differs only in the structure switches
        self.options = replace(
            options or PlacerOptions(),
            structure_weight=0.0,
            use_fusion=False,
            use_alignment=False,
            structure_legalization="none",
        )

    def place(self, netlist: Netlist, region: PlacementRegion, *,
              tracer: Tracer | None = None,
              checkpoint: CheckpointHook | None = None,
              resume: Checkpoint | None = None) -> PlaceOutcome:
        opts = self.options
        tracer = tracer or Tracer()
        with tracer.phase("place", placer=self.name,
                          design=netlist.name) as ph_all:
            # zero-work stage, emitted anyway so traces have a uniform
            # phase schema across placers
            with tracer.phase("extract", enabled=False):
                pass
            with tracer.phase("global_place", engine=opts.engine) as ph_gp:
                arrays = PlacementArrays.build(netlist)
                x, y, history = _run_engine(arrays, region, opts, None,
                                            None, tracer=tracer,
                                            checkpoint=checkpoint,
                                            resume=resume)
                arrays.write_back(x, y)
                hpwl_gp = netlist.hpwl()
            with tracer.phase("legalize", mode="none") as ph_legal:
                _legalize_rows(netlist, region)
                hpwl_legal = netlist.hpwl()
            with tracer.phase("detailed",
                              enabled=opts.run_detailed) as ph_detail:
                if opts.run_detailed:
                    detailed_place(netlist, region)
                hpwl_final = netlist.hpwl()
        return PlaceOutcome(
            placer=self.name,
            design=netlist.name,
            hpwl_gp=hpwl_gp,
            hpwl_legal=hpwl_legal,
            hpwl_final=hpwl_final,
            runtime_s=ph_all.elapsed_s,
            gp_s=ph_gp.elapsed_s,
            legalize_s=ph_legal.elapsed_s,
            detailed_s=ph_detail.elapsed_s,
            violations=len(check_legal(netlist, region)),
            gp_history=history,
        )
