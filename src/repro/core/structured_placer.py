"""End-to-end placers: structure-aware pipeline and matched baseline.

:class:`StructureAwarePlacer` runs the paper's full flow:

1. extract datapath arrays (:mod:`repro.core.extraction`);
2. plan array geometry (:mod:`repro.core.groups`);
3. global placement with alignment forces and rigid-group spreading
   (:mod:`repro.core.alignment` hooks into either engine);
4. structure-preserving legalization — arrays snap to row stacks first and
   become obstacles, glue legalizes around them (Abacus);
5. detailed placement with array cells frozen.

:class:`BaselinePlacer` is the identical engine with every structure
feature disabled — the controlled comparison the T2/T3 experiments need.
Ablation switches (``use_fusion``, ``use_alignment``,
``structure_legalization``) expose the T5 rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import LegalizationError, OptionsError
from ..netlist import Netlist
from ..robust.checkpoint import Checkpoint, CheckpointHook
from ..robust.guards import GuardOptions
from ..runtime.telemetry import Tracer
from ..place.abacus import abacus_legalize
from ..place.arrays import PlacementArrays
from ..place.detailed import detailed_place
from ..place.legalize import check_legal, tetris_legalize
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
            legalizes as a contiguous row unit), ``"blocks"`` (whole
            arrays snap to planned row stacks, then mirror-optimised), or
            ``"none"``.
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

class _Occupancy:
    """Per-row interval occupancy for array block placement."""

    def __init__(self, region: PlacementRegion):
        self.region = region
        self.rows: list[list[tuple[float, float]]] = \
            [[] for _ in region.rows]

    def _rows_spanned(self, y0: float, height: float) -> tuple[int, int]:
        r0 = int(round((y0 - self.region.y) / self.region.row_height))
        r1 = r0 + max(1, int(round(height / self.region.row_height))) - 1
        return r0, r1

    def fits(self, x0: float, y0: float, width: float, height: float
             ) -> bool:
        region = self.region
        if (x0 < region.x - 1e-6 or x0 + width > region.x_end + 1e-6
                or y0 < region.y - 1e-6
                or y0 + height > region.y_top + 1e-6):
            return False
        r0, r1 = self._rows_spanned(y0, height)
        if r0 < 0 or r1 >= region.num_rows:
            return False
        for r in range(r0, r1 + 1):
            for (a, b) in self.rows[r]:
                if x0 < b and a < x0 + width:
                    return False
        return True

    def add(self, x0: float, y0: float, width: float, height: float
            ) -> None:
        r0, r1 = self._rows_spanned(y0, height)
        for r in range(max(r0, 0), min(r1, self.region.num_rows - 1) + 1):
            self.rows[r].append((x0, x0 + width))
            self.rows[r].sort()


def legalize_structured(netlist: Netlist, region: PlacementRegion,
                        plans: list[ArrayPlan], *,
                        search_step: float = 4.0) -> list:
    """Snap planned arrays to legal row stacks; returns the array cells
    (now positioned) to be used as obstacles for glue legalization.

    Arrays are processed largest-first; each is placed at the snapped
    position nearest its global-placement centroid that does not collide
    with already-placed arrays or the core boundary (expanding ring
    search).
    """
    occupancy = _Occupancy(region)
    # fixed cells inside the core also block array placement
    for cell in netlist.fixed_cells():
        if (cell.x < region.x_end and cell.x + cell.width > region.x
                and cell.y < region.y_top
                and cell.y + cell.height > region.y):
            occupancy.add(cell.x, cell.y, cell.width, cell.height)

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
            found = False
            for cx, cy in candidates:
                cx = min(max(cx, region.x), region.x_end - plan.width)
                cy = min(max(cy, region.y), region.y_top - plan.height)
                cx = region.x + round((cx - region.x) / region.site_width) \
                    * region.site_width
                cy = region.y + round((cy - region.y) / region.row_height) \
                    * region.row_height
                if occupancy.fits(cx, cy, plan.width, plan.height):
                    chosen = (cx, cy)
                    found = True
                    break
            if found:
                break
        if chosen is None:
            # give up on structural snapping for this array; its cells
            # will legalize as ordinary glue
            plan.placed_origin = None
            continue
        cx, cy = chosen
        occupancy.add(cx, cy, plan.width, plan.height)
        plan.placed_origin = (cx, cy)
        for cell in cells:
            dx, dy = plan.offsets[cell.index]
            cell.x = cx + dx
            cell.y = cy + dy
            placed_cells.append(cell)
    return placed_cells


def legalize_slices(netlist: Netlist, region: PlacementRegion,
                    plans: list[ArrayPlan], *,
                    row_search_span: int = 8) -> list:
    """Slice-level structure-preserving legalization.

    Gentler than whole-array block snapping: each bit slice is legalized
    as one unit — its cells packed contiguously in stage order in a single
    row near the slice's global-placement centroid.  Array formation
    (slices on adjacent rows, stages aligned) is whatever the alignment
    forces achieved during global placement; legalization preserves it
    without imposing it, which keeps displacement (and therefore HPWL
    damage) small.

    Returns the placed slice cells, to be treated as obstacles while glue
    legalizes around them.
    """
    from ..place.legalize import _RowState

    rows = [_RowState(y=r.y, x0=r.x, x1=r.x_end, site=r.site_width)
            for r in region.rows]
    for cell in netlist.fixed_cells():
        if (cell.x < region.x_end and cell.x + cell.width > region.x
                and cell.y < region.y_top
                and cell.y + cell.height > region.y):
            j0 = max(int((cell.y - region.y) // region.row_height), 0)
            j1 = min(int(np.ceil((cell.y + cell.height - region.y)
                                 / region.row_height)) - 1,
                     region.num_rows - 1)
            for j in range(j0, j1 + 1):
                a = max(cell.x, rows[j].x0)
                b = min(cell.x + cell.width, rows[j].x1)
                if b > a:
                    rows[j].insert(a, b - a)

    slices: list[list] = []
    for plan in plans:
        slices.extend(s for s in plan.array.slices if s)
    # sort by centroid x (Tetris order over slice units)
    slices.sort(key=lambda s: float(np.mean([c.x for c in s])))

    placed = []
    for slice_cells in slices:
        width = sum(c.width for c in slice_cells)
        want_x = float(np.mean([c.x for c in slice_cells])) - width / 2.0
        want_y = float(np.mean([c.center_y for c in slice_cells]))
        base = region.nearest_row(want_y).index
        best: tuple[float, int, float] | None = None
        span = row_search_span
        while best is None and span <= 4 * max(region.num_rows,
                                               row_search_span):
            for dj in range(-span, span + 1):
                j = base + dj
                if j < 0 or j >= len(rows):
                    continue
                x = rows[j].first_fit(want_x, width)
                if x is None:
                    continue
                dy = abs(rows[j].y + region.row_height / 2.0 - want_y)
                cost = abs(x - want_x) + dy
                if best is None or cost < best[0]:
                    best = (cost, j, x)
            span *= 2
        if best is None:
            continue  # pathological: cells fall through to glue pass
        _cost, j, x = best
        rows[j].insert(x, width)
        run = x
        for cell in slice_cells:
            cell.x = run
            cell.y = rows[j].y
            run += cell.width
            placed.append(cell)
    return placed


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

def _require_all_placed(result, netlist: Netlist) -> None:
    """Raise :class:`LegalizationError` if the fallback Tetris pass still
    left cells unplaced — a silent illegal placement is never returned."""
    if result.failed:
        raise LegalizationError(
            f"{len(result.failed)} cells could not be legalized "
            "(Abacus and Tetris both failed)",
            design=netlist.name, cells=list(result.failed))


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
                if opts.structure_legalization != "none" and plans:
                    if opts.structure_legalization == "blocks":
                        obstacles = legalize_structured(netlist, region,
                                                        plans)
                    elif opts.structure_legalization == "slices":
                        obstacles = legalize_slices(netlist, region, plans)
                    else:
                        raise OptionsError(
                            "structure_legalization must be 'slices',"
                            " 'blocks', or 'none'")
                    frozen = {c.name for c in obstacles}
                    glue = [c for c in netlist.movable_cells()
                            if c.name not in frozen]
                    result = abacus_legalize(netlist, region, cells=glue,
                                             obstacles=obstacles)
                    if result.failed:
                        retry = tetris_legalize(
                            netlist, region,
                            cells=[netlist.cell(n) for n in result.failed],
                            obstacles=obstacles)
                        _require_all_placed(retry, netlist)
                    if opts.structure_legalization == "blocks":
                        optimize_flips(netlist, plans)
                else:
                    frozen = set()
                    result = abacus_legalize(netlist, region)
                    if result.failed:
                        retry = tetris_legalize(netlist, region,
                                                cells=[netlist.cell(n)
                                                       for n in
                                                       result.failed])
                        _require_all_placed(retry, netlist)
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
                result = abacus_legalize(netlist, region)
                if result.failed:
                    retry = tetris_legalize(netlist, region,
                                            cells=[netlist.cell(n)
                                                   for n in result.failed])
                    _require_all_placed(retry, netlist)
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
