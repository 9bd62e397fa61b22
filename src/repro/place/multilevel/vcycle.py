"""V-cycle controller for multilevel global placement.

The cycle coarsens the netlist level by level (structure-preserving
clustering + coarse level construction, both on the CSR arrays: only
level 0 has a :class:`~repro.netlist.Netlist`), places the coarsest level
from scratch, then walks back down: interpolate cluster positions to
members and run a short warm-started refinement per finer level.

The GP iteration counter accumulates across levels: the coarsest place
consumes iterations ``1..e``, the next refinement re-enters the loop at
``e`` via ``resume_iteration`` and runs ``refine_iterations`` more, and
so on — the SimPL anchor-weight ramp therefore continues monotonically
down the cycle, so each finer level is refined under progressively
stiffer anchors (small corrections, cheap warm-started CG solves).

Structure hooks: alignment pair forces are projected through the
cluster map onto every level (intra-cluster pairs vanish — slice
formation is the declusterer's job); rigid-group spreading, fusion
reprojection, and the runtime's checkpoint recorder apply only at the
finest level, where the cell indices they were built for are valid.
A recoverable numerical failure anywhere in the cycle falls back to
flat placement (one tracer event + counter, no error escapes).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from typing import TYPE_CHECKING, Callable

from ...errors import NumericalError
from ...runtime.telemetry import Tracer
from ..arrays import PlacementArrays
from ..quadratic import (GlobalPlaceOptions, GlobalPlaceResult,
                         IterationStat, QuadraticPlacer)
from ..region import PlacementRegion
from .clustering import Clustering, cluster_cells
from .coarsen import build_coarse_netlist, interpolate_positions
from .options import MultilevelOptions

if TYPE_CHECKING:
    from ...robust.checkpoint import CheckpointHook
    from ...robust.guards import GuardOptions
    from ..electrostatic import ElectroOptions
    from ..nonlinear import NonlinearOptions


@dataclass
class _Level:
    """One rung of the V-cycle.

    ``clustering`` maps the previous (finer) level's cells to this one;
    ``fine_to_here`` is the composed map from the flat netlist, used to
    project alignment pairs onto this level.  Both are None at level 0.
    """

    arrays: PlacementArrays
    clustering: Clustering | None = None
    fine_to_here: np.ndarray | None = None


def _map_pairs(pairs, mapping: np.ndarray | None):
    """Project fine alignment pairs through a cluster map.

    Pairs that collapse into one cluster are dropped — inside a cluster,
    relative placement is the declusterer's job, not the solver's.
    """
    if pairs is None or len(pairs) == 0 or mapping is None:
        return pairs if mapping is None else None
    out = []
    for ci, cj, w, off in pairs:
        cu = int(mapping[int(ci)])
        cv = int(mapping[int(cj)])
        if cu != cv:
            out.append((cu, cv, float(w), float(off)))
    return out or None


def _build_levels(arrays: PlacementArrays, ml: MultilevelOptions,
                  atomic_groups: list[list[int]] | None,
                  tracer: Tracer) -> list[_Level]:
    levels = [_Level(arrays=arrays)]
    # multi-member clusters are one row tall on every level
    library = arrays.netlist.library if arrays.netlist is not None \
        else None
    if library is not None:
        row_height = library.row_height
    else:
        row_height = float(arrays.height.max()) if arrays.num_cells \
            else 8.0
    current = arrays
    comp: np.ndarray | None = None
    groups_for_level = atomic_groups
    for k in range(1, ml.max_levels + 1):
        n_mov = current.num_movable
        if n_mov <= ml.coarsest_cells:
            break
        target_mov = max(int(np.ceil(ml.cluster_ratio * n_mov)), 16)
        n_fixed = current.num_cells - n_mov
        mov_area = float(current.area[current.movable].sum())
        cap = ml.area_cap_factor * mov_area / max(target_mov, 1)
        clustering = cluster_cells(
            current, target=n_fixed + target_mov, area_cap=cap,
            atomic_groups=groups_for_level,
            max_affinity_degree=ml.max_affinity_degree)
        if clustering.num_clusters >= 0.95 * current.num_cells:
            break                                      # no useful reduction
        coarse = build_coarse_netlist(
            current, clustering, name=f"{arrays.name}__l{k}",
            row_height=row_height)
        comp = clustering.cluster_of if comp is None \
            else clustering.cluster_of[comp]
        levels.append(_Level(arrays=coarse, clustering=clustering,
                             fine_to_here=comp))
        tracer.event("ml_level", level=k, cells=coarse.num_cells,
                     nets=coarse.num_nets, movable=coarse.num_movable)
        current = coarse
        groups_for_level = None
    return levels


def _nl_history(rounds, offset: int) -> list[IterationStat]:
    return [IterationStat(iteration=offset + i + 1, hpwl_lower=h,
                          hpwl_upper=h, overflow=o, elapsed_s=0.0)
            for i, (h, o) in enumerate(rounds)]


def multilevel_place(arrays: PlacementArrays, region: PlacementRegion, *,
                     gp_options: GlobalPlaceOptions | None = None,
                     ml_options: MultilevelOptions | None = None,
                     engine: str = "quadratic",
                     nonlinear_options: NonlinearOptions | None = None,
                     electro_options: ElectroOptions | None = None,
                     extra_pairs_x: list[tuple[int, int, float,
                                               float]] | None = None,
                     extra_pairs_y: list[tuple[int, int, float,
                                               float]] | None = None,
                     groups: np.ndarray | None = None,
                     post_solve: Callable[[np.ndarray, np.ndarray],
                                          None] | None = None,
                     tracer: Tracer | None = None,
                     guard: GuardOptions | None = None,
                     checkpoint: CheckpointHook | None = None,
                     atomic_groups: list[list[int]] | None = None,
                     resume_x: np.ndarray | None = None,
                     resume_y: np.ndarray | None = None,
                     resume_iteration: int = 0) -> GlobalPlaceResult:
    """Run multilevel global placement; drop-in for a flat engine call.

    Args:
        arrays: flattened fine netlist.
        region: placement region (shared by every level).
        gp_options / nonlinear_options: engine knobs; refinement passes
            derive per-level budgets from them.
        ml_options: V-cycle knobs.
        engine: ``"quadratic"``, ``"nonlinear"``, or ``"electro"``
            (the FFT electrostatic spreader — V-cycle refinement runs
            short warm-started Nesterov passes per level).
        extra_pairs_x / extra_pairs_y: fine-level alignment pairs;
            projected through the cluster maps onto every level.
        groups / post_solve / checkpoint: finest-level-only hooks (rigid
            spreading, fusion reprojection, checkpoint recorder).
        atomic_groups: extracted bit-slice cell-index lists (slice
            order); become atomic clusters.
        resume_x / resume_y / resume_iteration: a checkpoint — taken
            during finest-level refinement, so resumption continues flat
            from those positions (coarser levels are already paid for).

    Returns:
        The finest-level result; ``history`` concatenates every level's
        iterations under the accumulated counter.
    """
    tracer = tracer or Tracer()
    gp = gp_options or GlobalPlaceOptions()
    ml = ml_options or MultilevelOptions(enabled=True)

    def place_flat(x0=None, y0=None, resume_it: int = 0,
                   warm_seed: str = "direct") -> GlobalPlaceResult:
        if engine == "nonlinear":
            from ..nonlinear import NonlinearOptions, NonlinearPlacer
            placer = NonlinearPlacer(
                arrays, region,
                options=nonlinear_options or NonlinearOptions(),
                extra_pairs_x=extra_pairs_x, extra_pairs_y=extra_pairs_y,
                guard=guard, checkpoint=checkpoint)
            res = placer.place(x0, y0)
            return GlobalPlaceResult(x=res.x, y=res.y,
                                     history=_nl_history(res.history, 0))
        if engine == "electro":
            from ..electrostatic import ElectroOptions, ElectrostaticPlacer
            placer = ElectrostaticPlacer(
                arrays, region,
                options=electro_options or ElectroOptions(),
                extra_pairs_x=extra_pairs_x, extra_pairs_y=extra_pairs_y,
                guard=guard, checkpoint=checkpoint, tracer=tracer)
            res = placer.place(x0, y0)
            return GlobalPlaceResult(x=res.x, y=res.y,
                                     history=_nl_history(res.history, 0))
        placer = QuadraticPlacer(
            arrays, region, options=gp,
            extra_pairs_x=extra_pairs_x, extra_pairs_y=extra_pairs_y,
            groups=groups, post_solve=post_solve, tracer=tracer,
            guard=guard, checkpoint=checkpoint, warm_seed=warm_seed)
        result = placer.place(x0, y0, resume_iteration=resume_it)
        return result

    if resume_x is not None and resume_iteration > 0:
        # Checkpoints are only recorded at the finest level; the coarse
        # phases are already paid for, so resumption continues flat.
        tracer.event("ml_resume_flat", iteration=resume_iteration)
        return place_flat(resume_x, resume_y, resume_it=resume_iteration,
                          warm_seed="coords")

    try:
        with tracer.phase("multilevel", engine=engine):
            with tracer.phase("ml_coarsen"):
                levels = _build_levels(arrays, ml, atomic_groups, tracer)
            top = len(levels) - 1
            tracer.incr("ml.levels", top)
            if top == 0:
                return place_flat()

            def level_pairs(k: int):
                if k == 0:
                    return extra_pairs_x, extra_pairs_y
                lvl = levels[k]
                return (_map_pairs(extra_pairs_x, lvl.fine_to_here),
                        _map_pairs(extra_pairs_y, lvl.fine_to_here))

            def level_placer(k: int, opts_k, warm_seed: str,
                             preconditioner: str = "jacobi",
                             min_distance: float | None = None):
                px, py = level_pairs(k)
                return QuadraticPlacer(
                    levels[k].arrays, region, options=opts_k,
                    extra_pairs_x=px, extra_pairs_y=py,
                    groups=groups if k == 0 else None,
                    post_solve=post_solve if k == 0 else None,
                    tracer=tracer, guard=guard,
                    checkpoint=checkpoint if k == 0 else None,
                    warm_seed=warm_seed, preconditioner=preconditioner,
                    min_distance=min_distance)

            def nonlinear_place(k: int, x0, y0, offset: int,
                                refining: bool) -> GlobalPlaceResult:
                from ..nonlinear import NonlinearOptions, NonlinearPlacer
                px, py = level_pairs(k)
                nl = nonlinear_options or NonlinearOptions()
                if refining:
                    nl = replace(nl, max_rounds=max(
                        1, int(ml.refine_iterations)))
                placer = NonlinearPlacer(
                    levels[k].arrays, region, options=nl,
                    extra_pairs_x=px, extra_pairs_y=py, guard=guard,
                    checkpoint=checkpoint if k == 0 else None)
                res = placer.place(x0, y0)
                return GlobalPlaceResult(
                    x=res.x, y=res.y,
                    history=_nl_history(res.history, offset))

            def electro_place(k: int, x0, y0, offset: int,
                              refining: bool) -> GlobalPlaceResult:
                from ..electrostatic import (ElectroOptions,
                                             ElectrostaticPlacer)
                px, py = level_pairs(k)
                eo = electro_options or ElectroOptions()
                if refining:
                    # warm start: refine_iterations probe rounds of the
                    # (cheap) Nesterov loop per level
                    eo = replace(eo, max_iterations=max(
                        1, int(ml.refine_iterations)) * eo.overflow_every)
                placer = ElectrostaticPlacer(
                    levels[k].arrays, region, options=eo,
                    extra_pairs_x=px, extra_pairs_y=py, guard=guard,
                    checkpoint=checkpoint if k == 0 else None,
                    tracer=tracer)
                res = placer.place(x0, y0)
                return GlobalPlaceResult(
                    x=res.x, y=res.y,
                    history=_nl_history(res.history, offset))

            # --- coarsest level: full place from scratch ----------------
            with tracer.phase("ml_coarsest", level=top,
                              cells=levels[top].arrays.num_cells):
                if engine == "nonlinear":
                    res = nonlinear_place(top, None, None, 0,
                                          refining=False)
                elif engine == "electro":
                    res = electro_place(top, None, None, 0,
                                        refining=False)
                else:
                    opts_c = replace(gp, max_iterations=min(
                        gp.max_iterations,
                        max(1, int(ml.coarsest_iterations))))
                    res = level_placer(top, opts_c, "direct").place()
            history = list(res.history)
            it = history[-1].iteration if history else 0

            # --- walk down: interpolate + warm-started refinement -------
            refine_n = max(1, int(ml.refine_iterations))
            for k in range(top - 1, -1, -1):
                fine = levels[k]
                clustering = levels[k + 1].clustering
                xk, yk = interpolate_positions(
                    clustering, fine.arrays.width, fine.arrays.height,
                    fine.arrays.area, res.x, res.y)
                x0f, y0f = fine.arrays.initial_positions()
                mv = fine.arrays.movable
                half_w = fine.arrays.width / 2.0
                half_h = fine.arrays.height / 2.0
                x0f[mv] = np.clip(xk[mv], region.x + half_w[mv],
                                  region.x_end - half_w[mv])
                y0f[mv] = np.clip(yk[mv], region.y + half_h[mv],
                                  region.y_top - half_h[mv])
                with tracer.phase("ml_refine", level=k,
                                  cells=fine.arrays.num_cells):
                    if engine == "nonlinear":
                        res = nonlinear_place(k, x0f, y0f, it,
                                              refining=True)
                    elif engine == "electro":
                        res = electro_place(k, x0f, y0f, it,
                                            refining=True)
                    else:
                        # ILU policy: a fresh incomplete factor per
                        # solve (the B2B linearisation drifts between
                        # rounds, so a frozen factor stalls) — cheap
                        # next to the spsolve it replaces.
                        res = level_placer(
                            k, gp, "coords", preconditioner="ilu",
                            min_distance=float(
                                ml.refine_min_distance)).refine(
                            x0f, y0f, iterations=refine_n,
                            start_iteration=it,
                            anchor_iteration=int(
                                ml.refine_anchor_iteration))
                history.extend(res.history)
                it = res.history[-1].iteration if res.history \
                    else it + refine_n
            return GlobalPlaceResult(x=res.x, y=res.y, history=history)
    except (NumericalError, FloatingPointError) as exc:
        tracer.incr("ml.flat_fallbacks")
        tracer.event("multilevel_fallback", error=str(exc),
                     exc_type=type(exc).__name__)
        return place_flat()
