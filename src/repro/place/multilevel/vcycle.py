"""V-cycle controller for multilevel global placement.

The cycle coarsens the netlist level by level (structure-preserving
clustering + coarse level construction, both on the CSR arrays: only
level 0 has a :class:`~repro.netlist.Netlist`), places the coarsest level
from scratch, then walks back down: interpolate cluster positions to
members and refine each finer level from that warm start.  Every level
runs the electrostatic engine.

Refinement budgets: each coarse level runs ``refine_iterations *
overflow_every`` Nesterov iterations, and the finest level runs under
the caller's :class:`~repro.place.electrostatic.ElectroOptions` — up to
``max_iterations``, stopping at ``target_overflow`` — as a flat run
does, so global placement hands legalization a spread placement.

The GP iteration counter accumulates across levels: the coarsest place
consumes iterations ``1..e``, the next refinement numbers its Nesterov
iterations from ``e``, and so on.

Structure hooks: alignment pair forces are projected through the
cluster map onto every level (intra-cluster pairs vanish — slice
formation is the declusterer's job); the runtime's job hook (heartbeat,
cancel, snapshots) applies only at the finest level, where the cell
indices it was built for are valid.
A recoverable numerical failure anywhere in the cycle falls back to
flat placement (one tracer event + counter, no error escapes).

:func:`place_flat` is the one flat-engine dispatch: a flat placement,
the cycle's fallback and its checkpoint resume all go through it, and
this module is the only one that branches on the engine name.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from typing import TYPE_CHECKING, Callable

from ...errors import NumericalError, OptionsError
from ...runtime.telemetry import Tracer
from ..arrays import PlacementArrays
from ..electrostatic import ElectroOptions, ElectrostaticPlacer
from ..quadratic import (GlobalPlaceOptions, GlobalPlaceResult,
                         IterationStat, QuadraticPlacer)
from ..region import PlacementRegion
from .clustering import Clustering, cluster_cells
from .coarsen import build_coarse_netlist, interpolate_positions
from .options import MultilevelOptions

if TYPE_CHECKING:
    from ...robust.checkpoint import CheckpointHook
    from ...robust.guards import GuardOptions

#: The global-placement engines: ``"quadratic"`` (B2B + SimPL anchors)
#: and ``"electro"`` (ePlace FFT electrostatics + Nesterov).
ENGINES = ("quadratic", "electro")


def check_engine(engine: str) -> None:
    """Raise :class:`~repro.errors.OptionsError` unless ``engine`` is one
    of :data:`ENGINES`."""
    if engine not in ENGINES:
        raise OptionsError(
            f"unknown engine {engine!r}; expected one of "
            f"{', '.join(ENGINES)}", option="engine")


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


def _electro_history(probes: list[tuple[int, float, float]],
                     offset: int) -> list[IterationStat]:
    """Electro's ``(iteration, hpwl, overflow)`` probes as iteration
    records, numbered by Nesterov iteration from ``offset``."""
    return [IterationStat(iteration=offset + i, hpwl_lower=h,
                          hpwl_upper=h, overflow=o, elapsed_s=0.0)
            for i, h, o in probes]


def _shifted(hook: CheckpointHook | None,
             offset: int) -> CheckpointHook | None:
    """``hook`` numbering iterations from ``offset``, as the records of
    the same level are."""
    if hook is None or offset == 0:
        return hook
    return lambda it, x, y: hook(offset + it, x, y)


def place_flat(arrays: PlacementArrays, region: PlacementRegion, *,
               engine: str = "quadratic",
               gp_options: GlobalPlaceOptions | None = None,
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
               x0: np.ndarray | None = None,
               y0: np.ndarray | None = None,
               resume_iteration: int = 0) -> GlobalPlaceResult:
    """One flat global placement with the named engine.

    Args:
        arrays / region: the design and its placement region.
        engine: one of :data:`ENGINES`.
        gp_options / electro_options: the engine's knobs.
        extra_pairs_x / extra_pairs_y: alignment pair forces.
        groups / post_solve: rigid-group spreading and fusion
            reprojection (the quadratic engine only).
        checkpoint: the runtime's per-iteration job hook.
        x0 / y0: start positions (default: the engine's own start).
        resume_iteration: the quadratic engine re-enters its loop at
            this iteration.

    Raises:
        OptionsError: ``engine`` is not one of :data:`ENGINES`.
    """
    check_engine(engine)
    if engine == "electro":
        placer = ElectrostaticPlacer(
            arrays, region, options=electro_options or ElectroOptions(),
            extra_pairs_x=extra_pairs_x, extra_pairs_y=extra_pairs_y,
            guard=guard, checkpoint=checkpoint, tracer=tracer)
        res = placer.place(x0, y0)
        return GlobalPlaceResult(x=res.x, y=res.y,
                                 history=_electro_history(res.history, 0))
    placer = QuadraticPlacer(
        arrays, region, options=gp_options,
        extra_pairs_x=extra_pairs_x, extra_pairs_y=extra_pairs_y,
        groups=groups, post_solve=post_solve, tracer=tracer,
        guard=guard, checkpoint=checkpoint)
    return placer.place(x0, y0, resume_iteration=resume_iteration)


def multilevel_place(arrays: PlacementArrays, region: PlacementRegion, *,
                     ml_options: MultilevelOptions | None = None,
                     electro_options: ElectroOptions | None = None,
                     extra_pairs_x: list[tuple[int, int, float,
                                               float]] | None = None,
                     extra_pairs_y: list[tuple[int, int, float,
                                               float]] | None = None,
                     tracer: Tracer | None = None,
                     guard: GuardOptions | None = None,
                     checkpoint: CheckpointHook | None = None,
                     atomic_groups: list[list[int]] | None = None,
                     resume_x: np.ndarray | None = None,
                     resume_y: np.ndarray | None = None,
                     resume_iteration: int = 0) -> GlobalPlaceResult:
    """Run multilevel electrostatic global placement; drop-in for a
    flat electro call.

    Args:
        arrays: flattened fine netlist.
        region: placement region (shared by every level).
        ml_options: V-cycle knobs.
        electro_options: engine knobs; short warm-started Nesterov
            passes refine each coarse level, and the finest level runs
            them in full (to ``target_overflow``).
        extra_pairs_x / extra_pairs_y: fine-level alignment pairs;
            projected through the cluster maps onto every level.
        checkpoint: the job hook, finest level only.
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
    ml = ml_options or MultilevelOptions(enabled=True)
    eo_full = electro_options or ElectroOptions()
    flat = functools.partial(
        place_flat, arrays, region, engine="electro",
        electro_options=eo_full, extra_pairs_x=extra_pairs_x,
        extra_pairs_y=extra_pairs_y, tracer=tracer, guard=guard,
        checkpoint=checkpoint)

    if resume_x is not None and resume_iteration > 0:
        # Checkpoints are only recorded at the finest level; the coarse
        # phases are already paid for, so resumption continues flat.
        tracer.event("ml_resume_flat", iteration=resume_iteration)
        return flat(x0=resume_x, y0=resume_y)

    try:
        with tracer.phase("multilevel"):
            with tracer.phase("ml_coarsen"):
                levels = _build_levels(arrays, ml, atomic_groups, tracer)
            top = len(levels) - 1
            tracer.incr("ml.levels", top)
            if top == 0:
                return flat()

            # coarse levels refine for refine_iterations probe rounds of
            # the (cheap) Nesterov loop; the finest runs the caller's
            # budget to the target overflow, as a flat run does
            refine_n = max(1, int(ml.refine_iterations))
            eo_refine = replace(
                eo_full, max_iterations=refine_n * eo_full.overflow_every)

            def electro_place(k: int, x0, y0, offset: int,
                              options: ElectroOptions) -> GlobalPlaceResult:
                lvl = levels[k]
                if k == 0:
                    px, py = extra_pairs_x, extra_pairs_y
                else:
                    px = _map_pairs(extra_pairs_x, lvl.fine_to_here)
                    py = _map_pairs(extra_pairs_y, lvl.fine_to_here)
                placer = ElectrostaticPlacer(
                    lvl.arrays, region, options=options,
                    extra_pairs_x=px, extra_pairs_y=py, guard=guard,
                    checkpoint=_shifted(checkpoint, offset) if k == 0
                    else None,
                    tracer=tracer)
                res = placer.place(x0, y0)
                return GlobalPlaceResult(
                    x=res.x, y=res.y,
                    history=_electro_history(res.history, offset))

            # --- coarsest level: full place from scratch ----------------
            with tracer.phase("ml_coarsest", level=top,
                              cells=levels[top].arrays.num_cells):
                res = electro_place(top, None, None, 0, eo_full)
            history = list(res.history)
            it = history[-1].iteration if history else 0

            # --- walk down: interpolate + warm-started refinement -------
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
                    res = electro_place(k, x0f, y0f, it,
                                        eo_full if k == 0 else eo_refine)
                history.extend(res.history)
                it = res.history[-1].iteration if res.history \
                    else it + refine_n
            return GlobalPlaceResult(x=res.x, y=res.y, history=history)
    except (NumericalError, FloatingPointError) as exc:
        tracer.incr("ml.flat_fallbacks")
        tracer.event("multilevel_fallback", error=str(exc),
                     exc_type=type(exc).__name__)
        return flat()
