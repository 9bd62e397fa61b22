"""SimPL-style quadratic global placement.

The loop alternates:

1. **Lower bound** — solve the B2B quadratic system (wirelength-optimal,
   overlapping placement), with anchor pseudo-nets pulling toward the last
   spread solution.
2. **Upper bound** — spread the lower-bound solution with recursive
   bisection (:func:`repro.place.spreading.spread_positions`).

Anchor weight grows linearly with iteration, so the two sequences converge
toward each other; iteration stops when bin overflow drops under the
target or the iteration budget is exhausted.  This is the SimPL scheme
(Kim, Lee, Markov) with the bound-to-bound model of Kraftwerk2.

Structure hooks: callers may supply ``extra_pairs_x/y`` (explicit quadratic
couplings — used by the datapath alignment model) and ``groups`` (rigid
group ids — used to spread fused slices as units).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..robust.checkpoint import CheckpointHook
from ..robust.guards import GuardedSolve, GuardOptions, IterateGuard
from ..runtime.telemetry import Tracer
from .arrays import PlacementArrays
from .b2b import B2BBuilder
from .density import overflow
from .region import BinGrid, PlacementRegion, default_grid
from .spreading import spread_positions
from .wirelength import hpwl


@dataclass
class GlobalPlaceOptions:
    """Knobs for :class:`QuadraticPlacer`.

    Attributes:
        max_iterations: outer loop budget.
        target_overflow: stop when normalised overflow falls below this.
        anchor_alpha: anchor weight ramp slope (weight = alpha * iter).
        target_utilization: spreading capacity scale.
    """

    max_iterations: int = 30
    target_overflow: float = 0.12
    anchor_alpha: float = 0.015
    target_utilization: float = 0.9


@dataclass
class IterationStat:
    """Progress record for one GP iteration (used by the F1 figure)."""

    iteration: int
    hpwl_lower: float
    hpwl_upper: float
    overflow: float
    elapsed_s: float


@dataclass
class GlobalPlaceResult:
    """Output of global placement."""

    x: np.ndarray
    y: np.ndarray
    history: list[IterationStat] = field(default_factory=list)

    @property
    def final_hpwl(self) -> float:
        return self.history[-1].hpwl_upper if self.history else float("nan")


class QuadraticPlacer:
    """B2B quadratic global placer with spreading anchors.

    Args:
        arrays: flattened netlist.
        region: placement region.
        options: loop knobs.
        grid: density grid (defaulted from the design size).
        extra_pairs_x / extra_pairs_y: explicit pair couplings
            ``(cell_i, cell_j, weight, offset)`` added to every solve —
            the structure-aware alignment hooks.
        groups: optional (N,) rigid-group ids for spreading (-1 = free).
        guard: numerical-guard knobs; every solve and every outer
            iterate is checked (NaN/Inf, blowup, divergence) and raises
            :class:`~repro.errors.NumericalError` instead of emitting
            garbage positions.
        checkpoint: optional ``(iteration, x, y)`` hook called once per
            outer iteration — the runtime's checkpoint/resume recorder.

    Each axis solve is one exact SPD factorization
    (:meth:`~repro.place.b2b.QuadraticSystem.solve_direct`), no CG: the
    loop's systems (coincident pins at the centered start, clamped
    1/|d| weights) almost never converge under Jacobi-preconditioned CG.
    """

    def __init__(self, arrays: PlacementArrays, region: PlacementRegion,
                 options: GlobalPlaceOptions | None = None,
                 grid: BinGrid | None = None,
                 extra_pairs_x: list[tuple[int, int, float, float]] | None = None,
                 extra_pairs_y: list[tuple[int, int, float, float]] | None = None,
                 groups: np.ndarray | None = None,
                 post_solve: Callable[[np.ndarray, np.ndarray],
                                      None] | None = None,
                 tracer: Tracer | None = None,
                 guard: GuardOptions | None = None,
                 checkpoint: CheckpointHook | None = None) -> None:
        self.arrays = arrays
        self.region = region
        self.options = options or GlobalPlaceOptions()
        self.grid = grid or default_grid(region, arrays.num_movable)
        self.extra_pairs_x = extra_pairs_x or []
        self.extra_pairs_y = extra_pairs_y or []
        self.groups = groups
        # telemetry hook: iteration elapsed stamps come from the tracer
        # clock so every reported elapsed_s shares one time source
        self.tracer = tracer or Tracer()
        # post_solve(x, y): in-place projection hook applied after every
        # solve — used to keep fused rigid groups in formation
        self.post_solve = post_solve
        self.guard = guard or GuardOptions()
        # checkpoint(iteration, x, y): periodic snapshot hook used by the
        # runtime's crash/timeout resume path
        self.checkpoint = checkpoint
        self._builder = B2BBuilder(arrays)

    # ------------------------------------------------------------------
    def _solve_axis(self, coords: np.ndarray, offsets: np.ndarray,
                    anchors: np.ndarray | None, anchor_w: float | np.ndarray,
                    extra: list[tuple[int, int, float, float]],
                    axis: str) -> np.ndarray:
        with self.tracer.phase("kernel.b2b_build", axis=axis):
            system = self._builder.build_axis(coords, offsets,
                                              anchors=anchors,
                                              anchor_weight=anchor_w,
                                              extra_pairs=extra)
        sol = GuardedSolve(system.solve_direct, stage="global_place",
                           design=self.arrays.name, guard=self.guard)()
        self.tracer.incr("gp.solves")
        out = coords.copy()
        out[system.cells] = sol
        return out

    def _clamp(self, x: np.ndarray, y: np.ndarray) -> None:
        mv = self.arrays.movable
        half_w = self.arrays.width / 2.0
        half_h = self.arrays.height / 2.0
        x[mv] = np.clip(x[mv], self.region.x + half_w[mv],
                        self.region.x_end - half_w[mv])
        y[mv] = np.clip(y[mv], self.region.y + half_h[mv],
                        self.region.y_top - half_h[mv])

    # ------------------------------------------------------------------
    def place(self, x0: np.ndarray | None = None,
              y0: np.ndarray | None = None, *,
              resume_iteration: int = 0) -> GlobalPlaceResult:
        """Run global placement from the given (or current) positions.

        Args:
            x0 / y0: starting positions (defaults to current netlist
                positions).
            resume_iteration: when > 0, treat ``x0``/``y0`` as a
                mid-loop checkpoint taken at that iteration — skip the
                cold-start centering and initial unanchored solve, and
                re-enter the loop at the next iteration (so the anchor
                weight ramp continues where it left off).
        """
        opts = self.options
        arrays = self.arrays
        if x0 is None or y0 is None:
            x0, y0 = arrays.initial_positions()
        x, y = x0.copy(), y0.copy()

        mv = arrays.movable
        region = self.region
        guard = IterateGuard(self.guard, stage="global_place",
                             design=arrays.name,
                             bounds=(region.x, region.y,
                                     region.x_end, region.y_top),
                             movable=mv)
        history: list[IterationStat] = []
        with self.tracer.phase("gp_loop") as ph:
            if resume_iteration <= 0:
                # Initial wirelength-only solve from region center start.
                cx, cy = region.center
                x[mv] = cx
                y[mv] = cy
                x = self._solve_axis(x, arrays.pin_dx, None, 0.0,
                                     self.extra_pairs_x, axis="x")
                y = self._solve_axis(y, arrays.pin_dy, None, 0.0,
                                     self.extra_pairs_y, axis="y")
                self._clamp(x, y)
                if self.post_solve is not None:
                    self.post_solve(x, y)
                guard.check(0, x, y)
            else:
                self.tracer.event("gp_resume", iteration=resume_iteration)

            anchors_x, anchors_y = x, y
            for it in range(resume_iteration + 1, opts.max_iterations + 1):
                # upper bound: spread the current lower-bound solution
                anchors_x, anchors_y = spread_positions(
                    arrays, x, y, self.region,
                    target_utilization=opts.target_utilization,
                    groups=self.groups)
                # convergence is judged on how spread the LOWER bound
                # already is: the spread solution has ~zero overflow by
                # construction
                ovf_lower = overflow(arrays, x, y, self.grid)
                stat = IterationStat(
                    iteration=it,
                    hpwl_lower=hpwl(arrays, x, y),
                    hpwl_upper=hpwl(arrays, anchors_x, anchors_y),
                    overflow=ovf_lower,
                    elapsed_s=ph.split())
                history.append(stat)
                self.tracer.incr("gp.iterations")
                guard.check(it, x, y, overflow=ovf_lower,
                            hpwl=stat.hpwl_lower)
                if self.checkpoint is not None:
                    self.checkpoint(it, x, y)
                if ovf_lower <= opts.target_overflow:
                    break
                # lower bound: anchored quadratic solve
                w = opts.anchor_alpha * it
                x = self._solve_axis(x, arrays.pin_dx, anchors_x, w,
                                     self.extra_pairs_x, axis="x")
                y = self._solve_axis(y, arrays.pin_dy, anchors_y, w,
                                     self.extra_pairs_y, axis="y")
                self._clamp(x, y)
                if self.post_solve is not None:
                    self.post_solve(x, y)

        # final answer: the last spread (upper-bound) solution — it is the
        # overlap-free one that legalization can realise with small moves
        return GlobalPlaceResult(x=anchors_x, y=anchors_y, history=history)
