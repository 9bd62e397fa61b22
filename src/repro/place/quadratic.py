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
from ..errors import OptionsError

# CG iteration budget per solve.  Early B2B systems (coincident pins ->
# clamped 1/|d| weights spanning ~7 decades) never converge at rtol=1e-8
# and always end in the direct fallback; when an axis keeps hitting the
# cap its budget halves down to the floor so the burned-before-fallback
# CG time shrinks, and restores fully the moment a solve converges.
_CG_BUDGET = 200
_CG_BUDGET_MIN = 25

# CG budget when an ILU preconditioner is active.  An ILU-preconditioned
# iteration costs about the same as a Jacobi one, but a solve that needs
# more than ~10 iterations is mildly degenerate rather than hopeless —
# a few hundred more iterations usually converge it, and burning them
# is far cheaper than the direct fallback they avoid.  Fixed, not
# adaptive: each solve gets a fresh factor, so past stalls say nothing.
_CG_BUDGET_ILU = 600


@dataclass
class GlobalPlaceOptions:
    """Knobs for :class:`QuadraticPlacer`.

    Attributes:
        max_iterations: outer loop budget.
        target_overflow: stop when normalised overflow falls below this.
        anchor_alpha: anchor weight ramp slope (weight = alpha * iter).
        target_utilization: spreading capacity scale.
        b2b_refresh: rebuild the B2B linearisation every iteration (True)
            or reuse (False, faster but worse).
        seed: reserved for stochastic variants.
    """

    max_iterations: int = 30
    target_overflow: float = 0.12
    anchor_alpha: float = 0.015
    target_utilization: float = 0.9
    b2b_refresh: bool = True
    seed: int = 0


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
        warm_seed: warm-start policy for a *cold* axis solve (no previous
            solution of matching shape).  ``"direct"`` (default) seeds CG
            at the exact direct-solve result, so the first GP iteration
            follows the direct trajectory independent of the CG budget;
            ``"coords"`` seeds from the current coordinates — used by the
            multilevel refinement passes, whose interpolated positions
            are already near the solution and must not pay a factorize.
        preconditioner: ``"jacobi"`` (default) — diagonal scaling with
            the direct fallback on CG stagnation; ``"ilu"`` — an
            incomplete-LU factor built per solve, after which CG
            converges in ~10 iterations.  The refactor sounds wasteful
            but is ~10-30x cheaper than one full factorization, and the
            B2B linearisation moves enough between refinement rounds
            that a frozen factor stalls CG into the direct fallback —
            this policy is what makes multilevel refinement cheap at
            scale.
        min_distance: pin-separation clamp forwarded to
            :meth:`repro.place.b2b.B2BBuilder.build_axis` (None keeps
            the builder default).  Refinement passes raise it to ~1
            site: row-aligned spread positions put many pins at
            coincident y, and the default clamp turns those into
            near-singular systems.
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
                 checkpoint: CheckpointHook | None = None,
                 warm_seed: str = "direct",
                 preconditioner: str = "jacobi",
                 min_distance: float | None = None) -> None:
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
        if warm_seed not in ("direct", "coords"):
            raise OptionsError(f"unknown warm_seed policy: {warm_seed!r}")
        self.warm_seed = warm_seed
        if preconditioner not in ("jacobi", "ilu"):
            raise OptionsError(
                f"unknown preconditioner policy: {preconditioner!r}")
        self.preconditioner = preconditioner
        self.min_distance = min_distance
        self._builder = B2BBuilder(arrays)
        # previous solve's solution per axis — warm start for the next
        # anchored solve (the GP lower bound moves little late in the ramp)
        self._warm: dict[str, np.ndarray | None] = {"x": None, "y": None}
        # per-axis CG budget: halves when CG keeps hitting the cap (the
        # system is too ill-conditioned for PCG, direct fallback decides
        # anyway), restores when a solve converges within budget
        self._cg_budget: dict[str, int] = {"x": _CG_BUDGET, "y": _CG_BUDGET}

    # ------------------------------------------------------------------
    def _solve_axis(self, coords: np.ndarray, offsets: np.ndarray,
                    anchors: np.ndarray | None, anchor_w: float | np.ndarray,
                    extra: list[tuple[int, int, float, float]],
                    axis: str) -> np.ndarray:
        kwargs = {} if self.min_distance is None \
            else {"min_distance": float(self.min_distance)}
        with self.tracer.phase("kernel.b2b_build", axis=axis):
            system = self._builder.build_axis(coords, offsets,
                                              anchors=anchors,
                                              anchor_weight=anchor_w,
                                              extra_pairs=extra, **kwargs)
        warm = self._warm.get(axis)
        if warm is not None and warm.shape == system.cells.shape:
            x0 = warm
            self.tracer.incr("gp.warm_starts")
        elif self.warm_seed == "direct":
            # Cold solve: the degenerate first-iteration system (coincident
            # pins at the centered start) never converges under PCG, so
            # seed from the exact direct solution — CG sees a converged
            # residual and returns it unchanged, which keeps small designs
            # on the direct trajectory whatever the CG budget is.
            x0 = system.solve_direct()
            self.tracer.incr("gp.direct_seeds")
        else:
            x0 = coords[system.cells]
        M = None
        if self.preconditioner == "ilu":
            M = system.ilu_preconditioner()
            if M is not None:
                self.tracer.incr("gp.ilu_factorizations")
        solve = GuardedSolve(system.solve, stage="global_place",
                             design=self.arrays.name,
                             guard=self.guard)
        budget = _CG_BUDGET_ILU if M is not None else self._cg_budget[axis]
        sol = solve(x0=x0, max_iterations=budget, M=M)
        if M is None:
            if system.last_cg_iterations >= budget:
                self._cg_budget[axis] = max(budget // 2, _CG_BUDGET_MIN)
            else:
                self._cg_budget[axis] = _CG_BUDGET
        elif system.last_cg_iterations >= budget:
            self.tracer.incr("gp.ilu_stalls")
        self._warm[axis] = np.asarray(sol, dtype=float).copy()
        self.tracer.incr("gp.solves")
        self.tracer.incr("gp.cg_iterations", system.last_cg_iterations)
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
                x = self._solve_axis(x if opts.b2b_refresh else anchors_x,
                                     arrays.pin_dx, anchors_x, w,
                                     self.extra_pairs_x, axis="x")
                y = self._solve_axis(y if opts.b2b_refresh else anchors_y,
                                     arrays.pin_dy, anchors_y, w,
                                     self.extra_pairs_y, axis="y")
                self._clamp(x, y)
                if self.post_solve is not None:
                    self.post_solve(x, y)

        # final answer: the last spread (upper-bound) solution — it is the
        # overlap-free one that legalization can realise with small moves
        return GlobalPlaceResult(x=anchors_x, y=anchors_y, history=history)

    # ------------------------------------------------------------------
    def refine(self, x0: np.ndarray, y0: np.ndarray, *,
               iterations: int, start_iteration: int = 0,
               anchor_iteration: int | None = None) -> GlobalPlaceResult:
        """Short anchored refinement from warm (already spread) positions.

        Unlike :meth:`place`, this always runs the full ``iterations``
        budget: the multilevel declusterer hands over positions whose
        bin overflow is already low (members scatter over cluster
        footprints), so the main loop's overflow stop would return
        before a single solve.  Each round linearises *and* anchors the
        quadratic system at the current spread (upper-bound) positions
        with a moderate weight, solves both axes, and re-spreads.
        Linearising at the spread positions — not the collapsed
        lower-bound solution — keeps pins separated, so the B2B weights
        stay within a few decades and a preconditioned CG solve
        converges without the direct fallback; this is what makes
        refinement rounds cheap at scale.

        Args:
            x0 / y0: starting positions (interpolated from the coarser
                level, or the previous refinement's output).
            iterations: anchored solve+spread rounds to run.
            start_iteration: numbering offset for history/checkpoint
                records (the V-cycle's accumulated counter).
            anchor_iteration: anchor ramp position; round ``i`` uses
                weight ``anchor_alpha * (anchor_iteration + i)``.
                Decoupled from ``start_iteration`` so a long coarsest
                solve does not make refinement anchors needlessly stiff.
                Defaults to ``start_iteration``.
        """
        opts = self.options
        arrays = self.arrays
        region = self.region
        mv = arrays.movable
        ramp0 = start_iteration if anchor_iteration is None \
            else anchor_iteration
        guard = IterateGuard(self.guard, stage="global_place",
                             design=arrays.name,
                             bounds=(region.x, region.y,
                                     region.x_end, region.y_top),
                             movable=mv)
        history: list[IterationStat] = []
        with self.tracer.phase("gp_refine") as ph:
            anchors_x, anchors_y = spread_positions(
                arrays, x0, y0, region,
                target_utilization=opts.target_utilization,
                groups=self.groups)
            x, y = anchors_x, anchors_y
            for i in range(1, max(int(iterations), 1) + 1):
                it = start_iteration + i
                w = opts.anchor_alpha * (ramp0 + i)
                x = self._solve_axis(anchors_x, arrays.pin_dx, anchors_x,
                                     w, self.extra_pairs_x, axis="x")
                y = self._solve_axis(anchors_y, arrays.pin_dy, anchors_y,
                                     w, self.extra_pairs_y, axis="y")
                self._clamp(x, y)
                if self.post_solve is not None:
                    self.post_solve(x, y)
                anchors_x, anchors_y = spread_positions(
                    arrays, x, y, region,
                    target_utilization=opts.target_utilization,
                    groups=self.groups)
                ovf = overflow(arrays, x, y, self.grid)
                stat = IterationStat(
                    iteration=it,
                    hpwl_lower=hpwl(arrays, x, y),
                    hpwl_upper=hpwl(arrays, anchors_x, anchors_y),
                    overflow=ovf,
                    elapsed_s=ph.split())
                history.append(stat)
                self.tracer.incr("gp.refine_iterations")
                guard.check(it, x, y, overflow=ovf, hpwl=stat.hpwl_lower)
                if self.checkpoint is not None:
                    self.checkpoint(it, x, y)
        return GlobalPlaceResult(x=anchors_x, y=anchors_y, history=history)
