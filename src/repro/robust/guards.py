"""Numerical guards for the analytical placement engines.

Two layers of defence:

- :class:`GuardedSolve` wraps a single linear solve: it applies
  the ``solver_nan`` fault-injection hook, then verifies the solution is
  finite, raising :class:`~repro.errors.NumericalError` instead of
  letting NaN positions leak into the pipeline.
- :class:`IterateGuard` watches the outer placement loop: every iterate
  is checked for NaN/Inf, out-of-region blowup, and divergence (density
  overflow worsening monotonically), with the recent iterate history
  attached to the raised error so a failure is diagnosable from the job
  record alone.

Both are cheap (a handful of vectorised reductions per iterate) and are
enabled by default through :class:`GuardOptions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import NumericalError
from .faults import fault_fires


@dataclass
class GuardOptions:
    """Knobs for the numerical guards.

    Attributes:
        enabled: master switch; off = the engines behave exactly as
            before (no checks, no history).
        blowup_factor: positions further than this multiple of the
            region span outside the region trip the ``blowup`` guard.
        stall_window: consecutive iterations of *worsening* overflow
            that trip the ``stall`` (divergence) guard.
        stall_min_overflow: divergence is only diagnosed above this
            overflow level — a noisy plateau near convergence is normal.
        history_limit: iterate records attached to a raised error.
    """

    enabled: bool = True
    blowup_factor: float = 10.0
    stall_window: int = 5
    stall_min_overflow: float = 0.5
    history_limit: int = 10


class GuardedSolve:
    """Fault-injecting, NaN-checking wrapper around a solve callable.

    Args:
        solve: the underlying solver; returns a numpy array.
        stage: stage label for raised errors.
        design: design name for raised errors.
        guard: options; a disabled guard still injects faults (so fault
            drills exercise the *unguarded* failure mode too) but skips
            the finiteness check.
    """

    def __init__(self, solve: Callable[..., np.ndarray], *, stage: str,
                 design: str = "", guard: GuardOptions | None = None) -> None:
        self.solve = solve
        self.stage = stage
        self.design = design
        self.guard = guard or GuardOptions()

    def __call__(self, *args, **kwargs) -> np.ndarray:
        sol = self.solve(*args, **kwargs)
        if fault_fires("solver_nan"):
            sol = np.asarray(sol, dtype=float).copy()
            sol[...] = np.nan
        if self.guard.enabled and not np.all(np.isfinite(sol)):
            bad = int(np.size(sol) - np.count_nonzero(np.isfinite(sol)))
            raise NumericalError(
                f"solver produced {bad} non-finite values",
                stage=self.stage, design=self.design, reason="nan")
        return sol


class IterateGuard:
    """Checks every outer-loop iterate of a placement engine.

    Args:
        options: guard knobs.
        stage: stage label for raised errors (e.g. ``global_place``).
        design: design name for raised errors.
        bounds: region bounds ``(x, y, x_end, y_top)`` for the blowup
            check; None disables it.
        movable: boolean mask restricting the position checks to movable
            cells (fixed pads legitimately sit outside the core).
    """

    def __init__(self, options: GuardOptions | None = None, *,
                 stage: str = "global_place", design: str = "",
                 bounds: tuple[float, float, float, float] | None = None,
                 movable: np.ndarray | None = None) -> None:
        self.options = options or GuardOptions()
        self.stage = stage
        self.design = design
        self.bounds = bounds
        self.movable = movable
        self.history: list[dict] = []
        self._worsening = 0
        self._last_overflow: float | None = None

    # ------------------------------------------------------------------
    def _record(self, iteration: int, **stats: float) -> None:
        entry = {"iteration": iteration}
        entry.update(stats)
        self.history.append(entry)
        if len(self.history) > self.options.history_limit:
            del self.history[0]

    def _fail(self, reason: str, iteration: int, message: str) -> None:
        raise NumericalError(message, stage=self.stage, design=self.design,
                             reason=reason, iteration=iteration,
                             history=list(self.history))

    # ------------------------------------------------------------------
    def check(self, iteration: int, x: np.ndarray, y: np.ndarray, *,
              overflow: float | None = None,
              hpwl: float | None = None) -> None:
        """Validate one iterate; raises :class:`NumericalError` on trouble.

        Args:
            iteration: outer-loop iteration number (for diagnostics).
            x / y: current cell-center arrays.
            overflow: current density overflow (enables stall detection).
            hpwl: current wirelength (recorded in the history).
        """
        if not self.options.enabled:
            return
        xs, ys = x, y
        if self.movable is not None and self.movable.shape == x.shape:
            xs, ys = x[self.movable], y[self.movable]
        self._record(iteration,
                     overflow=overflow if overflow is not None else -1.0,
                     hpwl=hpwl if hpwl is not None else -1.0)

        finite = np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))
        if not finite:
            self._fail("nan", iteration,
                       f"non-finite positions at iteration {iteration}")

        if self.bounds is not None and xs.size:
            x0, y0, x1, y1 = self.bounds
            slack_x = self.options.blowup_factor * max(x1 - x0, 1.0)
            slack_y = self.options.blowup_factor * max(y1 - y0, 1.0)
            if (float(xs.min()) < x0 - slack_x
                    or float(xs.max()) > x1 + slack_x
                    or float(ys.min()) < y0 - slack_y
                    or float(ys.max()) > y1 + slack_y):
                self._fail(
                    "blowup", iteration,
                    f"positions blew up at iteration {iteration}: "
                    f"x in [{float(xs.min()):.3g}, {float(xs.max()):.3g}], "
                    f"y in [{float(ys.min()):.3g}, {float(ys.max()):.3g}]")

        if overflow is not None:
            if not np.isfinite(overflow):
                self._fail("nan", iteration,
                           f"non-finite overflow at iteration {iteration}")
            last = self._last_overflow
            if last is not None and overflow > last + 1e-12 \
                    and overflow > self.options.stall_min_overflow:
                self._worsening += 1
            else:
                self._worsening = 0
            self._last_overflow = float(overflow)
            if self._worsening >= self.options.stall_window:
                self._fail(
                    "stall", iteration,
                    f"overflow diverged for {self._worsening} consecutive "
                    f"iterations (now {overflow:.4f})")
