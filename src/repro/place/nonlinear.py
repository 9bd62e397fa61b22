"""NTUplace-style nonlinear global placement.

Minimises ``WL(x, y) + lambda * D(x, y)`` where WL is a smooth wirelength
(LSE or WA — the WA model is this paper's authors' own) and D the
bell-shaped bin density penalty.  The multiplier ``lambda`` ramps by a
fixed factor each outer round until density overflow meets the target —
the standard penalty-method schedule of NTUplace3.

Slower than the quadratic engine in pure Python, so the default pipeline
uses it only on small/medium designs and for the engine-fidelity ablation;
both engines expose identical structure hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..robust.checkpoint import CheckpointHook
from ..robust.guards import GuardOptions, IterateGuard
from ..robust.faults import fault_fires
from .arrays import PlacementArrays
from .density import BellDensity, overflow
from .optimizer import CGOptions, conjugate_gradient
from .region import BinGrid, PlacementRegion, default_grid
from .wirelength import WL_MODELS, hpwl
from ..errors import OptionsError


@dataclass
class NonlinearOptions:
    """Knobs for :class:`NonlinearPlacer`.

    Attributes:
        wirelength_model: ``"wa"`` (default; the authors' model) or
            ``"lse"``.
        gamma_frac: smoothing width as a fraction of average bin size.
        max_rounds: outer penalty rounds.
        lambda_growth: multiplier ramp per round.
        target_overflow: stopping criterion.
        cg: inner optimizer knobs.
    """

    wirelength_model: str = "wa"
    gamma_frac: float = 0.5
    max_rounds: int = 12
    lambda_growth: float = 2.0
    target_overflow: float = 0.12
    cg: CGOptions = field(default_factory=lambda: CGOptions(max_iterations=60))


@dataclass
class NonlinearResult:
    x: np.ndarray
    y: np.ndarray
    rounds: int
    final_overflow: float
    history: list[tuple[float, float]] = field(default_factory=list)
    # history entries: (hpwl, overflow) per round


class NonlinearPlacer:
    """Penalty-method nonlinear placer with structure hooks.

    ``extra_pairs_x`` / ``extra_pairs_y`` add quadratic alignment terms
    ``w * (x_i - x_j + offset)^2`` to the objective, mirroring the
    quadratic engine's hooks.
    """

    def __init__(self, arrays: PlacementArrays, region: PlacementRegion,
                 options: NonlinearOptions | None = None,
                 grid: BinGrid | None = None,
                 extra_pairs_x: list[tuple[int, int, float, float]] | None = None,
                 extra_pairs_y: list[tuple[int, int, float, float]] | None = None,
                 guard: GuardOptions | None = None,
                 checkpoint: CheckpointHook | None = None) -> None:
        self.arrays = arrays
        self.region = region
        self.options = options or NonlinearOptions()
        self.guard = guard or GuardOptions()
        # checkpoint(round, x, y): periodic snapshot hook (resume support
        # mirrors the quadratic engine's)
        self.checkpoint = checkpoint
        self.grid = grid or default_grid(region, arrays.num_movable)
        self.density = BellDensity(arrays, self.grid)
        if self.options.wirelength_model not in WL_MODELS:
            raise OptionsError(
                f"unknown wirelength model {self.options.wirelength_model!r}")
        self._wl_grad = WL_MODELS[self.options.wirelength_model]
        self.extra_pairs_x = extra_pairs_x or []
        self.extra_pairs_y = extra_pairs_y or []
        self._pairs_x = self._flatten_pairs(self.extra_pairs_x)
        self._pairs_y = self._flatten_pairs(self.extra_pairs_y)

    # ------------------------------------------------------------------
    @staticmethod
    def _flatten_pairs(pairs) -> tuple[np.ndarray, np.ndarray,
                                       np.ndarray, np.ndarray]:
        if not pairs:
            e = np.empty(0)
            return e.astype(np.int64), e.astype(np.int64), e, e.copy()
        mat = np.asarray(pairs, dtype=float).reshape(-1, 4)
        return (mat[:, 0].astype(np.int64), mat[:, 1].astype(np.int64),
                mat[:, 2].copy(), mat[:, 3].copy())

    @staticmethod
    def _pairs_value_grad(coords: np.ndarray,
                          pairs: tuple[np.ndarray, np.ndarray,
                                       np.ndarray, np.ndarray]
                          ) -> tuple[float, np.ndarray]:
        ci, cj, w, off = pairs
        if not ci.size:
            return 0.0, np.zeros_like(coords)
        d = coords[ci] - coords[cj] + off
        value = float(np.dot(w, d * d))
        wd = 2.0 * w * d
        n = coords.shape[0]
        grad = np.bincount(ci, weights=wd, minlength=n) \
            - np.bincount(cj, weights=wd, minlength=n)
        return value, grad

    def _objective(self, lam: float, gamma: float):
        arrays = self.arrays
        n = arrays.num_cells
        mv = arrays.movable

        def fn(theta: np.ndarray) -> tuple[float, np.ndarray]:
            x = theta[:n]
            y = theta[n:]
            wl, gx, gy = self._wl_grad(arrays, x, y, gamma)
            dv, dgx, dgy = self.density.value_grad(x, y)
            px, pgx = self._pairs_value_grad(x, self._pairs_x)
            py, pgy = self._pairs_value_grad(y, self._pairs_y)
            value = wl + lam * dv + px + py
            grad = np.concatenate([gx + lam * dgx + pgx,
                                   gy + lam * dgy + pgy])
            grad[:n][~mv] = 0.0
            grad[n:][~mv] = 0.0
            return value, grad

        return fn

    def _clamp(self, x: np.ndarray, y: np.ndarray) -> None:
        mv = self.arrays.movable
        hw = self.arrays.width / 2.0
        hh = self.arrays.height / 2.0
        x[mv] = np.clip(x[mv], self.region.x + hw[mv],
                        self.region.x_end - hw[mv])
        y[mv] = np.clip(y[mv], self.region.y + hh[mv],
                        self.region.y_top - hh[mv])

    # ------------------------------------------------------------------
    def place(self, x0: np.ndarray | None = None,
              y0: np.ndarray | None = None) -> NonlinearResult:
        """Run the penalty loop from the given (or current) positions."""
        opts = self.options
        arrays = self.arrays
        if x0 is None or y0 is None:
            x0, y0 = arrays.initial_positions()
        x, y = x0.copy(), y0.copy()
        self._clamp(x, y)
        gamma = opts.gamma_frac * 0.5 * (self.grid.bin_w + self.grid.bin_h)

        # initial lambda: balance gradient norms (NTUplace recipe)
        wl, gx, gy = self._wl_grad(arrays, x, y, gamma)
        _dv, dgx, dgy = self.density.value_grad(x, y)
        wl_norm = float(np.abs(gx).sum() + np.abs(gy).sum())
        d_norm = float(np.abs(dgx).sum() + np.abs(dgy).sum())
        lam = (wl_norm / d_norm) * 0.1 if d_norm > 0 else 1.0

        iterate_guard = IterateGuard(
            self.guard, stage="global_place",
            design=arrays.name,
            bounds=(self.region.x, self.region.y,
                    self.region.x_end, self.region.y_top),
            movable=arrays.movable)
        history: list[tuple[float, float]] = []
        rounds = 0
        ovf = overflow(arrays, x, y, self.grid)
        n = arrays.num_cells
        cg_opts = opts.cg
        for rounds in range(1, opts.max_rounds + 1):
            theta0 = np.concatenate([x, y])
            result = conjugate_gradient(self._objective(lam, gamma), theta0,
                                        cg_opts)
            # warm-start the next round's line search from this round's
            # final Barzilai–Borwein step (the landscape changes only by
            # the lambda ramp, so the curvature estimate carries over)
            if np.isfinite(result.final_step) and result.final_step > 0:
                cg_opts = replace(opts.cg, initial_step=result.final_step)
            x = result.x[:n].copy()
            y = result.x[n:].copy()
            if fault_fires("solver_nan"):
                x = x.copy()
                x[:] = np.nan
            self._clamp(x, y)
            ovf = overflow(arrays, x, y, self.grid)
            wl = hpwl(arrays, x, y)
            history.append((wl, ovf))
            iterate_guard.check(rounds, x, y, overflow=ovf, hpwl=wl)
            if self.checkpoint is not None:
                self.checkpoint(rounds, x, y)
            if ovf <= opts.target_overflow:
                break
            lam *= opts.lambda_growth
        return NonlinearResult(x=x, y=y, rounds=rounds, final_overflow=ovf,
                               history=history)
