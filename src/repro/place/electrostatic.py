"""ePlace-style electrostatic global placement (eDensity + Nesterov).

Models placement density as an electrostatic system (Lu et al., ePlace):
every movable cell is a positive charge of magnitude equal to its area,
the per-bin density target (free capacity after fixed blockage) is the
balancing negative charge, and the density penalty is the field energy
of the resulting charge distribution.  Solving the Poisson equation

    -laplace(psi) = rho

on the bin grid yields the potential ``psi``; the force on each cell is
its charge times the negative potential gradient (the electric field),
which simultaneously pushes cells out of overfilled bins and pulls them
into underfilled ones — a *global* spreading signal, unlike NTUplace's
local bell-shaped density penalty.

The Poisson solve runs in the spectral domain through ``np.fft``: the
charge grid is even-extended (mirror images across both axes), which
turns the zero-flux Neumann boundary condition into plain periodicity,
and each Fourier mode is divided by the eigenvalue of the
discrete 5-point Laplacian.  Cost per iteration is O(B log B) in the
bin count B — independent of how badly cells overlap — which is what
makes the engine fast on large flat designs where the quadratic
engine's recursive bisection spreading dominates.

The outer loop is Nesterov's accelerated gradient method with a
Barzilai–Borwein steplength (ePlace Algorithm 1), using the B2B
wirelength gradient evaluated per pin
(:meth:`~repro.place.b2b.B2BBuilder.grad_axis` — no sparse assembly, no
pair list).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import OptionsError
from ..kernels import b2b_grad, rasterize_overlap
from ..robust.faults import fault_fires
from ..robust.guards import GuardOptions, IterateGuard
from ..robust.jobhook import IterationHook
from ..runtime.telemetry import Tracer
from .arrays import PlacementArrays
from .b2b import B2BBuilder, _as_pair_arrays
from .density import overflow
from .region import BinGrid, PlacementRegion, default_grid
from .wirelength import hpwl


#: overflow-probe / history cadence, in Nesterov iterations.  Every
#: iteration rasterizes the exact cell footprints for the density charge;
#: a probe adds the exact overflow and HPWL evaluation, the guard check
#: and the job hook, so it is not run every iteration
OVERFLOW_EVERY = 5

#: B2B distance clamp for the wirelength gradient's pair weights
MIN_DISTANCE = 1e-2


@dataclass
class ElectroOptions:
    """Knobs for :class:`ElectrostaticPlacer`.

    The probe cadence and the B2B distance clamp are the module
    constants :data:`OVERFLOW_EVERY` and :data:`MIN_DISTANCE`, not
    options: no caller tunes them, and a zero or negative value would
    only crash the loop.

    Attributes:
        max_iterations: Nesterov iteration budget.
        target_overflow: stop once exact density overflow drops below.
        lambda_init_frac: initial density multiplier as a fraction of
            the wirelength/density gradient-norm ratio (ePlace uses the
            same balancing recipe as NTUplace).
        lambda_growth: multiplier ramp per iteration (gentle — the loop
            runs hundreds of cheap iterations, not a dozen expensive
            rounds).
        step_cap_bins: upper bound on the per-iteration displacement of
            the steepest cell, in bin pitches (keeps early BB steps from
            catapulting cells across the die).
    """

    max_iterations: int = 220
    target_overflow: float = 0.12
    lambda_init_frac: float = 0.05
    lambda_growth: float = 1.05
    step_cap_bins: float = 3.0


@dataclass
class ElectroResult:
    x: np.ndarray
    y: np.ndarray
    rounds: int
    final_overflow: float
    history: list[tuple[int, float, float]] = field(default_factory=list)
    # history entries: (Nesterov iteration, hpwl, overflow) per probe


class ElectrostaticDensity:
    """eDensity: bin charge, spectral Poisson potential, field gather.

    The movable demand raster uses the exact clipped-overlap kernel
    (cells deposit their true area footprint); the charge is the signed
    per-bin imbalance against the blockage-aware target, normalised by
    bin area.  Fields are central differences of the potential,
    gathered at cell centers with bilinear interpolation so the force
    varies smoothly as a cell crosses bin boundaries.
    """

    def __init__(self, arrays: PlacementArrays, grid: BinGrid,
                 target_density: float = 1.0) -> None:
        self.arrays = arrays
        self.grid = grid
        self._movable_idx = np.nonzero(arrays.movable)[0]

        # blockage-aware per-bin target area: fixed cells consume
        # supply, the remainder shares movable area
        blockage = self._fixed_blockage()
        usable = np.maximum(grid.bin_area * target_density - blockage, 0.0)
        movable_area = float(arrays.area[arrays.movable].sum())
        total_usable = float(usable.sum())
        if total_usable <= 0:
            raise OptionsError("no usable bin capacity for density target")
        self.target = usable * (movable_area / total_usable)

        # spectral eigenvalues of the discrete 5-point Laplacian on the
        # even-extended (2nx, 2ny) periodic grid: mode k has angle
        # pi*k/n per axis, eigenvalue (2 - 2cos(angle)) / pitch^2
        kx = np.arange(2 * grid.nx)
        ky = np.arange(2 * grid.ny)
        lam_x = (2.0 - 2.0 * np.cos(math.pi * kx / grid.nx)) \
            / (grid.bin_w * grid.bin_w)
        lam_y = (2.0 - 2.0 * np.cos(math.pi * ky / grid.ny)) \
            / (grid.bin_h * grid.bin_h)
        lam = lam_x[:, None] + lam_y[None, :]
        lam[0, 0] = 1.0  # DC mode is zeroed explicitly after the divide
        self._lam = lam

    def _fixed_blockage(self) -> np.ndarray:
        g = self.grid
        arrays = self.arrays
        fixed = ~arrays.movable
        if not bool(fixed.any()):
            return np.zeros((g.nx, g.ny))
        x, y = arrays.initial_positions()
        return rasterize_overlap(
            x[fixed] - arrays.width[fixed] / 2.0,
            x[fixed] + arrays.width[fixed] / 2.0,
            y[fixed] - arrays.height[fixed] / 2.0,
            y[fixed] + arrays.height[fixed] / 2.0,
            nx=g.nx, ny=g.ny, bin_w=g.bin_w, bin_h=g.bin_h,
            origin_x=g.region.x, origin_y=g.region.y)

    # ------------------------------------------------------------------
    def charge(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Signed charge density rho = (demand - target) / bin_area."""
        arrays = self.arrays
        g = self.grid
        idx = self._movable_idx
        demand = rasterize_overlap(
            x[idx] - arrays.width[idx] / 2.0,
            x[idx] + arrays.width[idx] / 2.0,
            y[idx] - arrays.height[idx] / 2.0,
            y[idx] + arrays.height[idx] / 2.0,
            nx=g.nx, ny=g.ny, bin_w=g.bin_w, bin_h=g.bin_h,
            origin_x=g.region.x, origin_y=g.region.y)
        return (demand - self.target) / g.bin_area

    def solve_poisson(self, rho: np.ndarray) -> np.ndarray:
        """Potential psi with zero-flux boundaries via even extension.

        Mirroring rho across both axes makes the Neumann problem
        periodic; the FFT divide by the discrete-Laplacian eigenvalues
        is then exact for the 5-point stencil (tested against the dense
        ``poisson_reference`` solve).  The DC mode — undetermined for a
        pure-Neumann problem — is pinned to zero (zero-mean gauge).
        """
        nx, ny = self.grid.nx, self.grid.ny
        ext = np.empty((2 * nx, 2 * ny))
        ext[:nx, :ny] = rho
        ext[nx:, :ny] = rho[::-1, :]
        ext[:nx, ny:] = rho[:, ::-1]
        ext[nx:, ny:] = rho[::-1, ::-1]
        rho_hat = np.fft.fft2(ext)
        psi_hat = rho_hat / self._lam
        psi_hat[0, 0] = 0.0
        psi = np.fft.ifft2(psi_hat).real[:nx, :ny]
        return psi

    def field(self, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """E = -grad(psi): central differences, one-sided at the edges."""
        g = self.grid
        ex = np.empty_like(psi)
        ey = np.empty_like(psi)
        ex[1:-1, :] = (psi[2:, :] - psi[:-2, :]) / (2.0 * g.bin_w)
        ex[0, :] = (psi[1, :] - psi[0, :]) / g.bin_w
        ex[-1, :] = (psi[-1, :] - psi[-2, :]) / g.bin_w
        ey[:, 1:-1] = (psi[:, 2:] - psi[:, :-2]) / (2.0 * g.bin_h)
        ey[:, 0] = (psi[:, 1] - psi[:, 0]) / g.bin_h
        ey[:, -1] = (psi[:, -1] - psi[:, -2]) / g.bin_h
        return -ex, -ey

    def _gather(self, grid_vals: np.ndarray, x: np.ndarray, y: np.ndarray
                ) -> np.ndarray:
        """Bilinear interpolation of a bin-center field at cell centers."""
        g = self.grid
        fx = (x - g.region.x) / g.bin_w - 0.5
        fy = (y - g.region.y) / g.bin_h - 0.5
        i0 = np.clip(np.floor(fx).astype(np.int64), 0, g.nx - 1)
        j0 = np.clip(np.floor(fy).astype(np.int64), 0, g.ny - 1)
        i1 = np.clip(i0 + 1, 0, g.nx - 1)
        j1 = np.clip(j0 + 1, 0, g.ny - 1)
        tx = np.clip(fx - i0, 0.0, 1.0)
        ty = np.clip(fy - j0, 0.0, 1.0)
        return ((1.0 - tx) * (1.0 - ty) * grid_vals[i0, j0]
                + tx * (1.0 - ty) * grid_vals[i1, j0]
                + (1.0 - tx) * ty * grid_vals[i0, j1]
                + tx * ty * grid_vals[i1, j1])

    def value_grad(self, x: np.ndarray, y: np.ndarray
                   ) -> tuple[float, np.ndarray, np.ndarray]:
        """Field energy and per-cell density gradient.

        The gradient of the energy w.r.t. cell i's position is
        ``-q_i * E(x_i)`` (charge times field, ePlace eq. 6); descending
        it moves each cell along the field, out of dense regions.
        """
        g = self.grid
        rho = self.charge(x, y)
        psi = self.solve_poisson(rho)
        ex, ey = self.field(psi)
        value = 0.5 * float((rho * psi).sum()) * g.bin_area
        idx = self._movable_idx
        q = self.arrays.area[idx]
        gx = np.zeros(self.arrays.num_cells)
        gy = np.zeros(self.arrays.num_cells)
        gx[idx] = -q * self._gather(ex, x[idx], y[idx])
        gy[idx] = -q * self._gather(ey, x[idx], y[idx])
        return value, gx, gy


class ElectrostaticPlacer:
    """Nesterov-accelerated electrostatic global placer (``--engine
    electro``).

    Minimises ``WL(x, y) + lambda * D(x, y)`` where WL is the B2B
    quadratic wirelength at the current linearisation point (gradient
    evaluated per pin, no solve) and D the eDensity field energy.  ``extra_pairs_x`` / ``extra_pairs_y`` add the same
    structure-alignment terms the other engines accept.
    """

    def __init__(self, arrays: PlacementArrays, region: PlacementRegion,
                 options: ElectroOptions | None = None,
                 grid: BinGrid | None = None,
                 extra_pairs_x: list[tuple[int, int, float, float]] | None = None,
                 extra_pairs_y: list[tuple[int, int, float, float]] | None = None,
                 guard: GuardOptions | None = None,
                 hook: IterationHook | None = None,
                 tracer: Tracer | None = None) -> None:
        self.arrays = arrays
        self.region = region
        self.options = options or ElectroOptions()
        self.guard = guard or GuardOptions()
        self.hook = hook
        self.tracer = tracer or Tracer()
        self.grid = grid or default_grid(region, arrays.num_movable)
        self.density = ElectrostaticDensity(arrays, self.grid)
        self.builder = B2BBuilder(arrays)
        self.extra_pairs_x = extra_pairs_x or []
        self.extra_pairs_y = extra_pairs_y or []
        self._pairs_x = _as_pair_arrays(extra_pairs_x)
        self._pairs_y = _as_pair_arrays(extra_pairs_y)

    # ------------------------------------------------------------------
    def _clamp(self, x: np.ndarray, y: np.ndarray) -> None:
        mv = self.arrays.movable
        hw = self.arrays.width / 2.0
        hh = self.arrays.height / 2.0
        x[mv] = np.clip(x[mv], self.region.x + hw[mv],
                        self.region.x_end - hw[mv])
        y[mv] = np.clip(y[mv], self.region.y + hh[mv],
                        self.region.y_top - hh[mv])

    def _wl_grad(self, x: np.ndarray, y: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """B2B wirelength gradient, both axes, plus the
        structure-alignment pair terms."""
        with self.tracer.phase("kernel.wl_grad"):
            gx = self.builder.grad_axis(
                x, self.arrays.pin_dx, min_distance=MIN_DISTANCE)
            gy = self.builder.grad_axis(
                y, self.arrays.pin_dy, min_distance=MIN_DISTANCE)
        _, pgx = b2b_grad(*self._pairs_x, x)
        _, pgy = b2b_grad(*self._pairs_y, y)
        return gx + pgx, gy + pgy

    def _density_grad(self, x: np.ndarray, y: np.ndarray
                      ) -> tuple[float, np.ndarray, np.ndarray]:
        with self.tracer.phase("kernel.fft_poisson",
                               nx=self.grid.nx, ny=self.grid.ny):
            return self.density.value_grad(x, y)

    def _grad(self, lam: float, x: np.ndarray, y: np.ndarray
              ) -> np.ndarray:
        """Masked objective gradient as one (2N,) vector."""
        gwx, gwy = self._wl_grad(x, y)
        _, gdx, gdy = self._density_grad(x, y)
        n = self.arrays.num_cells
        g = np.empty(2 * n)
        g[:n] = gwx + lam * gdx
        g[n:] = gwy + lam * gdy
        mv = self.arrays.movable
        g[:n][~mv] = 0.0
        g[n:][~mv] = 0.0
        return g

    def _initial_wl_solve(self, x: np.ndarray, y: np.ndarray,
                          iterations: int = 3
                          ) -> tuple[np.ndarray, np.ndarray]:
        """ePlace's initial placement: a few unconstrained B2B solves.

        The Nesterov loop is a *spreading* trajectory — it must start
        from the wirelength optimum (cells clumped, overflow high) and
        trade wirelength for density as lambda ramps.  Linearised
        quadratic solves get there in a handful of cheap CG calls.

        The cold-start systems are the degenerate kind (coincident pins
        clamp the 1/|d| weights across ~7 decades), so plain CG never
        converges and the stock solve() escalates to a superlinear
        direct factorization — at 100k cells that factorization alone
        would dwarf the entire Nesterov loop.  An ILU-preconditioned
        bounded CG with ``direct_fallback=False`` gets an approximate
        clump in near-linear time, which is all the spreading
        trajectory needs.
        """
        for _ in range(iterations):
            for coords, offsets, extra in (
                    (x, self.arrays.pin_dx, self.extra_pairs_x),
                    (y, self.arrays.pin_dy, self.extra_pairs_y)):
                system = self.builder.build_axis(
                    coords, offsets, extra_pairs=extra,
                    min_distance=MIN_DISTANCE)
                sol = system.solve(x0=coords[system.cells],
                                   M=system.ilu_preconditioner(),
                                   tol=1e-6, max_iterations=100,
                                   direct_fallback=False)
                coords[system.cells] = sol
            self._clamp(x, y)
        return x, y

    # ------------------------------------------------------------------
    def place(self, x0: np.ndarray | None = None,
              y0: np.ndarray | None = None) -> ElectroResult:
        """Run the Nesterov loop from the given (or current) positions.

        When no start is given, an unconstrained B2B solve provides the
        wirelength-optimal clump the spreading trajectory expects; an
        explicit start (multilevel refinement) is used as-is.
        """
        opts = self.options
        arrays = self.arrays
        if x0 is None or y0 is None:
            x0, y0 = arrays.initial_positions()
            x0, y0 = self._initial_wl_solve(x0, y0)
        n = arrays.num_cells
        u = np.empty(2 * n)
        u[:n] = x0
        u[n:] = y0
        self._clamp(u[:n], u[n:])

        # initial multiplier: balance the gradient one-norms
        gwx, gwy = self._wl_grad(u[:n], u[n:])
        _, gdx, gdy = self._density_grad(u[:n], u[n:])
        wl_norm = float(np.abs(gwx).sum() + np.abs(gwy).sum())
        d_norm = float(np.abs(gdx).sum() + np.abs(gdy).sum())
        lam = (wl_norm / d_norm) * opts.lambda_init_frac \
            if d_norm > 0 else 1.0

        iterate_guard = IterateGuard(
            self.guard, stage="global_place",
            design=arrays.name,
            bounds=(self.region.x, self.region.y,
                    self.region.x_end, self.region.y_top),
            movable=arrays.movable)
        history: list[tuple[int, float, float]] = []
        step_cap = opts.step_cap_bins * min(self.grid.bin_w,
                                            self.grid.bin_h)

        # Nesterov state: u = major iterate, v = reference (lookahead)
        v = u.copy()
        a = 1.0
        v_prev = None
        g_prev = None
        rounds = 0
        ovf = overflow(arrays, u[:n], u[n:], self.grid)
        for rounds in range(1, opts.max_iterations + 1):
            g = self._grad(lam, v[:n], v[n:])
            g_inf = float(np.abs(g).max())
            if g_inf <= 0:
                break
            if g_prev is None:
                alpha = step_cap / g_inf
            else:
                # Barzilai–Borwein steplength, capped so the steepest
                # cell moves at most step_cap per iteration
                dv = float(np.linalg.norm(v - v_prev))
                dg = float(np.linalg.norm(g - g_prev))
                alpha = dv / dg if dg > 0 else step_cap / g_inf
                alpha = min(alpha, step_cap / g_inf)
            v_prev = v.copy()
            g_prev = g

            u_new = v - alpha * g
            self._clamp(u_new[:n], u_new[n:])
            a_new = (1.0 + math.sqrt(4.0 * a * a + 1.0)) / 2.0
            v = u_new + ((a - 1.0) / a_new) * (u_new - u)
            self._clamp(v[:n], v[n:])
            u = u_new
            a = a_new
            lam *= opts.lambda_growth
            self.tracer.incr("gp.iterations")

            probe = (rounds % OVERFLOW_EVERY == 0
                     or rounds == opts.max_iterations)
            if fault_fires("solver_nan"):
                u = u.copy()
                u[:] = math.nan
                probe = True  # the guard must see the poisoned iterate
            if probe:
                x, y = u[:n], u[n:]
                # a poisoned iterate goes straight to the guard — the
                # exact raster would only cast the NaNs around
                if bool(np.isfinite(x[arrays.movable]).all()) \
                        and bool(np.isfinite(y[arrays.movable]).all()):
                    ovf = overflow(arrays, x, y, self.grid)
                    wl = hpwl(arrays, x, y)
                else:
                    ovf = math.inf
                    wl = math.inf
                history.append((rounds, wl, ovf))
                iterate_guard.check(rounds, x, y, overflow=ovf, hpwl=wl)
                if self.hook is not None:
                    self.hook(rounds)
                if ovf <= opts.target_overflow:
                    break

        return ElectroResult(x=u[:n], y=u[n:], rounds=rounds,
                             final_overflow=ovf, history=history)
