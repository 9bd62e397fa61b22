"""Bound-to-bound (B2B) quadratic net model.

The B2B model (Spindler, Schlichtmann, Johannes — "Kraftwerk2") replaces
each hyperedge by a clique restricted to its two boundary pins: every pin
connects to the net's min and max pin with weight ``2 / ((p-1) * |d|)``
where ``p`` is the net degree and ``|d|`` the current pin separation.  At
the linearisation point the quadratic cost equals HPWL exactly, which is
what makes successive-quadratic placement converge to low HPWL.

:func:`B2BBuilder.build_axis` assembles, per axis, the sparse
positive-definite system ``A x = b`` over *movable cell centers* (fixed
pins and pin offsets are folded into ``b``) using the vectorized pair
kernels of :mod:`repro.kernels.b2b`; ``build_axis_reference`` retains the
original scalar assembly for the equivalence tests and benchmarks.
:meth:`B2BBuilder.grad_axis` evaluates the same cost's gradient per pin,
with no system and no pair list, for the electrostatic engine.
Every system is symmetric positive-definite (a graph Laplacian plus
non-negative anchor and alignment terms plus a ridge).
:meth:`QuadraticSystem.solve_direct` factorizes it exactly with
SuperLU's settings for that case; :meth:`QuadraticSystem.solve` runs
preconditioned conjugate gradient from a warm start and falls back to
the same factorization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from typing import TYPE_CHECKING

from ..errors import NumericalError
from ..kernels import (NetSplit, Workspace, assemble_pairs, b2b_pairs,
                       b2b_pin_grad, expand_pin_net, split_nets)
from .arrays import PlacementArrays

if TYPE_CHECKING:
    from scipy.sparse.linalg import LinearOperator

_EPS = 1e-6


def _spd_solve(A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Exact solve of one B2B system by sparse LU with SPD settings.

    A symmetric positive-definite matrix needs no pivoting, so SuperLU
    may keep the diagonal pivots (``diag_pivot_thresh=0``) and order
    the columns for ``A + A^T`` with minimum degree.  SuperLU's
    defaults for an unsymmetric matrix (COLAMD with partial pivoting)
    fill far more on these systems: 930k against 258k factor nonzeros
    on ``ctrl_glue2k``.

    Raises:
        NumericalError: an exactly singular factor or a non-finite
            solution (near-singular system).
    """
    from scipy.sparse.linalg import splu
    try:
        # canonical guarded implementation: the singular factor and the
        # finiteness check raise NumericalError. repro-lint: disable=NUM01
        lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:                  # exactly singular
        raise NumericalError(
            f"direct solver: {exc} (singular system)",
            stage="solve", reason="nan") from exc
    sol = np.atleast_1d(lu.solve(b))
    if not np.all(np.isfinite(sol)):
        raise NumericalError(
            "direct solver produced non-finite solution "
            "(near-singular system)", stage="solve", reason="nan")
    return sol


@dataclass
class QuadraticSystem:
    """One axis of the B2B system restricted to movable cells.

    ``A`` is CSR ``(m, m)``; ``b`` is ``(m,)``; ``cells`` maps dense row
    -> netlist cell index.  ``last_cg_iterations`` records the inner
    iteration count of the most recent :meth:`solve` (0 when no CG ran).
    """

    A: sp.csr_matrix
    b: np.ndarray
    cells: np.ndarray  # (m,) netlist cell indices in row order
    last_cg_iterations: int = field(default=0, compare=False)

    def solve(self, x0: np.ndarray | None = None, tol: float = 1e-8,
              max_iterations: int = 200,
              M: LinearOperator | None = None, *,
              direct_fallback: bool = True) -> np.ndarray:
        """Solve with preconditioned CG (SPD system); returns (m,).

        Args:
            x0: warm start — typically the previous GP iteration's
                solution for this axis; a good warm start cuts the CG
                iteration count by an order of magnitude late in the
                anchor ramp.
            tol: relative residual tolerance.
            max_iterations: CG budget before handing off to the direct
                fallback.
            M: optional preconditioner operator (e.g. from
                :meth:`ilu_preconditioner`, possibly factored from an
                earlier nearby system); defaults to Jacobi.
            direct_fallback: when False, an unconverged-but-finite CG
                iterate is returned as-is instead of escalating to the
                direct solver.  Callers that only need an approximate
                solution (the electrostatic engine's initial wirelength
                clump) use this to avoid a superlinear factorization on
                the degenerate cold-start systems.

        Raises:
            NumericalError: the system itself is poisoned (non-finite
                right-hand side — upstream positions already diverged),
                or the direct fallback met a singular or near-singular
                system.
        """
        if not np.all(np.isfinite(self.b)):
            raise NumericalError(
                "non-finite right-hand side in quadratic system",
                stage="solve", reason="nan")
        from scipy.sparse.linalg import cg
        if M is None:
            diag = self.A.diagonal()
            precond = sp.diags(1.0 / np.maximum(diag, 1e-30))
        else:
            precond = M
        iterations = 0

        def count(_xk: np.ndarray) -> None:
            nonlocal iterations
            iterations += 1

        # B2B systems near convergence are well scaled and a warm-started
        # PCG finishes in a few dozen iterations; the degenerate early
        # ones (coincident pins -> clamped 1/|d| weights spanning ~7
        # decades) never converge at any budget, so a bounded attempt
        # hands them to the direct solver instead of burning the budget.
        # canonical guarded implementation: finiteness-checked below and
        # engines wrap solve() in GuardedSolve. repro-lint: disable=NUM01
        sol, info = cg(self.A, self.b, x0=x0, rtol=tol,
                       maxiter=max(int(max_iterations), 1),
                       M=precond, callback=count)
        self.last_cg_iterations = iterations
        if info > 0 and not direct_fallback \
                and np.all(np.isfinite(sol)):
            return sol
        if info > 0 or not np.all(np.isfinite(sol)):
            # not converged (or diverged): fall back to a direct solve
            return _spd_solve(self.A, self.b)
        return sol

    def ilu_preconditioner(self, drop_tol: float = 1e-3,
                           fill_factor: float = 10.0
                           ) -> LinearOperator | None:
        """Incomplete-LU preconditioner operator for this system.

        An ILU factor costs a small fraction of a full factorization
        (drop tolerance keeps the fill sparse) yet takes the PCG
        iteration count from thousands (Jacobi, large meshes) to ~10.
        The electrostatic engine's bounded initial clump solves under
        it.

        Returns:
            A ``LinearOperator`` usable as :meth:`solve`'s ``M``, or
            None when the factorization fails (singular pivot): then
            :meth:`solve` scales by the diagonal (Jacobi).
        """
        from scipy.sparse.linalg import LinearOperator, spilu
        try:
            ilu = spilu(self.A.tocsc(), drop_tol=drop_tol,
                        fill_factor=fill_factor)
        except RuntimeError:                     # singular / zero pivot
            return None
        m = self.A.shape[0]
        return LinearOperator((m, m), matvec=ilu.solve)

    def solve_direct(self) -> np.ndarray:
        """Sparse direct solve — the exact solution, no CG attempt.

        The flat quadratic placer solves every axis this way: its B2B
        systems (coincident pins at the centered start, clamped 1/|d|
        weights spanning ~7 decades) almost never converge under
        Jacobi-preconditioned CG, and one SPD factorization costs less
        than a CG attempt that ends in it.

        Raises:
            NumericalError: non-finite right-hand side, a singular
                system, or a non-finite solution.
        """
        if not np.all(np.isfinite(self.b)):
            raise NumericalError(
                "non-finite right-hand side in quadratic system",
                stage="solve", reason="nan")
        return _spd_solve(self.A, self.b)


def _as_pair_arrays(extra_pairs) -> tuple[np.ndarray, np.ndarray,
                                          np.ndarray, np.ndarray]:
    """Normalise ``(ci, cj, w, const)`` tuples into flat arrays."""
    if extra_pairs is None or len(extra_pairs) == 0:
        e = np.empty(0)
        return e.astype(np.int64), e.astype(np.int64), e, e.copy()
    mat = np.asarray(extra_pairs, dtype=float).reshape(-1, 4)
    return (mat[:, 0].astype(np.int64), mat[:, 1].astype(np.int64),
            mat[:, 2].copy(), mat[:, 3].copy())


class B2BBuilder:
    """Reusable builder for per-axis B2B systems plus anchor terms.

    A per-builder :class:`~repro.kernels.workspace.Workspace` reuses the
    pair enumeration scratch across axis builds — same values, no
    per-call allocation.

    Args:
        arrays: flattened netlist.
    """

    def __init__(self, arrays: PlacementArrays) -> None:
        self.arrays = arrays
        self.workspace = Workspace()
        self.movable_cells = np.nonzero(arrays.movable)[0]
        self._row_of = np.full(arrays.num_cells, -1, dtype=np.int64)
        self._row_of[self.movable_cells] = np.arange(len(self.movable_cells))
        self._pin_net = expand_pin_net(arrays.net_start)

    @property
    def num_movable(self) -> int:
        return len(self.movable_cells)

    def build_axis(self, coords: np.ndarray, offsets: np.ndarray,
                   anchors: np.ndarray | None = None,
                   anchor_weight: float | np.ndarray = 0.0,
                   extra_pairs: list[tuple[int, int, float, float]] | None = None,
                   min_distance: float = _EPS,
                   ) -> QuadraticSystem:
        """Assemble one axis (vectorized).

        Args:
            coords: (N,) current cell centers on this axis.
            offsets: (P,) pin offsets on this axis (``pin_dx`` or
                ``pin_dy``).
            anchors: optional (N,) anchor targets (only movable entries
                used) for spreading pseudo-nets.
            anchor_weight: scalar or (N,) per-cell anchor weights.
            extra_pairs: optional explicit 2-pin connections
                ``(cell_i, cell_j, weight, offset)`` adding the term
                ``w * (x_i - x_j + offset)^2`` — used by the
                structure-aware alignment model.  Accepts tuple lists or
                a pre-flattened (K, 4) array.
            min_distance: pin-separation clamp for the ``1/|d|`` B2B
                weights.  The tiny default keeps the historical (exact
                HPWL at the linearisation point) behaviour; the
                electrostatic engine passes its own
                (:data:`repro.place.electrostatic.MIN_DISTANCE`).

        Returns:
            The assembled system.
        """
        arrays = self.arrays
        m = self.num_movable
        pin_pos = coords[arrays.pin_cell] + offsets

        ca, cb, w, const = b2b_pairs(
            pin_pos, arrays.net_start, arrays.net_weight, arrays.pin_cell,
            offsets, self._pin_net, min_distance,
            workspace=self.workspace)
        eca, ecb, ew, econst = _as_pair_arrays(extra_pairs)
        if eca.size:
            ca = np.concatenate([ca, eca])
            cb = np.concatenate([cb, ecb])
            w = np.concatenate([w, ew])
            const = np.concatenate([const, econst])

        diag, b, rows, cols, vals = assemble_pairs(
            ca, cb, w, const, self._row_of, coords, m)

        if anchors is not None:
            aw = np.broadcast_to(np.asarray(anchor_weight, dtype=float),
                                 (arrays.num_cells,))
            aw_m = aw[self.movable_cells]
            anchored = aw_m > 0.0
            diag = diag + np.where(anchored, aw_m, 0.0)
            b = b + np.where(anchored,
                             aw_m * anchors[self.movable_cells], 0.0)

        A = sp.coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsr()
        A = A + sp.diags(diag + 1e-9)  # tiny ridge keeps A SPD when isolated
        return QuadraticSystem(A=A.tocsr(), b=b, cells=self.movable_cells)

    # ------------------------------------------------------------------
    @functools.cached_property
    def _split(self) -> NetSplit:
        arrays = self.arrays
        return split_nets(arrays.net_start, arrays.net_weight,
                          arrays.pin_cell)

    def grad_axis(self, coords: np.ndarray, offsets: np.ndarray,
                  min_distance: float = _EPS) -> np.ndarray:
        """(N,) gradient of the B2B quadratic cost at the current
        linearisation point — no sparse assembly, no pair list.

        The electrostatic engine's Nesterov loop consumes ``dWL/dx``
        directly every iteration; :func:`repro.kernels.b2b.b2b_pin_grad`
        evaluates it per pin over the design's :class:`NetSplit`, built
        on the first call.  Fixed-cell entries of the returned gradient
        are meaningless and must be masked by the caller.
        """
        return b2b_pin_grad(self._split, coords, offsets, min_distance)

    # ------------------------------------------------------------------
    def build_axis_reference(self, coords: np.ndarray, offsets: np.ndarray,
                             anchors: np.ndarray | None = None,
                             anchor_weight: float | np.ndarray = 0.0,
                             extra_pairs: list[tuple[int, int, float,
                                                     float]] | None = None,
                             min_distance: float = _EPS) -> QuadraticSystem:
        """The original scalar per-net assembly, retained as the ground
        truth for the kernel-equivalence tests and the perf harness."""
        arrays = self.arrays
        m = self.num_movable
        pin_pos = coords[arrays.pin_cell] + offsets

        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        diag = np.zeros(m)
        b = np.zeros(m)

        def add_pair(ci: int, cj: int, w: float, const: float) -> None:
            ri, rj = self._row_of[ci], self._row_of[cj]
            if ri >= 0 and rj >= 0:
                diag[ri] += w
                diag[rj] += w
                # scalar appends; the COO triplets are assembled in one
                # batch below (same element order, so the duplicate
                # summation in tocsr() is unchanged)
                rows.extend((ri, rj))
                cols.extend((rj, ri))
                vals.extend((-w, -w))
                b[ri] -= w * const
                b[rj] += w * const
            elif ri >= 0:
                diag[ri] += w
                b[ri] += w * (coords[cj] - const)
            elif rj >= 0:
                diag[rj] += w
                b[rj] += w * (coords[ci] + const)

        starts = arrays.net_start
        weights = arrays.net_weight
        pin_cell = arrays.pin_cell
        for j in range(arrays.num_nets):
            s, e = starts[j], starts[j + 1]
            deg = e - s
            if deg < 2:
                continue
            p = pin_pos[s:e]
            lo = s + int(np.argmin(p))
            hi = s + int(np.argmax(p))
            if lo == hi:
                hi = s if lo != s else s + 1
            wnet = weights[j] * 2.0 / (deg - 1)

            def add_b2b(k: int, bnd: int) -> None:
                ci, cj = int(pin_cell[k]), int(pin_cell[bnd])
                if ci == cj:
                    return
                dist = abs(pin_pos[k] - pin_pos[bnd])
                w = wnet / max(dist, min_distance)
                add_pair(ci, cj, w, float(offsets[k] - offsets[bnd]))

            add_b2b(lo, hi)
            for k in range(s, e):
                if k == lo or k == hi:
                    continue
                add_b2b(k, lo)
                add_b2b(k, hi)

        if extra_pairs is not None:
            for ci, cj, w, const in extra_pairs:
                add_pair(int(ci), int(cj), float(w), float(const))

        if anchors is not None:
            aw = np.broadcast_to(np.asarray(anchor_weight, dtype=float),
                                 (self.arrays.num_cells,))
            for ci in self.movable_cells:
                w = float(aw[ci])
                if w <= 0.0:
                    continue
                ri = self._row_of[ci]
                diag[ri] += w
                b[ri] += w * anchors[ci]

        rows_arr = np.asarray(rows, dtype=int)
        cols_arr = np.asarray(cols, dtype=int)
        vals_arr = np.asarray(vals, dtype=float)
        A = sp.coo_matrix((vals_arr, (rows_arr, cols_arr)),
                          shape=(m, m)).tocsr()
        A = A + sp.diags(diag + 1e-9)
        return QuadraticSystem(A=A.tocsr(), b=b, cells=self.movable_cells)
