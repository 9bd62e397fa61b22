"""Retained slow reference implementations of every vectorized kernel.

These are the original scalar Python loops the kernels replaced, kept
verbatim (modulo flat-array signatures) as the ground truth for:

- the property-based equivalence tests (``tests/test_kernels.py``);
- the perf-regression harness (``benchmarks/bench_kernels.py``), which
  reports vectorized-vs-reference speedups into ``BENCH_PERF.json``;
- CI's perf-smoke job, which fails when a kernel drifts from its
  reference beyond 1e-9 relative tolerance.

Nothing in the production paths imports from this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from ..netlist import Cell, Netlist


def hpwl_reference(px: np.ndarray, py: np.ndarray, starts: np.ndarray,
                   weights: np.ndarray) -> float:
    """Scalar per-net loop for total weighted HPWL."""
    total = 0.0
    for j in range(len(starts) - 1):
        s, e = starts[j], starts[j + 1]
        total += weights[j] * ((px[s:e].max() - px[s:e].min())
                               + (py[s:e].max() - py[s:e].min()))
    return float(total)


def hpwl_per_net_reference(px: np.ndarray, py: np.ndarray,
                           starts: np.ndarray) -> np.ndarray:
    """Scalar per-net loop for unweighted per-net HPWL."""
    out = np.empty(len(starts) - 1, dtype=float)
    for j in range(len(starts) - 1):
        s, e = starts[j], starts[j + 1]
        out[j] = (px[s:e].max() - px[s:e].min()) + \
            (py[s:e].max() - py[s:e].min())
    return out


def rasterize_overlap_reference(xl: np.ndarray, xr: np.ndarray,
                                yb: np.ndarray, yt: np.ndarray, *,
                                nx: int, ny: int, bin_w: float, bin_h: float,
                                origin_x: float, origin_y: float
                                ) -> np.ndarray:
    """Triple-nested bin loop for exact overlap-area accumulation."""
    area = np.zeros((nx, ny))
    il = np.clip(((xl - origin_x) / bin_w).astype(int), 0, nx - 1)
    ir = np.clip(np.ceil((xr - origin_x) / bin_w).astype(int) - 1, 0, nx - 1)
    jb = np.clip(((yb - origin_y) / bin_h).astype(int), 0, ny - 1)
    jt = np.clip(np.ceil((yt - origin_y) / bin_h).astype(int) - 1, 0, ny - 1)
    for k in range(xl.shape[0]):
        for i in range(il[k], ir[k] + 1):
            ox = min(xr[k], origin_x + (i + 1) * bin_w) \
                - max(xl[k], origin_x + i * bin_w)
            if ox <= 0:
                continue
            for j in range(jb[k], jt[k] + 1):
                oy = min(yt[k], origin_y + (j + 1) * bin_h) \
                    - max(yb[k], origin_y + j * bin_h)
                if oy > 0:
                    area[i, j] += ox * oy
    return area


def _bell_1d_reference(d: np.ndarray, half_span: np.ndarray,
                       pitch: float) -> tuple[np.ndarray, np.ndarray]:
    """The original masked-assignment bell (1-D window arrays)."""
    r1 = half_span + pitch
    r2 = half_span + 2.0 * pitch
    ad = np.abs(d)
    val = np.zeros_like(ad)
    dval = np.zeros_like(ad)
    inner = ad <= r1
    a = 1.0 / np.maximum(r1 * (r1 + pitch), 1e-12)
    val[inner] = (1.0 - a[inner] * ad[inner] ** 2)
    dval[inner] = -2.0 * a[inner] * ad[inner]
    outer = (~inner) & (ad < r2)
    b = a * r1 / np.maximum(pitch, 1e-12)
    val[outer] = (b[outer] * (ad[outer] - r2[outer]) ** 2)
    dval[outer] = 2.0 * b[outer] * (ad[outer] - r2[outer])
    return val, dval * np.sign(d)


def bell_value_grad_reference(x: np.ndarray, y: np.ndarray,
                              half_w: np.ndarray, half_h: np.ndarray,
                              cell_area: np.ndarray, *,
                              cx: np.ndarray, cy: np.ndarray,
                              bin_w: float, bin_h: float,
                              origin_x: float, origin_y: float,
                              target: np.ndarray
                              ) -> tuple[float, np.ndarray, np.ndarray]:
    """The original per-cell window loop for the bell density penalty."""
    nx, ny = target.shape
    phi = np.zeros((nx, ny))
    reach_x = half_w + 2.0 * bin_w
    reach_y = half_h + 2.0 * bin_h
    count = x.shape[0]
    windows = []
    for k in range(count):
        i0 = max(int((x[k] - reach_x[k] - origin_x) / bin_w), 0)
        i1 = min(int((x[k] + reach_x[k] - origin_x) / bin_w) + 1, nx)
        j0 = max(int((y[k] - reach_y[k] - origin_y) / bin_h), 0)
        j1 = min(int((y[k] + reach_y[k] - origin_y) / bin_h) + 1, ny)
        if i0 >= i1 or j0 >= j1:
            continue
        dx = x[k] - cx[i0:i1]
        dy = y[k] - cy[j0:j1]
        px, dpx = _bell_1d_reference(dx, np.full_like(dx, half_w[k]), bin_w)
        py, dpy = _bell_1d_reference(dy, np.full_like(dy, half_h[k]), bin_h)
        norm = px.sum() * py.sum()
        if norm <= 1e-12:
            continue
        scale = cell_area[k] / norm
        phi[i0:i1, j0:j1] += scale * np.outer(px, py)
        windows.append((k, slice(i0, i1), slice(j0, j1),
                        px, py, dpx, dpy, scale))

    diff = phi - target
    value = float((diff ** 2).sum())
    gx = np.zeros(count)
    gy = np.zeros(count)
    for k, si, sj, px, py, dpx, dpy, scale in windows:
        local = diff[si, sj]
        base = float(px @ local @ py)
        sx = float(px.sum())
        sy = float(py.sum())
        gx[k] = 2.0 * scale * (float(dpx @ local @ py)
                               - float(dpx.sum()) / max(sx, 1e-12) * base)
        gy[k] = 2.0 * scale * (float(px @ local @ dpy)
                               - float(dpy.sum()) / max(sy, 1e-12) * base)
    return value, gx, gy


def b2b_pairs_reference(pin_pos: np.ndarray, net_start: np.ndarray,
                        net_weight: np.ndarray, pin_cell: np.ndarray,
                        offsets: np.ndarray, eps: float
                        ) -> list[tuple[int, int, float, float]]:
    """Scalar per-net B2B pair enumeration (the original assembly loop)."""
    pairs: list[tuple[int, int, float, float]] = []
    for j in range(len(net_start) - 1):
        s, e = net_start[j], net_start[j + 1]
        deg = e - s
        if deg < 2:
            continue
        p = pin_pos[s:e]
        lo = s + int(np.argmin(p))
        hi = s + int(np.argmax(p))
        if lo == hi:
            hi = s if lo != s else s + 1
        wnet = net_weight[j] * 2.0 / (deg - 1)

        def add_b2b(k: int, bnd: int) -> None:
            ci, cj = int(pin_cell[k]), int(pin_cell[bnd])
            if ci == cj:
                return
            dist = abs(pin_pos[k] - pin_pos[bnd])
            w = wnet / max(dist, eps)
            pairs.append((ci, cj, w, float(offsets[k] - offsets[bnd])))

        add_b2b(lo, hi)
        for k in range(s, e):
            if k == lo or k == hi:
                continue
            add_b2b(k, lo)
            add_b2b(k, hi)
    return pairs


def poisson_reference(rho: np.ndarray, bin_w: float,
                      bin_h: float) -> np.ndarray:
    """Dense O(n²) solve of the discrete Neumann Poisson problem.

    Builds the 5-point Laplacian with mirrored (zero-flux) boundaries as
    a dense matrix and solves ``-L psi = rho - mean(rho)`` by least
    squares with the zero-mean gauge (the Neumann operator is singular;
    its nullspace is the constant vector).  This is the ground truth the
    FFT/DCT spectral solve of :mod:`repro.place.electrostatic` is tested
    against on small grids.
    """
    nx, ny = rho.shape
    n = nx * ny
    L = np.zeros((n, n))
    inv_w2 = 1.0 / (bin_w * bin_w)
    inv_h2 = 1.0 / (bin_h * bin_h)
    for i in range(nx):
        for j in range(ny):
            r = i * ny + j
            for di, dj, inv in ((-1, 0, inv_w2), (1, 0, inv_w2),
                                (0, -1, inv_h2), (0, 1, inv_h2)):
                ii, jj = i + di, j + dj
                # Neumann mirror: the ghost neighbour reflects back
                if ii < 0 or ii >= nx:
                    ii = i
                if jj < 0 or jj >= ny:
                    jj = j
                L[r, ii * ny + jj] += inv
                L[r, r] -= inv
    rhs = (rho - rho.mean()).reshape(n)
    psi, *_ = np.linalg.lstsq(-L, rhs, rcond=None)
    psi -= psi.mean()
    return psi.reshape(nx, ny)


def incident_cost_reference(netlist: Netlist,
                            cells: Iterable[Cell]) -> float:
    """Weighted HPWL of the nets incident to ``cells``, by an
    object-model walk: the reference :class:`~repro.kernels.IncrementalHPWL`
    is tested against."""
    seen: set[int] = set()
    total = 0.0
    for cell in cells:
        for net in netlist.nets_of(cell):
            if net.index in seen or net.degree < 2 or net.weight == 0.0:
                continue
            seen.add(net.index)
            total += net.weight * net.hpwl()
    return total


def rmst_length_reference(xs: np.ndarray, ys: np.ndarray) -> float:
    """The original masked-Prim rectilinear MST."""
    n = len(xs)
    if n <= 1:
        return 0.0
    in_tree = np.zeros(n, dtype=bool)
    dist = np.abs(xs - xs[0]) + np.abs(ys - ys[0])
    in_tree[0] = True
    dist[0] = np.inf
    total = 0.0
    for _ in range(n - 1):
        k = int(np.argmin(dist))
        total += float(dist[k])
        in_tree[k] = True
        new_d = np.abs(xs - xs[k]) + np.abs(ys - ys[k])
        dist = np.minimum(dist, new_d)
        dist[in_tree] = np.inf
    return total
