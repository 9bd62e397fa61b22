"""Rasterized density kernels.

Two services, both formerly open-coded as nested Python loops in
:mod:`repro.place.density`:

- :func:`rasterize_overlap` — exact clipped rectangle/bin overlap
  accumulation.  Cells touching few bins (the overwhelming majority) are
  processed with an offset-sweep: for each (di, dj) bin offset within
  the largest touched window, the overlap of *every* cell with that
  relative bin is computed in one vectorized step and scattered with
  ``np.add.at``.  Rare large cells (fixed macros spanning many bins)
  are rasterized individually with an outer-product window add.
- :func:`bell_value_grad` — the NTUplace bell-shaped density potential,
  evaluated for all cells at once over fixed-width padded windows; the
  gradient gathers ``phi - target`` back through the same windows.

The bell kernel's large scratch arrays (the (C, Sx, Sy) contribution
tensor and friends) can be reused across calls through an optional
:class:`~repro.kernels.workspace.Workspace` — per-iteration allocator
traffic is the kernel's main overhead at scale.  Workspace reuse keeps
the floating-point operation order identical, so results match the
workspace-free path bit for bit.
"""

from __future__ import annotations

import numpy as np

from .workspace import Workspace

# windows larger than this (in bins) fall back to per-cell rasterization
_BIG_WINDOW = 64


def rasterize_overlap(xl: np.ndarray, xr: np.ndarray, yb: np.ndarray,
                      yt: np.ndarray, *, nx: int, ny: int,
                      bin_w: float, bin_h: float,
                      origin_x: float, origin_y: float,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Accumulate exact rectangle/bin overlap areas onto an (nx, ny) grid.

    Args:
        xl / xr / yb / yt: (C,) rectangle edges.
        nx / ny: grid dimensions.
        bin_w / bin_h: bin pitch.
        origin_x / origin_y: grid origin (lower-left corner).
        out: optional accumulator to add into.

    Returns:
        The (nx, ny) overlap-area array (``out`` when given).
    """
    area = out if out is not None else np.zeros((nx, ny))
    if xl.shape[0] == 0:
        return area
    il = np.clip(((xl - origin_x) / bin_w).astype(np.int64), 0, nx - 1)
    ir = np.clip(np.ceil((xr - origin_x) / bin_w).astype(np.int64) - 1,
                 0, nx - 1)
    jb = np.clip(((yb - origin_y) / bin_h).astype(np.int64), 0, ny - 1)
    jt = np.clip(np.ceil((yt - origin_y) / bin_h).astype(np.int64) - 1,
                 0, ny - 1)
    span = (ir - il + 1) * (jt - jb + 1)
    big = span > _BIG_WINDOW

    small = ~big
    if small.any():
        sil, sir = il[small], ir[small]
        sjb, sjt = jb[small], jt[small]
        sxl, sxr = xl[small], xr[small]
        syb, syt = yb[small], yt[small]
        for di in range(int((sir - sil).max()) + 1):
            i = sil + di
            in_x = i <= sir
            left = origin_x + i * bin_w
            ox = np.minimum(sxr, left + bin_w) - np.maximum(sxl, left)
            in_x &= ox > 0
            for dj in range(int((sjt - sjb).max()) + 1):
                j = sjb + dj
                bottom = origin_y + j * bin_h
                oy = np.minimum(syt, bottom + bin_h) - np.maximum(syb, bottom)
                m = in_x & (j <= sjt) & (oy > 0)
                if m.any():
                    np.add.at(area, (i[m], j[m]), ox[m] * oy[m])

    for k in np.nonzero(big)[0].tolist():
        i = np.arange(il[k], ir[k] + 1)
        j = np.arange(jb[k], jt[k] + 1)
        left = origin_x + i * bin_w
        bottom = origin_y + j * bin_h
        ox = np.minimum(xr[k], left + bin_w) - np.maximum(xl[k], left)
        oy = np.minimum(yt[k], bottom + bin_h) - np.maximum(yb[k], bottom)
        area[il[k]:ir[k] + 1, jb[k]:jt[k] + 1] += \
            np.outer(np.clip(ox, 0.0, None), np.clip(oy, 0.0, None))
    return area


def bell_1d(d: np.ndarray, half_span: np.ndarray, pitch: float
            ) -> tuple[np.ndarray, np.ndarray]:
    """Bell value and derivative vs center distance (broadcasting).

    The bell for a cell of half-width ``half_span`` on bins of pitch
    ``pitch``: flat-topped quadratic falling to zero at
    ``r2 = half_span + 2 * pitch`` with an inner knee at
    ``r1 = half_span + pitch`` (Chen et al., NTUplace).
    """
    half_span = np.broadcast_to(half_span, d.shape)
    ad = np.abs(d)
    r1 = half_span + pitch
    r2 = half_span + 2.0 * pitch
    a = 1.0 / np.maximum(r1 * (r1 + pitch), 1e-12)
    b = a * r1 / max(pitch, 1e-12)
    inner = ad <= r1
    outer = (~inner) & (ad < r2)
    val = np.where(inner, 1.0 - a * ad ** 2,
                   np.where(outer, b * (ad - r2) ** 2, 0.0))
    dval = np.where(inner, -2.0 * a * ad,
                    np.where(outer, 2.0 * b * (ad - r2), 0.0))
    return val, dval * np.sign(d)


def _axis_windows(coords: np.ndarray, half_span: np.ndarray, reach: np.ndarray,
                  centers: np.ndarray, pitch: float, origin: float,
                  n_bins: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Padded per-cell bin windows for one axis.

    Returns ``(idx, valid, val, dval)`` of shape (C, S): clipped bin
    indices, an in-window validity mask, and the bell value/derivative
    (zeroed outside the window).  The window bounds reproduce the scalar
    reference exactly: ``int()`` truncation, then clamped to the grid.
    """
    lo = ((coords - reach - origin) / pitch).astype(np.int64)
    hi = ((coords + reach - origin) / pitch).astype(np.int64) + 1
    lo_c = np.maximum(lo, 0)
    hi_c = np.minimum(hi, n_bins)
    width = int(np.maximum(hi_c - lo_c, 0).max(initial=0))
    cols = np.arange(max(width, 1), dtype=np.int64)
    idx = lo_c[:, None] + cols[None, :]
    valid = idx < hi_c[:, None]
    idx = np.clip(idx, 0, n_bins - 1)
    d = coords[:, None] - centers[idx]
    val, dval = bell_1d(d, half_span[:, None], pitch)
    val = np.where(valid, val, 0.0)
    dval = np.where(valid, dval, 0.0)
    return idx, valid, val, dval


def bell_value_grad(x: np.ndarray, y: np.ndarray, half_w: np.ndarray,
                    half_h: np.ndarray, cell_area: np.ndarray, *,
                    cx: np.ndarray, cy: np.ndarray,
                    bin_w: float, bin_h: float,
                    origin_x: float, origin_y: float,
                    target: np.ndarray,
                    workspace: Workspace | None = None
                    ) -> tuple[float, np.ndarray, np.ndarray]:
    """Bell density penalty ``sum_b (phi_b - t_b)^2`` and its gradient.

    Args:
        x / y: (C,) centers of the contributing (movable) cells.
        half_w / half_h: (C,) half sizes.
        cell_area: (C,) areas (each cell deposits exactly its area).
        cx / cy: bin center coordinate arrays.
        bin_w / bin_h: bin pitch.
        origin_x / origin_y: grid origin.
        target: (nx, ny) per-bin target area.
        workspace: optional scratch arena; the (C, Sx, Sy) contribution
            tensor, deposit grid, window mask, and gather buffer are
            reused across calls instead of reallocated.

    Returns:
        ``(value, gx, gy)`` with (C,) gradients w.r.t. the given centers.
    """
    nx, ny = target.shape
    if x.shape[0] == 0:
        diff = -target
        return float((diff ** 2).sum()), np.zeros(0), np.zeros(0)
    ix, valid_x, px, dpx = _axis_windows(
        x, half_w, half_w + 2.0 * bin_w, cx, bin_w, origin_x, nx)
    jy, valid_y, py, dpy = _axis_windows(
        y, half_h, half_h + 2.0 * bin_h, cy, bin_h, origin_y, ny)

    sx = px.sum(axis=1)
    sy = py.sum(axis=1)
    norm = sx * sy
    live = norm > 1e-12
    scale = np.where(live, cell_area / np.where(live, norm, 1.0), 0.0)

    shape3 = (x.shape[0], px.shape[1], py.shape[1])
    # deposit: phi[i, j] += scale_k * px[k, a] * py[k, b]
    if workspace is None:
        contrib = scale[:, None, None] * px[:, :, None] * py[:, None, :]
        mask = valid_x[:, :, None] & valid_y[:, None, :] & live[:, None, None]
        phi = np.zeros((nx, ny))
    else:
        contrib = workspace.take("bell.contrib", shape3)
        np.multiply(scale[:, None, None] * px[:, :, None], py[:, None, :],
                    out=contrib)
        mask = workspace.take("bell.mask", shape3, dtype=np.bool_)
        np.logical_and(valid_x[:, :, None], valid_y[:, None, :], out=mask)
        np.logical_and(mask, live[:, None, None], out=mask)
        phi = workspace.take("bell.phi", (nx, ny), zero=True)
    big_i = np.broadcast_to(ix[:, :, None], contrib.shape)
    big_j = np.broadcast_to(jy[:, None, :], contrib.shape)
    np.add.at(phi, (big_i[mask], big_j[mask]), contrib[mask])

    diff = phi - target
    value = float((diff ** 2).sum())

    # gather: local_k = diff[window_k], then the exact derivative with the
    # per-cell normaliser correction (d log norm terms)
    if workspace is None:
        local = np.where(mask, diff[big_i, big_j], 0.0)
    else:
        # multiply-by-mask matches where() bitwise on finite inputs and
        # skips both the zero fill and the masked fancy-index store
        local = workspace.take("bell.local", shape3)
        np.multiply(diff[big_i, big_j], mask, out=local)
    base = np.einsum("ka,kab,kb->k", px, local, py)
    gx_raw = np.einsum("ka,kab,kb->k", dpx, local, py)
    gy_raw = np.einsum("ka,kab,kb->k", px, local, dpy)
    inv_sx = 1.0 / np.maximum(sx, 1e-12)
    inv_sy = 1.0 / np.maximum(sy, 1e-12)
    gx = 2.0 * scale * (gx_raw - dpx.sum(axis=1) * inv_sx * base)
    gy = 2.0 * scale * (gy_raw - dpy.sum(axis=1) * inv_sy * base)
    gx[~live] = 0.0
    gy[~live] = 0.0
    return value, gx, gy
