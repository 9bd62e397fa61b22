"""RUDY congestion estimation (Spindler & Johannes, DATE 2007).

RUDY (Rectangular Uniform wire DensitY) spreads each net's estimated wire
volume (HPWL * wire width) uniformly over its bounding box, accumulating a
per-bin routing-demand map.  It is router-free, fast, and — for comparing
two placements of the same netlist — ranks congestion reliably.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..netlist import Netlist
from ..place.region import BinGrid


@dataclass(frozen=True)
class CongestionReport:
    """Aggregate congestion metrics from a RUDY map."""

    mean: float
    max: float
    p95: float     # 95th-percentile bin demand
    hotspots: int  # bins above 2x mean

    def row(self) -> dict[str, float]:
        return {"rudy_mean": round(self.mean, 4),
                "rudy_max": round(self.max, 4),
                "rudy_p95": round(self.p95, 4)}


def rudy_map(netlist: Netlist, grid: BinGrid, *,
             wire_width: float = 1.0) -> np.ndarray:
    """(nx, ny) RUDY routing-demand map.

    Each net of degree >= 2 and weight != 0 deposits ``hpwl *
    wire_width / bbox_area`` uniformly over the bins its bounding box
    overlaps (partial overlaps pro-rated).
    """
    nx, ny = grid.nx, grid.ny
    demand = np.zeros((nx, ny))
    ex, ey = grid.edges()
    for net in netlist.nets:
        if net.degree < 2 or net.weight == 0.0:
            continue
        xmin, ymin, xmax, ymax = net.bounding_box()
        hpwl = (xmax - xmin) + (ymax - ymin)
        if hpwl <= 0:
            continue
        w = max(xmax - xmin, wire_width)
        h = max(ymax - ymin, wire_width)
        density = hpwl * wire_width / (w * h)
        i0 = max(int(np.searchsorted(ex, xmin, "right")) - 1, 0)
        i1 = min(int(np.searchsorted(ex, xmax, "left")), nx - 1)
        j0 = max(int(np.searchsorted(ey, ymin, "right")) - 1, 0)
        j1 = min(int(np.searchsorted(ey, ymax, "left")), ny - 1)
        for i in range(i0, i1 + 1):
            ox = min(xmax, ex[i + 1]) - max(xmin, ex[i])
            ox = min(max(ox, 0.0), grid.bin_w)
            if w < grid.bin_w:
                ox = max(ox, wire_width)
            for j in range(j0, j1 + 1):
                oy = min(ymax, ey[j + 1]) - max(ymin, ey[j])
                oy = min(max(oy, 0.0), grid.bin_h)
                if h < grid.bin_h:
                    oy = max(oy, wire_width)
                demand[i, j] += density * ox * oy / grid.bin_area
    return demand


def congestion_report(netlist: Netlist, grid: BinGrid) -> CongestionReport:
    """Summarise a RUDY map into scalar metrics."""
    demand = rudy_map(netlist, grid)
    flat = demand.ravel()
    mean = float(flat.mean())
    return CongestionReport(
        mean=mean,
        max=float(flat.max()),
        p95=float(np.percentile(flat, 95)),
        hotspots=int((flat > 2.0 * max(mean, 1e-12)).sum()),
    )
