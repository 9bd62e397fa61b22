"""F4 — Runtime scaling.

Placer wall-clock vs design size for both flows (pipeline-texture designs
at 55% datapath share), plus the phase breakdown of the structure-aware
run.  Reconstructed expectation: both flows scale near-quadratically in
this pure-Python prototype (the repro=3 band: "prototype possible but
slow on real benchmarks"), with extraction a small fraction of total
runtime.

Setting ``REPRO_F4_LARGE=1`` appends a ~100k-cell point run with the
FFT electrostatic engine through the multilevel V-cycle (the only
configuration that finishes a design that size in reasonable time in
pure Python); the baseline flow is skipped there.
"""

import os

from common import save_result

from repro.core import (BaselinePlacer, PlacerOptions,
                        StructureAwarePlacer)
from repro.eval import format_series
from repro.gen import datapath_fraction_design
from repro.place.multilevel import MultilevelOptions

_SIZES = (400, 800, 1600, 3200)
# requested generator cells -> ~100k placed cells (see bench_kernels'
# engine shoot-out, which gates this configuration's speed and quality)
_LARGE_SIZE = 68000


def _run_f4() -> str:
    points = []
    for n in _SIZES:
        base_design = datapath_fraction_design(f"f4_{n}", n, 0.55, seed=9)
        base = BaselinePlacer().place(base_design.netlist,
                                      base_design.region)
        struct_design = datapath_fraction_design(f"f4_{n}", n, 0.55, seed=9)
        struct = StructureAwarePlacer().place(struct_design.netlist,
                                              struct_design.region)
        points.append({
            "cells": struct_design.netlist.num_cells,
            "base_t_s": round(base.runtime_s, 2),
            "struct_t_s": round(struct.runtime_s, 2),
            "extract_s": round(struct.extract_s, 2),
            "gp_s": round(struct.gp_s, 2),
            "legal_s": round(struct.legalize_s, 2),
            "detailed_s": round(struct.detailed_s, 2),
        })
    if os.environ.get("REPRO_F4_LARGE"):
        n = _LARGE_SIZE
        d = datapath_fraction_design(f"f4_{n}", n, 0.55, seed=9)
        opts = PlacerOptions(
            engine="electro", multilevel=MultilevelOptions(enabled=True))
        struct = StructureAwarePlacer(opts).place(d.netlist, d.region)
        points.append({
            "cells": d.netlist.num_cells,
            "struct_t_s": round(struct.runtime_s, 2),
            "extract_s": round(struct.extract_s, 2),
            "gp_s": round(struct.gp_s, 2),
            "legal_s": round(struct.legalize_s, 2),
            "detailed_s": round(struct.detailed_s, 2),
        })
    return format_series(points, title="F4: runtime vs design size")


def test_f4_scalability(benchmark):
    text = benchmark.pedantic(_run_f4, rounds=1, iterations=1)
    save_result("f4_scalability", text)
    assert "cells" in text
