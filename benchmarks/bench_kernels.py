"""Perf-regression harness for the vectorized kernel layer.

Times every kernel in :mod:`repro.kernels` against its retained scalar
reference (the per-pin B2B gradient against the enumerated pair list it
replaced, the SPD factorization of a B2B system against ``spsolve``'s
COLAMD ordering with partial pivoting) on a large generated design,
checks 1e-9 relative equivalence (exit 1 on disagreement — the hard CI
gate), measures the workspace scratch-reuse delta (bit-identity gated),
races the electrostatic engine against the flat B2B quadratic engine on
a ~100k-cell design (speed and HPWL gates — see ``ELECTRO_*``), and
measures end-to-end ``StructureAwarePlacer`` wall time at three sizes.
The config block records the Python and numpy versions the timings were
taken on.  Results merge into ``BENCH_PERF.json`` (repo root by default;
existing sections from other benchmarks are preserved) for the CI
artifact upload.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--quick]
        [--out BENCH_PERF.json]

``--quick`` shrinks the kernel design and the end-to-end sizes so the CI
perf-smoke job finishes in ~a minute; the committed BENCH_PERF.json
comes from a full run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import spsolve

from repro.core import PlacerOptions, StructureAwarePlacer
from repro.gen import datapath_fraction_design
from repro.kernels import (IncrementalHPWL, Workspace, b2b_grad,
                           bell_value_grad, expand_pin_net, hpwl_kernel,
                           hpwl_per_net_kernel, rasterize_overlap)
from repro.kernels.b2b import b2b_pairs
from repro.kernels.reference import (bell_value_grad_reference,
                                     hpwl_per_net_reference, hpwl_reference,
                                     incident_cost_reference,
                                     rasterize_overlap_reference)
from repro.place import PlacementArrays
from repro.place.b2b import B2BBuilder
from repro.place.electrostatic import ElectroOptions, ElectrostaticPlacer
from repro.place.multilevel import MultilevelOptions
from repro.place.multilevel.vcycle import multilevel_place
from repro.place.quadratic import QuadraticPlacer
from repro.place.wirelength import hpwl as hpwl_of

EQUIV_RTOL = 1e-9

# electrostatic-engine gates (GP only, at the full-run engine size):
# electro must beat the flat B2B quadratic engine by >= 2x wall clock,
# give up <= 5% HPWL flat, and <= 2% through the multilevel V-cycle.
ELECTRO_SPEEDUP_MIN = 2.0
ELECTRO_HPWL_TOL = 0.05
ELECTRO_ML_HPWL_TOL = 0.02


def _best_of(fn, repeats: int) -> float:
    """Best wall time of ``repeats`` calls (min filters scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _rel_err(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = np.maximum(np.abs(want), 1e-12)
    return float(np.max(np.abs(got - want) / scale)) if got.size else 0.0


def _record(name: str, ref_s: float, vec_s: float, err: float,
            failures: list[str]) -> dict:
    speedup = ref_s / max(vec_s, 1e-12)
    ok = err <= EQUIV_RTOL
    if not ok:
        failures.append(f"{name}: max rel err {err:.3e} > {EQUIV_RTOL:g}")
    print(f"  {name:<18} ref {ref_s * 1e3:9.2f} ms   "
          f"vec {vec_s * 1e3:9.2f} ms   {speedup:7.1f}x   "
          f"err {err:.1e} {'OK' if ok else 'FAIL'}")
    return {"reference_s": round(ref_s, 6), "vectorized_s": round(vec_s, 6),
            "speedup": round(speedup, 2), "max_rel_err": err,
            "equivalent": ok}


def bench_kernels(n_cells: int, failures: list[str], *,
                  n_moves: int = 2000) -> dict:
    """Kernel-vs-reference timings on one generated design."""
    print(f"kernel design: {n_cells} cells (datapath fraction 0.55)")
    gd = datapath_fraction_design(f"bench_{n_cells}", n_cells, 0.55, seed=3)
    nl = gd.netlist
    arrays = PlacementArrays.build(nl)
    x, y = arrays.initial_positions()
    px, py = arrays.pin_positions(x, y)
    starts = arrays.net_start
    weights = arrays.net_weight
    out: dict = {"design_cells": nl.num_cells, "nets": arrays.num_nets,
                 "pins": int(starts[-1])}

    # --- total + per-net HPWL -----------------------------------------
    want = hpwl_reference(px, py, starts, weights)
    got = hpwl_kernel(px, py, starts, weights)
    out["hpwl"] = _record(
        "hpwl", _best_of(lambda: hpwl_reference(px, py, starts, weights), 2),
        _best_of(lambda: hpwl_kernel(px, py, starts, weights), 5),
        _rel_err(got, want), failures)

    want = hpwl_per_net_reference(px, py, starts)
    got = hpwl_per_net_kernel(px, py, starts)
    out["hpwl_per_net"] = _record(
        "hpwl_per_net",
        _best_of(lambda: hpwl_per_net_reference(px, py, starts), 2),
        _best_of(lambda: hpwl_per_net_kernel(px, py, starts), 5),
        _rel_err(got, want), failures)

    # --- density rasterization + bell gradient ------------------------
    half_w = arrays.width / 2.0
    half_h = arrays.height / 2.0
    xl, xr = x - half_w, x + half_w
    yb, yt = y - half_h, y + half_h
    region = gd.region
    nx = ny = 48
    grid = dict(nx=nx, ny=ny, bin_w=(region.x_end - region.x) / nx,
                bin_h=(region.y_top - region.y) / ny,
                origin_x=region.x, origin_y=region.y)
    want = rasterize_overlap_reference(xl, xr, yb, yt, **grid)
    got = rasterize_overlap(xl, xr, yb, yt, **grid)
    out["density_raster"] = _record(
        "density_raster",
        _best_of(lambda: rasterize_overlap_reference(xl, xr, yb, yt,
                                                     **grid), 2),
        _best_of(lambda: rasterize_overlap(xl, xr, yb, yt, **grid), 5),
        _rel_err(got, want), failures)

    mv = arrays.movable
    cell_area = arrays.width * arrays.height
    bell = dict(cx=region.x + (np.arange(nx) + 0.5) * grid["bin_w"],
                cy=region.y + (np.arange(ny) + 0.5) * grid["bin_h"],
                bin_w=grid["bin_w"], bin_h=grid["bin_h"],
                origin_x=region.x, origin_y=region.y,
                target=np.full((nx, ny),
                               grid["bin_w"] * grid["bin_h"] * 0.9))
    bx, by = x[mv], y[mv]
    bw, bh, ba = half_w[mv], half_h[mv], cell_area[mv]
    want = bell_value_grad_reference(bx, by, bw, bh, ba, **bell)
    got = bell_value_grad(bx, by, bw, bh, ba, **bell)
    err = max(_rel_err(got[0], want[0]), _rel_err(got[1], want[1]),
              _rel_err(got[2], want[2]))
    out["density_bell"] = _record(
        "density_bell",
        _best_of(lambda: bell_value_grad_reference(bx, by, bw, bh, ba,
                                                   **bell), 2),
        _best_of(lambda: bell_value_grad(bx, by, bw, bh, ba, **bell), 3),
        err, failures)

    # workspace reuse: same kernel, scratch served from a per-design
    # arena instead of fresh allocations — must stay bit-identical
    ws = Workspace()
    got_ws = bell_value_grad(bx, by, bw, bh, ba, workspace=ws, **bell)
    ws_err = max(_rel_err(got_ws[0], got[0]), _rel_err(got_ws[1], got[1]),
                 _rel_err(got_ws[2], got[2]))
    if ws_err > 0.0:
        failures.append(f"density_bell workspace path not bit-identical "
                        f"(max rel err {ws_err:.3e})")
    ws_s = _best_of(lambda: bell_value_grad(bx, by, bw, bh, ba,
                                            workspace=ws, **bell), 3)
    out["density_bell"]["workspace_s"] = round(ws_s, 6)
    out["density_bell"]["workspace_saved_frac"] = round(
        1.0 - ws_s / max(out["density_bell"]["vectorized_s"], 1e-12), 4)
    print(f"  {'  + workspace':<18} "
          f"{'':>13}   ws  {ws_s * 1e3:9.2f} ms   "
          f"saved {out['density_bell']['workspace_saved_frac'] * 100:+.1f}%"
          f"   err {ws_err:.1e} {'OK' if ws_err == 0.0 else 'FAIL'}")

    # --- B2B system assembly ------------------------------------------
    builder = B2BBuilder(arrays)
    want_sys = builder.build_axis_reference(x, arrays.pin_dx, anchors=x,
                                            anchor_weight=0.05)
    got_sys = builder.build_axis(x, arrays.pin_dx, anchors=x,
                                 anchor_weight=0.05)
    diff = got_sys.A - want_sys.A
    a_err = 0.0 if diff.nnz == 0 else \
        float(np.abs(diff.data).max()
              / max(np.abs(want_sys.A.data).max(), 1e-12))
    err = max(a_err, _rel_err(got_sys.b, want_sys.b))
    out["b2b_assembly"] = _record(
        "b2b_assembly",
        _best_of(lambda: builder.build_axis_reference(
            x, arrays.pin_dx, anchors=x, anchor_weight=0.05), 2),
        _best_of(lambda: builder.build_axis(
            x, arrays.pin_dx, anchors=x, anchor_weight=0.05), 5),
        err, failures)

    # workspace reuse on the pair kernel (the allocation-heavy part of
    # assembly): arena-served stacks must stay bit-identical
    pin_net = expand_pin_net(arrays.net_start)
    px_b2b = x[arrays.pin_cell] + arrays.pin_dx
    cold = b2b_pairs(px_b2b, starts, weights, arrays.pin_cell,
                     arrays.pin_dx, pin_net, 1e-6)
    warm = b2b_pairs(px_b2b, starts, weights, arrays.pin_cell,
                     arrays.pin_dx, pin_net, 1e-6, workspace=ws)
    ws_err = max(_rel_err(w_, c_) for w_, c_ in zip(warm, cold))
    if ws_err > 0.0:
        failures.append(f"b2b_pairs workspace path not bit-identical "
                        f"(max rel err {ws_err:.3e})")
    cold_s = _best_of(lambda: b2b_pairs(px_b2b, starts, weights,
                                        arrays.pin_cell, arrays.pin_dx,
                                        pin_net, 1e-6), 5)
    warm_s = _best_of(lambda: b2b_pairs(px_b2b, starts, weights,
                                        arrays.pin_cell, arrays.pin_dx,
                                        pin_net, 1e-6, workspace=ws), 5)
    out["b2b_assembly"]["pairs_fresh_s"] = round(cold_s, 6)
    out["b2b_assembly"]["workspace_s"] = round(warm_s, 6)
    out["b2b_assembly"]["workspace_saved_frac"] = round(
        1.0 - warm_s / max(cold_s, 1e-12), 4)
    print(f"  {'  + workspace':<18} "
          f"frs {cold_s * 1e3:9.2f} ms   ws  {warm_s * 1e3:9.2f} ms   "
          f"saved {out['b2b_assembly']['workspace_saved_frac'] * 100:+.1f}%"
          f"   err {ws_err:.1e} {'OK' if ws_err == 0.0 else 'FAIL'}")

    # --- B2B solve: SPD factorization vs spsolve's COLAMD + pivoting ---
    # (the anchored system above; error normwise, relative to the
    # largest coordinate, as for the gradient below)
    def colamd_solve() -> np.ndarray:
        return spsolve(got_sys.A.tocsc(), got_sys.b)

    want = colamd_solve()
    got = got_sys.solve_direct()
    out["b2b_solve"] = _record(
        "b2b_solve", _best_of(colamd_solve, 2),
        _best_of(got_sys.solve_direct, 3),
        float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-12)),
        failures)

    # --- B2B gradient: per-pin kernel vs the enumerated pair list -----
    # (the electro engine's clamp; error relative to the largest entry,
    # because a cell pulled equally both ways sums to ~0 on both paths)
    eps = ElectroOptions().min_distance

    def pair_grad() -> np.ndarray:
        pin_pos = x[arrays.pin_cell] + arrays.pin_dx
        return b2b_grad(*b2b_pairs(pin_pos, starts, weights,
                                   arrays.pin_cell, arrays.pin_dx,
                                   pin_net, eps), x)[1]

    want = pair_grad()
    got = builder.grad_axis(x, arrays.pin_dx, min_distance=eps)
    out["b2b_grad"] = _record(
        "b2b_grad", _best_of(pair_grad, 5),
        _best_of(lambda: builder.grad_axis(x, arrays.pin_dx,
                                           min_distance=eps), 5),
        float(np.abs(got - want).max()
              / max(np.abs(want).max(), 1e-12)), failures)

    # --- incremental swap evaluation ----------------------------------
    inc = IncrementalHPWL(nl)
    cells = nl.movable_cells()
    rng = np.random.default_rng(7)
    picks = rng.integers(0, len(cells), size=(n_moves, 2))

    def eval_reference() -> float:
        total = 0.0
        for pa, pb in picks:
            a, b = cells[pa], cells[pb]
            if a is b:
                continue
            before = incident_cost_reference(nl, (a, b))
            a.x, b.x = b.x, a.x
            a.y, b.y = b.y, a.y
            after = incident_cost_reference(nl, (a, b))
            a.x, b.x = b.x, a.x          # always reject: pure evaluation
            a.y, b.y = b.y, a.y
            total += after - before
        return total

    def eval_incremental() -> float:
        total = 0.0
        for pa, pb in picks:
            a, b = cells[pa], cells[pb]
            if a is b:
                continue
            before, after = inc.propose([a.index, b.index],
                                        [b.x, a.x], [b.y, a.y])
            inc.rollback()
            total += after - before
        return total

    want_total = eval_reference()
    got_total = eval_incremental()
    ref_s = _best_of(eval_reference, 1)
    vec_s = _best_of(eval_incremental, 2)
    out["incremental_swap"] = _record(
        "incremental_swap", ref_s / n_moves * 1.0, vec_s / n_moves * 1.0,
        _rel_err(got_total, want_total), failures)
    out["incremental_swap"]["moves"] = n_moves
    out["incremental_swap"]["reference_s"] = round(ref_s, 6)
    out["incremental_swap"]["vectorized_s"] = round(vec_s, 6)
    return out


def bench_engines(n_cells: int, failures: list[str], *,
                  gate_speedup: bool) -> dict:
    """Flat B2B GP vs electrostatic engine vs multilevel+electro.

    Global placement only (no legalization/detailed — those stages are
    engine-independent), on one generated design.  Gates, full run only:
    electro >= ``ELECTRO_SPEEDUP_MIN``x over flat B2B at
    <= ``ELECTRO_HPWL_TOL`` HPWL regression, multilevel+electro within
    ``ELECTRO_ML_HPWL_TOL``.  The quick run keeps the HPWL gates (the
    design is too small for the wall-clock gate to be meaningful).
    """
    gd = datapath_fraction_design(f"engines_{n_cells}", n_cells, 0.55,
                                  seed=9)
    arrays = PlacementArrays.build(gd.netlist)
    print(f"engine design: {gd.netlist.num_cells} cells "
          f"(requested {n_cells})")
    rows: dict = {"design_cells": gd.netlist.num_cells}

    def run(label: str, fn) -> dict:
        t0 = time.perf_counter()
        res = fn()
        dt = time.perf_counter() - t0
        wl = hpwl_of(arrays, res.x, res.y)
        row = {"time_s": round(dt, 3), "hpwl": round(wl, 3)}
        print(f"  {label:<22} {dt:8.2f} s   hpwl {wl:14.1f}")
        return row

    rows["flat_b2b"] = run(
        "flat B2B quadratic",
        lambda: QuadraticPlacer(arrays, gd.region).place())
    rows["electro"] = run(
        "electro (flat)",
        lambda: ElectrostaticPlacer(arrays, gd.region).place())
    rows["multilevel_electro"] = run(
        "multilevel + electro",
        lambda: multilevel_place(arrays, gd.region,
                                 ml_options=MultilevelOptions(enabled=True)))

    base_t = rows["flat_b2b"]["time_s"]
    base_wl = rows["flat_b2b"]["hpwl"]
    for key, tol in (("electro", ELECTRO_HPWL_TOL),
                     ("multilevel_electro", ELECTRO_ML_HPWL_TOL)):
        rows[key]["speedup"] = round(base_t / max(rows[key]["time_s"],
                                                  1e-9), 2)
        delta = (rows[key]["hpwl"] - base_wl) / max(base_wl, 1e-9)
        rows[key]["hpwl_delta"] = round(delta, 4)
        if delta > tol:
            failures.append(
                f"engines: {key} HPWL {delta * 100:+.2f}% vs flat B2B "
                f"exceeds {tol * 100:.0f}% tolerance")
    if gate_speedup and rows["electro"]["speedup"] < ELECTRO_SPEEDUP_MIN:
        failures.append(
            f"engines: electro speedup {rows['electro']['speedup']:.2f}x "
            f"< required {ELECTRO_SPEEDUP_MIN:.0f}x over flat B2B GP")
    rows["gates"] = {
        "speedup_min": ELECTRO_SPEEDUP_MIN if gate_speedup else None,
        "hpwl_tol": ELECTRO_HPWL_TOL,
        "multilevel_hpwl_tol": ELECTRO_ML_HPWL_TOL,
    }
    return rows


def bench_end_to_end(sizes: tuple[int, ...]) -> list[dict]:
    """End-to-end StructureAwarePlacer wall time + final HPWL per size."""
    rows = []
    for n in sizes:
        gd = datapath_fraction_design(f"f4_{n}", n, 0.55, seed=9)
        t0 = time.perf_counter()
        outcome = StructureAwarePlacer(PlacerOptions()).place(
            gd.netlist, gd.region)
        dt = time.perf_counter() - t0
        row = {"design": f"f4_{n}", "cells": gd.netlist.num_cells,
               "time_s": round(dt, 3),
               "hpwl": round(gd.netlist.hpwl(), 3),
               "legal": bool(outcome.legal)}
        rows.append(row)
        print(f"  {row['design']:<10} {row['cells']:>6} cells   "
              f"{row['time_s']:7.2f} s   hpwl {row['hpwl']:.1f}   "
              f"legal={row['legal']}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small design + sizes for the CI smoke job")
    parser.add_argument("--out", default="BENCH_PERF.json",
                        help="output JSON path (default: repo root)")
    parser.add_argument("--sections", default="kernels,engines,e2e",
                        help="comma list of sections to run "
                             "(kernels, engines, e2e); skipped sections "
                             "keep their existing BENCH_PERF.json entry "
                             "— the full engines leg runs the flat B2B "
                             "engine at ~100k cells (~4 min, ~0.9 GB)")
    args = parser.parse_args(argv)
    sections = {s.strip() for s in args.sections.split(",") if s.strip()}
    unknown = sections - {"kernels", "engines", "e2e"}
    if unknown:
        parser.error(f"unknown sections: {sorted(unknown)}")

    # quick mode is sized for the CI smoke job: the scalar references
    # dominate its wall time and scale superlinearly, so the kernel
    # design and the move batch shrink hard
    n_cells = 1500 if args.quick else 20000
    n_moves = 500 if args.quick else 2000
    sizes = (400,) if args.quick else (800, 1600, 3200)
    # engine shoot-out size: the full run requests 68k generator cells,
    # which lands on the ~100k-cell design the electro gates are
    # specified against; quick keeps the HPWL gates on a small design
    engine_cells = 3000 if args.quick else 68000
    failures: list[str] = []

    kernels = engines = end_to_end = None
    if "kernels" in sections:
        print(f"== kernel timings vs retained references "
              f"[numpy {np.__version__}] ==")
        kernels = bench_kernels(n_cells, failures, n_moves=n_moves)
    if "engines" in sections:
        print("== placement engines: flat B2B vs electrostatic ==")
        engines = bench_engines(engine_cells, failures,
                                gate_speedup=not args.quick)
    if "e2e" in sections:
        print("== end-to-end structure-aware placement ==")
        end_to_end = bench_end_to_end(sizes)

    report: dict = {
        "config": {
            "quick": bool(args.quick),
            "equivalence_rtol": EQUIV_RTOL,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "notes": ("Kernel/reference equivalence (1e-9 rtol), workspace "
                  "bit-identity, and the electro-engine speed/quality "
                  "gates fail the job; other timings are informational. "
                  "incremental_swap times cover the full move batch; "
                  "per-move speedup is the ratio."),
    }
    if kernels is not None:
        report["config"]["kernel_design_cells"] = kernels["design_cells"]
        report["kernels"] = {k: v for k, v in kernels.items()
                             if isinstance(v, dict)}
    if engines is not None:
        report["engines"] = engines
    if end_to_end is not None:
        report["end_to_end"] = end_to_end
    out_path = Path(args.out)
    merged: dict = {}
    if out_path.exists():
        try:
            merged = json.loads(out_path.read_text())
        except json.JSONDecodeError:
            merged = {}
    # config keys of sections skipped this run stay as they were
    merged.setdefault("config", {}).update(report.pop("config"))
    merged.update(report)
    out_path.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"wrote {out_path}")
    if failures:
        print("GATE FAILURES:")
        for f in failures:
            print(f"  {f}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
