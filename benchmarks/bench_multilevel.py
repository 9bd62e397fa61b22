"""F4 flat-vs-multilevel sweep with hard perf and quality gates.

Runs :class:`repro.core.StructureAwarePlacer` end to end — extraction,
global place, legalization, detailed — on the F4 scalability designs,
once with the flat quadratic engine and once through the multilevel
V-cycle, and gates CI on the result:

- **Quality** (every size, both modes): multilevel final HPWL must stay
  within ``HPWL_TOL`` (2%) of the flat result, and both placements must
  be legal.
- **Speed** (full run only): the largest sweep point at or above 3200
  cells must show at least ``SPEEDUP_MIN`` (3x) end-to-end speedup.
  Small designs are dominated by the shared non-GP stages, so the gate
  applies where the V-cycle is meant to pay off.
- **Determinism**: two independent multilevel runs of the same design
  must produce bit-identical positions, and a cached artifact must
  round-trip those positions exactly (the ``--multilevel`` cache-hit
  guarantee).

Results merge into the ``BENCH_PERF.json`` written by
``bench_kernels.py`` (existing sections are preserved) under a
``"multilevel"`` key.  Exit status 1 on any gate failure.

Usage::

    PYTHONPATH=src python benchmarks/bench_multilevel.py [--quick]
        [--out BENCH_PERF.json]
    PYTHONPATH=src python benchmarks/bench_multilevel.py --full-flow

``--quick`` shrinks the sweep for the CI perf-smoke job; the speedup
gate is skipped there (quick sizes are too small for the V-cycle to
win) but the HPWL, legality, and determinism gates still apply.

``--full-flow`` runs only the full-flow leg: the 99,936-cell
``datapath_fraction_design("engines_68000", 68000, 0.55, seed=9)``
through both placers with the electro engine and the V-cycle.  It
records GP, legalized and final HPWL, per-stage seconds, slice
formation and legality violations under a ``"full_flow"`` key, and
gates only on legality.

Every multilevel row also records ``coarsen_s``, the V-cycle's
coarsening time (the program trace's ``ml_coarsen`` phases, part of
``gp_s``), and ``digest``, a short SHA-256 of the final positions that
shows whether two commits placed the design bit-identically.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import BaselinePlacer, PlacerOptions, StructureAwarePlacer
from repro.eval import evaluate_placement, formation_score
from repro.gen import datapath_fraction_design
from repro.place.multilevel import MultilevelOptions
from repro.runtime import ArtifactCache, apply_positions
from repro.runtime.cache import job_key, snapshot_positions
from repro.runtime.telemetry import Tracer

HPWL_TOL = 0.02        # multilevel may not be worse than flat by more
SPEEDUP_MIN = 3.0      # end-to-end, at the largest >=3200-cell point
FULL_FLOW_CELLS = 68000  # requested; the generator lands on 99,936 cells


def _options(multilevel: bool) -> PlacerOptions:
    opts = PlacerOptions(seed=0)
    if multilevel:
        opts.multilevel = MultilevelOptions(enabled=True)
    return opts


def _digest(netlist) -> str:
    """Short SHA-256 of the final cell positions (bit-identity check)."""
    h = hashlib.sha256()
    h.update(np.array([c.x for c in netlist.cells]).tobytes())
    h.update(np.array([c.y for c in netlist.cells]).tobytes())
    return h.hexdigest()[:16]


def _place(n: int, multilevel: bool) -> dict:
    """One end-to-end run on a freshly generated F4 design."""
    gd = datapath_fraction_design(f"f4_{n}", n, 0.55, seed=9)
    tracer = Tracer()
    t0 = time.perf_counter()
    outcome = StructureAwarePlacer(_options(multilevel)).place(
        gd.netlist, gd.region, tracer=tracer)
    dt = time.perf_counter() - t0
    report = evaluate_placement(gd.netlist, gd.region)
    row = {
        "design": f"f4_{n}", "cells": gd.netlist.num_cells,
        "hpwl": round(report.hpwl, 3), "legal": bool(report.legal),
        "time_s": round(dt, 3),
        "extract_s": round(outcome.extract_s, 3),
        "gp_s": round(outcome.gp_s, 3),
        "legalize_s": round(outcome.legalize_s, 3),
        "detailed_s": round(outcome.detailed_s, 3),
    }
    if multilevel:
        row["coarsen_s"] = round(tracer.total_s("ml_coarsen"), 3)
        row["digest"] = _digest(gd.netlist)
    return row


def sweep(sizes: tuple[int, ...], failures: list[str],
          *, gate_speedup: bool) -> list[dict]:
    rows = []
    for n in sizes:
        flat = _place(n, multilevel=False)
        ml = _place(n, multilevel=True)
        speedup = flat["time_s"] / max(ml["time_s"], 1e-9)
        delta = (ml["hpwl"] - flat["hpwl"]) / max(flat["hpwl"], 1e-9)
        row = {"cells": flat["cells"], "flat": flat, "multilevel": ml,
               "speedup": round(speedup, 2),
               "hpwl_delta": round(delta, 4)}
        rows.append(row)
        print(f"  f4_{n:<6} {flat['cells']:>6} cells   "
              f"flat {flat['time_s']:7.2f} s   "
              f"ml {ml['time_s']:7.2f} s   {speedup:5.2f}x   "
              f"hpwl {delta * 100:+.2f}%   ml gp {ml['gp_s']:.2f} s, "
              f"coarsen {ml['coarsen_s']:.2f} s")
        if not flat["legal"]:
            failures.append(f"f4_{n}: flat placement is not legal")
        if not ml["legal"]:
            failures.append(f"f4_{n}: multilevel placement is not legal")
        if delta > HPWL_TOL:
            failures.append(
                f"f4_{n}: multilevel HPWL {delta * 100:+.2f}% vs flat "
                f"exceeds {HPWL_TOL * 100:.0f}% tolerance")
    if gate_speedup:
        gated = [r for r in rows if r["cells"] >= 3200]
        if not gated:
            failures.append("no sweep point at >=3200 cells for the "
                            "speedup gate")
        else:
            top = max(gated, key=lambda r: r["cells"])
            if top["speedup"] < SPEEDUP_MIN:
                failures.append(
                    f"largest point ({top['cells']} cells): "
                    f"{top['speedup']:.2f}x < required "
                    f"{SPEEDUP_MIN:.0f}x speedup")
    return rows


def check_determinism(n: int, failures: list[str]) -> dict:
    """Bit-stability across reruns + exact artifact-cache round-trip."""
    designs = [datapath_fraction_design(f"f4_{n}", n, 0.55, seed=9)
               for _ in range(2)]
    for gd in designs:
        StructureAwarePlacer(_options(True)).place(gd.netlist, gd.region)
    snaps = [snapshot_positions(gd.netlist) for gd in designs]
    stable = snaps[0] == snaps[1]
    if not stable:
        diff = sum(1 for k in snaps[0] if snaps[0][k] != snaps[1][k])
        failures.append(
            f"f4_{n}: multilevel positions differ across reruns "
            f"({diff} cells)")

    # cache round-trip: a stored artifact must reproduce the positions
    # bit-identically on a fresh design (the second-run cache-hit path)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ArtifactCache(tmp)
        key = job_key(designs[0].netlist, "structure", _options(True), 0)
        cache.put(key, {"positions": snaps[0]})
        loaded = cache.get(key)
        hit = loaded is not None
        exact = False
        if hit:
            fresh = datapath_fraction_design(f"f4_{n}", n, 0.55, seed=9)
            apply_positions(fresh.netlist, loaded["positions"])
            exact = snapshot_positions(fresh.netlist) == snaps[0]
        flat_key = job_key(designs[0].netlist, "structure",
                           _options(False), 0)
    if not hit or not exact:
        failures.append(f"f4_{n}: cached multilevel artifact did not "
                        f"round-trip positions exactly")
    if flat_key == key:
        failures.append("multilevel options do not change the cache key")
    print(f"  determinism @ f4_{n}: rerun_stable={stable} "
          f"cache_hit={hit} cache_exact={exact} "
          f"key_differs_from_flat={flat_key != key}")
    return {"design": f"f4_{n}", "rerun_stable": stable,
            "cache_round_trip": hit and exact,
            "key_differs_from_flat": flat_key != key}


def full_flow(failures: list[str]) -> dict:
    """The ~100k-cell design through both placers, electro + V-cycle.

    Formation is scored for both placements against the slices the
    structure-aware run extracted (the designs are identical).
    """
    opts = PlacerOptions(engine="electro",
                         multilevel=MultilevelOptions(enabled=True))
    name = f"engines_{FULL_FLOW_CELLS}"
    rows: dict[str, dict] = {}
    slices: list[list[str]] = []
    for placer in (StructureAwarePlacer(opts), BaselinePlacer(opts)):
        gd = datapath_fraction_design(name, FULL_FLOW_CELLS, 0.55, seed=9)
        tracer = Tracer()
        outcome = placer.place(gd.netlist, gd.region, tracer=tracer)
        if outcome.extraction is not None:
            slices = [[c.name for c in s]
                      for a in outcome.extraction.arrays for s in a.slices]
        row = {
            "cells": gd.netlist.num_cells,
            "hpwl_gp": round(outcome.hpwl_gp, 1),
            "hpwl_legal": round(outcome.hpwl_legal, 1),
            "hpwl_final": round(outcome.hpwl_final, 1),
            "time_s": round(outcome.runtime_s, 2),
            "extract_s": round(outcome.extract_s, 2),
            "gp_s": round(outcome.gp_s, 2),
            "coarsen_s": round(tracer.total_s("ml_coarsen"), 2),
            "legalize_s": round(outcome.legalize_s, 2),
            "detailed_s": round(outcome.detailed_s, 2),
            "digest": _digest(gd.netlist),
            "formation": round(formation_score(gd.netlist, slices), 4),
            "slices": len(slices),
            "violations": outcome.violations,
        }
        rows[placer.name] = row
        print(f"  {placer.name:<16} {row['cells']} cells   "
              f"gp {row['hpwl_gp']:.4g}  legal {row['hpwl_legal']:.4g}  "
              f"final {row['hpwl_final']:.4g}   {row['time_s']:.1f} s "
              f"(extract {row['extract_s']} / gp {row['gp_s']}, coarsen "
              f"{row['coarsen_s']} / "
              f"legalize {row['legalize_s']} / detailed "
              f"{row['detailed_s']})   formation {row['formation']}   "
              f"violations {row['violations']}")
        if row["violations"]:
            failures.append(f"{name}/{placer.name}: {row['violations']} "
                            "legality violations")
    ratio = rows["structure-aware"]["hpwl_final"] \
        / rows["baseline"]["hpwl_final"]
    print(f"  final HPWL ratio structure-aware / baseline: {ratio:.4f}")
    return {
        "config": {"design": name, "engine": "electro",
                   "multilevel": "MultilevelOptions(enabled=True)",
                   "python": sys.version.split()[0],
                   "numpy": np.__version__},
        "placers": rows,
        "final_hpwl_ratio": round(ratio, 4),
        "gates_passed": not failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sweep for the CI smoke job (HPWL and "
                             "determinism gates only)")
    parser.add_argument("--out", default="BENCH_PERF.json",
                        help="merged output JSON path (default: repo root)")
    parser.add_argument("--full-flow", action="store_true",
                        help="run only the ~100k-cell full-flow leg "
                             "(both placers, electro + multilevel)")
    args = parser.parse_args(argv)

    failures: list[str] = []
    if args.full_flow:
        print("== full flow at ~100k cells ==")
        key, section = "full_flow", full_flow(failures)
    else:
        sizes = (400, 800) if args.quick else (1600, 3200, 6400, 12800)
        stability_n = 400 if args.quick else 3200
        print("== F4 sweep: flat vs multilevel ==")
        rows = sweep(sizes, failures, gate_speedup=not args.quick)
        print("== determinism ==")
        determinism = check_determinism(stability_n, failures)
        key, section = "multilevel", {
            "config": {
                "quick": bool(args.quick),
                "hpwl_tolerance": HPWL_TOL,
                "speedup_min": None if args.quick else SPEEDUP_MIN,
                "options": "MultilevelOptions() defaults",
                "python": sys.version.split()[0],
                "numpy": np.__version__,
            },
            "sweep": rows,
            "determinism": determinism,
            "gates_passed": not failures,
        }
    out_path = Path(args.out)
    report: dict = {}
    if out_path.exists():
        try:
            report = json.loads(out_path.read_text())
        except json.JSONDecodeError:
            report = {}
    report[key] = section
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path} ({key} section "
          f"{'merged' if len(report) > 1 else 'created'})")
    if failures:
        print("GATE FAILURES:")
        for f in failures:
            print(f"  {f}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
