"""The two placement workloads: ``large_flow`` and ``dac2012_suite``.

A run builds its designs (set-up, timed several times), then places
fresh copies in whole passes until ``--seconds`` have elapsed, checking
every placement with :mod:`checks`.  A traced run makes one untraced
pass and one pass with the layer wrappers installed
(:func:`trace_layers`, which ``serve_mix`` uses too).
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import checks
import layers
from common import RunResult, derive_seed, peak_rss_mb

#: design-set builds per run; setup_s is their median
SETUP_ROUNDS = 5

#: requested generator cells of the large design (~49.8k placed cells)
LARGE_CELLS = 34000
#: F4 generator seed of the existing scalability bench
LARGE_SEED = 9

#: sanity floors of a whole run: below them extraction or structured
#: legalization is broken, not merely different (every seed tried was
#: far above both)
F1_FLOOR = 0.5
FORMATION_FLOOR = 0.9


@dataclass
class DesignCase:
    name: str
    build: Callable[[], object]


@dataclass
class Workload:
    name: str
    designs: list[DesignCase]
    placers: list[tuple[str, Callable[[], object]]]
    options: dict
    ratio: bool = False


@dataclass
class Placement:
    design: str
    placer: str
    seconds: float
    hpwl: float
    digest: str
    f1: float | None = None
    formed: tuple[int, int] | None = None
    problems: list[str] = field(default_factory=list)


def _large_flow(seed: int) -> Workload:
    from repro.core import PlacerOptions, StructureAwarePlacer
    from repro.gen import datapath_fraction_design
    from repro.place.multilevel import MultilevelOptions

    design_seed = derive_seed(seed, "large_flow", LARGE_SEED)
    name = f"f4_{LARGE_CELLS}"
    options = PlacerOptions(engine="electro",
                            multilevel=MultilevelOptions(enabled=True))
    return Workload(
        name="large_flow",
        designs=[DesignCase(name, lambda: datapath_fraction_design(
            name, LARGE_CELLS, 0.55, seed=design_seed))],
        placers=[("structure", lambda: StructureAwarePlacer(options))],
        options={"structure": options, "design_seed": design_seed})


def _dac2012_suite(seed: int) -> Workload:
    from repro.core import BaselinePlacer, PlacerOptions, StructureAwarePlacer
    from repro.gen import suite

    specs = [dataclasses.replace(s, seed=derive_seed(seed, s.name, s.seed))
             for s in suite("dac2012")]
    options = PlacerOptions()
    return Workload(
        name="dac2012_suite",
        designs=[DesignCase(s.name, s.build) for s in specs],
        placers=[("structure", lambda: StructureAwarePlacer(options)),
                 ("baseline", lambda: BaselinePlacer(options))],
        options={"structure": options,
                 "baseline": BaselinePlacer(options).options,
                 "design_seeds": {s.name: s.seed for s in specs}},
        ratio=True)


WORKLOADS = {"large_flow": _large_flow, "dac2012_suite": _dac2012_suite}


def suite_workload(name: str, designs: tuple[str, ...]) -> Workload:
    """Named suite designs through both placers with default options,
    which is what the placement daemon runs for a plain ``submit``."""
    from repro.core import BaselinePlacer, PlacerOptions, StructureAwarePlacer
    from repro.gen import build_design

    options = PlacerOptions()
    return Workload(
        name=name,
        designs=[DesignCase(d, functools.partial(build_design, d))
                 for d in designs],
        placers=[("structure", lambda: StructureAwarePlacer(options)),
                 ("baseline", lambda: BaselinePlacer(options))],
        options={"structure": options,
                 "baseline": BaselinePlacer(options).options},
        ratio=True)


def _build_set(wl: Workload) -> list[tuple[DesignCase, str, object]]:
    """One fresh design per (design, placer) pair."""
    return [(case, placer, case.build())
            for case in wl.designs for placer, _ in wl.placers]


def _setup(wl: Workload) -> tuple[float, list]:
    """Build the design set SETUP_ROUNDS times; returns the median build
    time and the last set, which the first pass places."""
    times = []
    kept: list = []
    for _ in range(SETUP_ROUNDS):
        # free the previous set first: live designs slow the collector
        # and would inflate later builds
        kept = []
        gc.collect()
        start = time.perf_counter()
        kept = _build_set(wl)
        times.append(time.perf_counter() - start)
    return statistics.median(times), kept


def _place_one(case: DesignCase, placer_name: str, placer, design, *,
               tracer=None) -> Placement:
    netlist, region = design.netlist, design.region
    pins = checks.PinTable(netlist)
    w, h, fixed = checks.geometry(netlist)
    x0, y0 = checks.positions(netlist)
    kwargs = {} if tracer is None else {"tracer": tracer}
    start = time.perf_counter()
    outcome = placer.place(netlist, region, **kwargs)
    seconds = time.perf_counter() - start

    x, y = checks.positions(netlist)
    own = pins.hpwl(x, y)
    result = Placement(design=case.name, placer=placer_name,
                       seconds=seconds, hpwl=own, digest=checks.digest(x, y))
    if not checks.hpwl_matches(own, outcome.hpwl_final):
        result.problems.append(
            f"hpwl mismatch: benchmark {own!r} vs program "
            f"{outcome.hpwl_final!r}")
    result.problems += checks.legality_violations(
        x, y, w, h, fixed, region, fixed_xy=(x0, y0))
    if outcome.extraction is not None:
        result.f1 = checks.extraction_f1(design.datapath_cell_names,
                                         outcome.extraction.cell_names())
        slices = [s for a in outcome.extraction.arrays for s in a.slices if s]
        result.formed = checks.formed_slices(slices)
    return result


def _run_pass(wl: Workload, design_set, rec: layers.Recorder | None = None
              ) -> tuple[list[Placement], dict[str, float]]:
    """Place every design of the set; with a recorder, also return the
    placer's own per-stage phase totals."""
    makers = dict(wl.placers)
    out = []
    phase_s: dict[str, float] = {}
    for case, placer_name, design in design_set:
        tracer = layers.stage_tracer(rec) if rec is not None else None
        out.append(_place_one(case, placer_name, makers[placer_name](),
                              design, tracer=tracer))
        if tracer is not None:
            for stage in layers.STAGES:
                phase_s[stage] = phase_s.get(stage, 0.0) \
                    + tracer.total_s(stage)
    return out, phase_s


def _design_meta(design_set) -> dict:
    return {f"{case.name}/{placer}": {"cells": d.netlist.num_cells,
                                      "nets": d.netlist.num_nets}
            for case, placer, d in design_set}


def _quality(wl: Workload, placements: list[Placement]) -> dict:
    metrics = {"hpwl": (checks.geomean([p.hpwl for p in placements]),
                        "units")}
    structure = [p for p in placements if p.placer == "structure"]
    f1 = [p.f1 for p in structure if p.f1 is not None]
    if f1:
        metrics["extract_f1"] = (statistics.fmean(f1), "ratio")
    formed = [p.formed for p in structure if p.formed is not None]
    if formed:
        total = sum(t for _, t in formed)
        metrics["formation"] = (
            sum(f for f, _ in formed) / total if total else 1.0, "ratio")
    if wl.ratio:
        by = {(p.design, p.placer): p.hpwl for p in placements}
        metrics["hpwl_ratio"] = (checks.geomean(
            [by[(c.name, "structure")] / by[(c.name, "baseline")]
             for c in wl.designs]), "ratio")
    return metrics


def _tally(result: RunResult, placements: list[Placement], workload: str,
           seed: int, digests) -> None:
    """Count operations and failures; compare position digests."""
    for p in placements:
        result.attempted += 1
        if not digests.check(f"{workload}/{seed}/{p.design}/{p.placer}",
                             p.digest):
            p.problems.append("positions differ from an earlier placement "
                              "of the same design (nondeterminism)")
        if p.problems:
            result.failed += 1
            result.problems += [f"{p.design}/{p.placer}: {msg}"
                                for msg in p.problems[:5]]


def run(workload: str, seed: int, seconds: float, trace: bool,
        digests) -> RunResult:
    wl = WORKLOADS[workload](seed)
    setup_s, design_set = _setup(wl)
    result = RunResult()
    result.meta["designs"] = _design_meta(design_set)
    result.meta["options"] = {k: repr(v) for k, v in wl.options.items()}

    passes: list[list[Placement]] = []
    start = time.perf_counter()
    while True:
        if design_set is None:
            gc.collect()
            design_set = _build_set(wl)
        passes.append(_run_pass(wl, design_set)[0])
        design_set = None
        if trace or time.perf_counter() - start >= seconds:
            break

    for placements in passes:
        _tally(result, placements, workload, seed, digests)
    pass_s = [sum(p.seconds for p in ps) for ps in passes]
    result.meta["passes"] = len(passes)
    result.meta["pass_place_s"] = pass_s

    if trace:
        trace_layers(wl, seed, digests, result, untraced_s=pass_s[0])
        return result

    # a typical pass: each placement's median over passes, summed, so one
    # slow placement in one pass does not move the figure
    by_case: dict[tuple[str, str], list[float]] = {}
    for p in (p for ps in passes for p in ps):
        by_case.setdefault((p.design, p.placer), []).append(p.seconds)
    result.metrics["place_s"] = (sum(
        statistics.median(times) for times in by_case.values()), "s")
    result.metrics["place_gmean_ms"] = (checks.geomean(
        [p.seconds for ps in passes for p in ps]) * 1e3, "ms")
    quality = _quality(wl, passes[0])
    result.metrics.update(quality)
    for name, floor in (("extract_f1", F1_FLOOR),
                        ("formation", FORMATION_FLOOR)):
        if name in quality and quality[name][0] < floor:
            result.problems.append(f"{name} {quality[name][0]:.4f} is "
                                   f"below its sanity floor {floor}")
    result.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    result.metrics["setup_s"] = (setup_s, "s")
    return result


def trace_layers(wl: Workload, seed: int, digests, result: RunResult,
                 untraced_s: float | None = None) -> None:
    """Add per-layer metrics of one pass of ``wl`` to ``result``.

    The pass places fresh designs with the wrappers installed; its
    placements are checked and counted like any other.  ``untraced_s``
    is the wall time of an untraced pass of the same work, for the
    overhead figure; without it, one such pass is made first.
    """
    if untraced_s is None:
        gc.collect()
        plain = _run_pass(wl, _build_set(wl))[0]
        _tally(result, plain, wl.name, seed, digests)
        untraced_s = sum(p.seconds for p in plain)

    rec = layers.Recorder()
    restore = layers.install(rec)
    try:
        gc.collect()
        traced_set = _build_set(wl)
        traced, phase_s = _run_pass(wl, traced_set, rec)
    finally:
        restore()
    traced_s = sum(p.seconds for p in traced)
    _tally(result, traced, wl.name, seed, digests)

    per_layer, missing = layers.layer_metrics(rec, wl.name)
    result.metrics.update(per_layer)
    result.missing += missing
    unattributed = rec.self_s.get(layers.ROOT, 0.0)
    result.metrics["trace.coverage"] = (1.0 - unattributed / traced_s,
                                        "ratio")
    result.metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    gaps = {}
    for stage in layers.STAGES:
        phase = phase_s.get(stage, 0.0)
        wrapped = rec.stage_s.get(stage, 0.0)
        if phase > 0.0:
            gaps[stage] = (phase, wrapped, wrapped / phase - 1.0)
    result.stage_table = gaps
    if gaps:
        result.metrics["trace.stage_gap"] = (
            max(abs(g) for _, _, g in gaps.values()), "ratio")
    return result
