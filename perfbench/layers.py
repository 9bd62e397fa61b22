"""Per-layer attribution by wrapping the program's public entry points.

The traced run patches each entry point *under the name its caller looks
up* (``repro.core.structured_placer.abacus_legalize``, not only the
definition in ``repro.place.abacus``) with a timer that keeps a call
stack, so every layer reports self time: its wall time minus the time of
wrapped calls nested inside it.  The placer's own ``place`` method is
the root layer; its self time is whatever no wrapper claimed.

No program file changes: :func:`install` swaps module and class
attributes and returns a function that restores them.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

#: workloads whose traced run places designs in this process; serve_mix
#: does so too, because its daemon's pool workers are out of reach
PLACEMENT = ("large_flow", "dac2012_suite", "serve_mix")
LARGE = ("large_flow",)

#: the placer's own stage phases, in flow order
STAGES = ("extract", "global_place", "legalize", "detailed")

ROOT = "placer"


@dataclass(frozen=True)
class Layer:
    """One attributed layer.

    Attributes:
        name: metric prefix; time is reported as ``<name>_s``.
        targets: ``module:attr`` or ``module:Class.method`` lookup sites.
        workloads: workloads on which zero calls means the wrapper
            missed (reported as a missing layer, never as 0 s).
        optional: zero calls is a valid reading (a fallback path that
            may legitimately not run); reported as 0.
        calls: also report ``<name>.calls``.
        counts: maps ``(args, kwargs, result)`` to extra counters.
        zero_counts: counters an optional layer reports as 0 when it
            never ran.
        stage: stage to charge when the call opens the placer phase
            itself (extraction opens its ``extract`` phase inside the
            wrapped function).

    Counters come from the outermost call of a layer only, so a GP
    engine nested inside the V-cycle does not count iterations twice.
    """

    name: str
    targets: tuple[str, ...]
    workloads: tuple[str, ...] = PLACEMENT
    optional: bool = False
    calls: bool = False
    counts: Callable[[tuple, dict, object], dict[str, float]] | None = None
    zero_counts: tuple[str, ...] = ()
    stage: str | None = None


def _extract_counts(_args, _kwargs, result) -> dict[str, float]:
    return {"core.extract.arrays": len(result.arrays),
            "core.extract.cells": result.num_cells}


def _gp_counts(_args, _kwargs, result) -> dict[str, float]:
    return {"place.gp.iterations": len(getattr(result, "history", ()))}


def _tetris_counts(args, kwargs, _result) -> dict[str, float]:
    cells = kwargs.get("cells")
    if cells is None:
        cells = args[0].movable_cells()
    return {"place.legalize.tetris_cells": len(cells)}


def _moves(_args, _kwargs, result) -> dict[str, float]:
    return {"place.detailed.moves": int(result)}


_SP = "repro.core.structured_placer"
_EX = "repro.core.extraction"

LAYERS: tuple[Layer, ...] = (
    Layer(ROOT, (f"{_SP}:StructureAwarePlacer.place",
                 f"{_SP}:BaselinePlacer.place")),
    # core: extraction and planning
    Layer("core.extract", (f"{_SP}:extract_datapaths",),
          counts=_extract_counts, stage="extract"),
    Layer("core.extract.bundles", (f"{_EX}:detect_clock_nets",
                                   f"{_EX}:edge_bundles",
                                   f"{_EX}:control_columns")),
    Layer("core.extract.slices", (f"{_EX}:grow_slices",)),
    Layer("core.extract.arrays", (f"{_EX}:arrays_from_slices",
                                  f"{_EX}:arrays_from_columns",
                                  f"{_EX}:absorb_adjacent")),
    Layer("core.plan", (f"{_SP}:plan_arrays", f"{_SP}:build_alignment")),
    # place: global placement engines
    Layer("place.gp", (f"{_SP}:multilevel_place",
                       "repro.place.quadratic:QuadraticPlacer.place",
                       "repro.place.electrostatic:ElectrostaticPlacer.place"),
          counts=_gp_counts),
    Layer("place.ml.coarsen", ("repro.place.multilevel.vcycle:cluster_cells",
                               "repro.place.multilevel.vcycle:"
                               "build_coarse_netlist"),
          workloads=LARGE),
    # kernels, at every caller's lookup site
    Layer("kernels.b2b", ("repro.place.b2b:b2b_pairs",
                          "repro.place.b2b:assemble_pairs",
                          "repro.place.electrostatic:b2b_grad",
                          "repro.kernels:b2b_grad"), calls=True),
    Layer("kernels.density", ("repro.place.density:rasterize_overlap",
                              "repro.place.density:bell_value_grad",
                              "repro.place.electrostatic:rasterize_overlap"),
          calls=True),
    Layer("kernels.hpwl", ("repro.place.wirelength:hpwl_kernel",
                           "repro.place.wirelength:hpwl_per_net_kernel"),
          calls=True),
    # representation
    Layer("place.arrays_build",
          ("repro.place.arrays:PlacementArrays.build",), calls=True),
    Layer("netlist.hpwl", ("repro.netlist.netlist:Netlist.hpwl",),
          calls=True),
    # legalization
    Layer("place.legalize.slices", (f"{_SP}:legalize_slices",)),
    Layer("place.legalize.abacus", (f"{_SP}:abacus_legalize",)),
    Layer("place.legalize.tetris", (f"{_SP}:tetris_legalize",),
          optional=True, counts=_tetris_counts,
          zero_counts=("place.legalize.tetris_cells",)),
    Layer("place.check_legal", (f"{_SP}:check_legal",)),
    # detailed placement
    Layer("place.detailed", (f"{_SP}:detailed_place",)),
    Layer("place.detailed.swap", ("repro.place.detailed:global_swap_pass",),
          counts=_moves),
    Layer("place.detailed.reorder",
          ("repro.place.detailed:row_reorder_pass",), counts=_moves),
    # generator (setup)
    Layer("gen.build", ("repro.gen.composer:compose_design",
                        "repro.gen.suites:compose_design")),
)

#: layers whose self times add up to the legalization total
LEGALIZE_FAMILY = ("place.legalize.slices", "place.legalize.abacus",
                   "place.legalize.tetris")


@dataclass
class _Frame:
    layer: Layer
    start: float
    child_s: float = 0.0


@dataclass
class Recorder:
    """Self-time and count accumulator shared by every wrapper."""

    clock: Callable[[], float] = time.perf_counter
    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    #: inclusive time of top-level wrapped calls inside the placer,
    #: charged to the placer stage that was open when they started
    stage_s: dict[str, float] = field(default_factory=dict)
    stage: str | None = None
    stack: list[_Frame] = field(default_factory=list)

    def enter(self, layer: Layer) -> _Frame:
        frame = _Frame(layer, self.clock())
        self.stack.append(frame)
        return frame

    def exit(self, frame: _Frame, args: tuple, kwargs: dict,
             result: object) -> None:
        elapsed = self.clock() - frame.start
        self.stack.pop()
        name = frame.layer.name
        self.self_s[name] = self.self_s.get(name, 0.0) \
            + elapsed - frame.child_s
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child_s += elapsed
            if parent.layer.name == ROOT:
                stage = frame.layer.stage or self.stage
                if stage is not None:
                    self.stage_s[stage] = self.stage_s.get(stage, 0.0) \
                        + elapsed
        layer = frame.layer
        if layer.counts is not None and result is not None and \
                not any(f.layer.name == name for f in self.stack):
            for key, value in layer.counts(args, kwargs, result).items():
                self.counts[key] = self.counts.get(key, 0) + value

    def abandon(self, frame: _Frame) -> None:
        """Unwind a frame whose call raised (time still charged)."""
        self.exit(frame, (), {}, None)


def _wrap(fn: Callable, layer: Layer, rec: Recorder,
          bound_self: bool) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.enter(layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.abandon(frame)
            raise
        rec.exit(frame, args[1:] if bound_self else args, kwargs, result)
        return result
    return wrapper


def _resolve(target: str) -> tuple[object, str]:
    module_name, attr = target.split(":")
    owner: object = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(rec: Recorder, layers: tuple[Layer, ...] = LAYERS
            ) -> Callable[[], None]:
    """Patch every target; returns the function that undoes it."""
    undo: list[tuple[object, str, object]] = []
    seen: set[tuple[int, str]] = set()
    for layer in layers:
        for target in layer.targets:
            owner, leaf = _resolve(target)
            if (id(owner), leaf) in seen:
                continue
            seen.add((id(owner), leaf))
            if isinstance(owner, type):
                raw = owner.__dict__[leaf]
                if isinstance(raw, classmethod):
                    patched: object = classmethod(
                        _wrap(raw.__func__, layer, rec, True))
                else:
                    patched = _wrap(raw, layer, rec, True)
            else:
                raw = getattr(owner, leaf)
                patched = _wrap(raw, layer, rec, False)
            undo.append((owner, leaf, raw))
            setattr(owner, leaf, patched)

    def restore() -> None:
        for owner, leaf, raw in reversed(undo):
            setattr(owner, leaf, raw)
    return restore


def stage_tracer(rec: Recorder):
    """A program :class:`~repro.runtime.telemetry.Tracer` that also
    tells the recorder which placer stage is open."""
    from repro.runtime.telemetry import Tracer

    class StageTracer(Tracer):
        @contextmanager
        def phase(self, name: str, **attrs: object):
            previous = rec.stage
            if name in STAGES:
                rec.stage = name
            try:
                with super().phase(name, **attrs) as handle:
                    yield handle
            finally:
                rec.stage = previous

    return StageTracer()


def layer_metrics(rec: Recorder, workload: str,
                  layers: tuple[Layer, ...] = LAYERS
                  ) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics for one workload, plus missing-layer names.

    A layer expected on ``workload`` that was never called is listed as
    missing and left out of the metrics; an unexpected, uncalled layer
    is simply not reported.
    """
    out: dict[str, tuple[float, str]] = {}
    missing: list[str] = []
    for layer in layers:
        if layer.name == ROOT:
            continue
        called = rec.calls.get(layer.name, 0)
        expected = workload in layer.workloads
        if not called:
            if expected and not layer.optional:
                missing.append(layer.name)
                continue
            if not (expected and layer.optional):
                continue
        out[f"{layer.name}_s"] = (rec.self_s.get(layer.name, 0.0), "s")
        if layer.calls:
            out[f"{layer.name}.calls"] = (float(called), "count")
        if layer.optional and expected and not called:
            for key in layer.zero_counts:
                out[key] = (0.0, "count")
    for key, value in rec.counts.items():
        out[key] = (float(value), "count")
    if workload in PLACEMENT:
        out["place.legalize_s"] = (
            sum(rec.self_s.get(n, 0.0) for n in LEGALIZE_FAMILY), "s")
        out["place.unattributed_s"] = (rec.self_s.get(ROOT, 0.0), "s")
    return out, missing
