"""Degradation ladder: structure-aware placement with graceful fallback.

:func:`place_with_fallback` attempts the requested placer first and, on a
diagnosed failure (:class:`~repro.errors.NumericalError`,
:class:`~repro.errors.LegalizationError`), steps down through
configurable rungs until one produces a legal placement:

1. ``structure`` — the full structure-aware pipeline;
2. ``structure-relaxed`` — fused groups and structured legalization
   relaxed (alignment forces only, plain Abacus/Tetris legalization);
3. ``baseline`` — the matched baseline analytical pipeline;
4. ``quadratic-only`` — a single unanchored wirelength solve plus
   Tetris legalization (no spreading loop, no detailed placement);
5. ``row-scan`` — deterministic row packing that ignores positions
   entirely and legalizes anything that physically fits.

Every attempt — succeeded or failed, with its failure class and message —
is recorded in a :class:`DegradationReport` that is threaded into the
Tracer/JSONL telemetry and into the batch :class:`~repro.runtime.jobs.JobResult`,
so a degraded result is always *visibly* degraded.  Positions are
snapshotted before the first attempt and restored before each retry, so
a failed rung's garbage iterates never leak into the next rung's start.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..errors import LegalizationError, NumericalError, error_kind
from ..core.structured_placer import (BaselinePlacer, PlaceOutcome,
                                      PlacerOptions, StructureAwarePlacer)
from ..netlist import Netlist
from ..place.arrays import PlacementArrays
from ..place.legalize import check_legal, row_scan_place, tetris_legalize
from ..place.region import PlacementRegion
from ..runtime.telemetry import Tracer
from .guards import GuardedSolve
from .jobhook import JobHook

#: default rung sequences per requested placer
LADDERS: dict[str, tuple[str, ...]] = {
    "structure": ("structure", "structure-relaxed", "baseline",
                  "quadratic-only", "row-scan"),
    "baseline": ("baseline", "quadratic-only", "row-scan"),
}

#: exception classes a rung failure may legitimately raise
_RECOVERABLE = (NumericalError, LegalizationError, FloatingPointError)


@dataclass
class RungAttempt:
    """One rung of the ladder: what ran and how it ended."""

    rung: str
    ok: bool
    error: str | None = None
    error_kind: str | None = None
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class DegradationReport:
    """Which rung succeeded and why the earlier ones failed."""

    design: str
    requested: str
    attempts: list[RungAttempt] = field(default_factory=list)
    succeeded: str | None = None

    @property
    def degraded(self) -> bool:
        """True when the result came from any rung below the first."""
        return bool(self.attempts) and self.succeeded != self.attempts[0].rung

    @property
    def ok(self) -> bool:
        return self.succeeded is not None

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "requested": self.requested,
            "succeeded": self.succeeded,
            "degraded": self.degraded,
            "attempts": [a.to_dict() for a in self.attempts],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DegradationReport":
        report = cls(design=data.get("design", ""),
                     requested=data.get("requested", ""),
                     succeeded=data.get("succeeded"))
        for a in data.get("attempts", []):
            report.attempts.append(RungAttempt(
                rung=a.get("rung", ""), ok=bool(a.get("ok")),
                error=a.get("error"), error_kind=a.get("error_kind"),
                elapsed_s=float(a.get("elapsed_s", 0.0))))
        return report


# ----------------------------------------------------------------------
# rungs
# ----------------------------------------------------------------------

def _rung_structure(netlist, region, options, tracer, hook):
    return StructureAwarePlacer(options).place(
        netlist, region, tracer=tracer, hook=hook)


def _rung_structure_relaxed(netlist, region, options, tracer, hook):
    relaxed = dataclasses.replace(options, use_fusion=False,
                                  structure_legalization="none")
    return StructureAwarePlacer(relaxed).place(
        netlist, region, tracer=tracer, hook=hook)


def _rung_baseline(netlist, region, options, tracer, hook):
    return BaselinePlacer(options).place(
        netlist, region, tracer=tracer, hook=hook)


def _rung_quadratic_only(netlist: Netlist, region: PlacementRegion,
                         options: PlacerOptions, tracer: Tracer,
                         hook: JobHook | None) -> PlaceOutcome:
    """Single unanchored wirelength solve + Tetris; no spreading loop."""
    from ..place.b2b import B2BBuilder

    with tracer.phase("place", placer="quadratic-only",
                      design=netlist.name) as ph_all:
        arrays = PlacementArrays.build(netlist)
        x, y = arrays.initial_positions()
        mv = arrays.movable
        cx, cy = region.center
        x[mv] = cx
        y[mv] = cy
        builder = B2BBuilder(arrays)
        for coords, offsets in ((x, arrays.pin_dx), (y, arrays.pin_dy)):
            system = builder.build_axis(coords, offsets)
            solve = GuardedSolve(system.solve, stage="global_place",
                                 design=netlist.name, guard=options.guard)
            coords[system.cells] = solve(x0=coords[system.cells])
        if hook is not None:
            hook(0)
        half_w = arrays.width / 2.0
        half_h = arrays.height / 2.0
        x[mv] = np.clip(x[mv], region.x + half_w[mv],
                        region.x_end - half_w[mv])
        y[mv] = np.clip(y[mv], region.y + half_h[mv],
                        region.y_top - half_h[mv])
        arrays.write_back(x, y)
        hpwl_gp = netlist.hpwl()
        with tracer.phase("legalize", mode="tetris") as ph_legal:
            result = tetris_legalize(netlist, region)
            if result.failed:
                raise LegalizationError(
                    f"{len(result.failed)} cells could not be legalized "
                    "after the wirelength-only solve",
                    design=netlist.name, cells=list(result.failed))
            hpwl_legal = netlist.hpwl()
    return PlaceOutcome(
        placer="quadratic-only", design=netlist.name, hpwl_gp=hpwl_gp,
        hpwl_legal=hpwl_legal, hpwl_final=hpwl_legal,
        runtime_s=ph_all.elapsed_s, legalize_s=ph_legal.elapsed_s,
        violations=len(check_legal(netlist, region)))


def _rung_row_scan(netlist: Netlist, region: PlacementRegion,
                   options: PlacerOptions, tracer: Tracer,
                   hook: JobHook | None) -> PlaceOutcome:
    """Bottom rung: pack everything, quality be damned."""
    with tracer.phase("place", placer="row-scan",
                      design=netlist.name) as ph_all:
        row_scan_place(netlist, region)
        wl = netlist.hpwl()
    return PlaceOutcome(
        placer="row-scan", design=netlist.name, hpwl_gp=wl, hpwl_legal=wl,
        hpwl_final=wl, runtime_s=ph_all.elapsed_s,
        violations=len(check_legal(netlist, region)))


_RUNGS = {
    "structure": _rung_structure,
    "structure-relaxed": _rung_structure_relaxed,
    "baseline": _rung_baseline,
    "quadratic-only": _rung_quadratic_only,
    "row-scan": _rung_row_scan,
}


# ----------------------------------------------------------------------
def _snapshot(netlist: Netlist) -> list[tuple[float, float]]:
    return [(c.x, c.y) for c in netlist.cells]


def _restore(netlist: Netlist, snap: list[tuple[float, float]]) -> None:
    for cell, (x, y) in zip(netlist.cells, snap):
        if not cell.fixed:
            cell.x = x
            cell.y = y


def place_with_fallback(netlist: Netlist, region: PlacementRegion,
                        options: PlacerOptions | None = None, *,
                        placer: str = "structure",
                        rungs: tuple[str, ...] | None = None,
                        tracer: Tracer | None = None,
                        hook: JobHook | None = None
                        ) -> tuple[PlaceOutcome, DegradationReport]:
    """Place with the degradation ladder.

    Args:
        netlist: the design; positions are mutated in place.
        region: placement region.
        options: shared placer options.
        placer: requested placer (``"structure"`` or ``"baseline"``) —
            selects the default rung sequence.
        rungs: explicit rung names overriding the default ladder (must
            be keys of ``repro.robust.fallback._RUNGS``).
        tracer: telemetry; every attempt records a ``rung`` event and
            bumps ``fallback.*`` counters.
        hook: the job hook (heartbeat, cancel), passed to every rung.

    Returns:
        ``(outcome, report)`` — the outcome of the first rung that
        succeeded plus the full attempt record.

    Raises:
        ReproError: every rung failed; the terminal error of the last
            rung propagates, with the report attached as its
            ``payload["degradation"]``.
    """
    options = options or PlacerOptions()
    tracer = tracer or Tracer()
    names = rungs or LADDERS.get(placer, LADDERS["structure"])
    report = DegradationReport(design=netlist.name, requested=names[0])
    snap = _snapshot(netlist)

    # NB: no wrapping phase here — the rung's own "place" phase must keep
    # the seed telemetry schema (path "job/place/...") intact
    last_error: Exception | None = None
    for i, name in enumerate(names):
        run = _RUNGS[name]
        if i > 0:
            _restore(netlist, snap)
        tracer.incr("fallback.attempts")
        start = tracer.clock()
        try:
            outcome = run(netlist, region, options, tracer, hook)
        except _RECOVERABLE as exc:
            last_error = exc
            attempt = RungAttempt(rung=name, ok=False, error=str(exc),
                                  error_kind=error_kind(exc),
                                  elapsed_s=tracer.clock() - start)
            report.attempts.append(attempt)
            tracer.error(exc, rung=name)
            tracer.event("rung", rung=name, ok=False,
                         error_kind=attempt.error_kind)
            continue
        report.attempts.append(RungAttempt(
            rung=name, ok=True, elapsed_s=tracer.clock() - start))
        report.succeeded = name
        tracer.event("rung", rung=name, ok=True)
        if report.degraded:
            tracer.incr("fallback.degraded")
        return outcome, report

    # every rung failed: propagate the last diagnosis with the ladder
    # record attached so the job result stays fully diagnosable
    assert last_error is not None
    if hasattr(last_error, "payload"):
        last_error.payload["degradation"] = report.to_dict()
    raise last_error
