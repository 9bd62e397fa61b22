"""Structured telemetry: nested phase timers, counters, and events.

:class:`Tracer` is the single instrumentation API of the runtime.  A
phase opens with ``with tracer.phase("extract") as ph:`` and records one
event on exit; phases nest, and the event's ``path`` carries the full
nesting (``job/place/extract``).  Counters are monotonically increasing
named integers (``tracer.incr("cache.hit")``).  Everything the tracer
records is a plain dict so it can cross process boundaries (batch workers
ship their events back to the parent) and serialize to JSONL
(:mod:`repro.runtime.trace`) without translation.

All placers and the extractor accept an optional tracer; when none is
given they create a private one, so ``elapsed_s`` figures always come
from the same clock source (:func:`time.perf_counter` unless overridden).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

PATH_SEP = "/"


class PhaseHandle:
    """Live handle for one open (or closed) phase.

    Attributes:
        name: phase name (last path component).
        path: full nesting path, e.g. ``job/place/extract``.
        start_s: clock reading at phase entry.
        elapsed_s: total duration; populated when the phase closes.
    """

    __slots__ = ("name", "path", "start_s", "elapsed_s", "_clock")

    def __init__(self, name: str, path: str, start_s: float,
                 clock: Callable[[], float]) -> None:
        self.name = name
        self.path = path
        self.start_s = start_s
        self.elapsed_s = 0.0
        self._clock = clock

    def split(self) -> float:
        """Seconds since phase entry, readable while the phase is open.

        Replaces the ad-hoc ``time.perf_counter() - start`` bookkeeping:
        iteration loops call ``ph.split()`` for cumulative progress
        stamps taken from the tracer's clock.
        """
        return self._clock() - self.start_s


class Tracer:
    """Collects phase events and counters for one run.

    Args:
        clock: monotonic time source shared by every phase timer.

    Attributes:
        events: closed-phase and point events, in completion order; plain
            dicts ready for JSONL.
        counters: name → integer count.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.events: list[dict] = []
        self.counters: dict[str, int] = {}
        self._stack: list[PhaseHandle] = []

    # -- phases --------------------------------------------------------
    @contextmanager
    def phase(self, name: str, **attrs: object) -> Iterator[PhaseHandle]:
        """Open a nested, timed phase; records one event when it closes."""
        path = PATH_SEP.join([p.name for p in self._stack] + [name])
        handle = PhaseHandle(name, path, self.clock(), self.clock)
        self._stack.append(handle)
        try:
            yield handle
        finally:
            self._stack.pop()
            handle.elapsed_s = handle.split()
            event = {"kind": "phase", "name": name, "path": path,
                     "start_s": handle.start_s,
                     "elapsed_s": handle.elapsed_s}
            if attrs:
                event.update(attrs)
            self.events.append(event)

    # -- counters and point events -------------------------------------
    def incr(self, name: str, amount: int = 1) -> int:
        """Bump a named counter; returns the new value."""
        value = self.counters.get(name, 0) + amount
        self.counters[name] = value
        return value

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)

    def event(self, name: str, **attrs: object) -> None:
        """Record an instantaneous (non-timed) event."""
        path = PATH_SEP.join([p.name for p in self._stack] + [name])
        record = {"kind": "event", "name": name, "path": path,
                  "start_s": self.clock()}
        if attrs:
            record.update(attrs)
        self.events.append(record)

    def error(self, exc: BaseException, **attrs: object) -> None:
        """Record a structured error event and bump its kind counter.

        Taxonomy errors (:class:`repro.errors.ReproError`) contribute
        their ``code``/``stage``/``design``; anything else records as
        kind ``other``.
        """
        kind = getattr(exc, "code", "other")
        self.incr(f"errors.{kind}")
        detail: dict[str, object] = {
            "error": str(exc), "error_kind": kind,
            "exc_type": type(exc).__name__}
        stage = getattr(exc, "stage", None)
        if stage:
            detail["stage"] = stage
        design = getattr(exc, "design", None)
        if design:
            detail["design"] = design
        detail.update(attrs)
        self.event("error", **detail)

    # -- aggregation ---------------------------------------------------
    def merge(self, events: list[dict], counters: dict[str, int]) -> None:
        """Fold a child tracer's records in (e.g. from a batch worker)."""
        self.events.extend(events)
        for name, amount in counters.items():
            self.incr(name, amount)

    def phases(self, name: str | None = None) -> list[dict]:
        """Closed phase events, optionally filtered by phase name."""
        return [e for e in self.events if e["kind"] == "phase"
                and (name is None or e["name"] == name)]

    def total_s(self, name: str) -> float:
        """Summed duration of every closed phase with this name."""
        return sum(e["elapsed_s"] for e in self.phases(name))


def render_profile(tracer: Tracer, *, counter_prefixes:
                   tuple[str, ...] | None = None) -> str:
    """Format a tracer as a span tree plus a counters section.

    One line per distinct phase *path*, indented by nesting depth, with
    summed wall time and invocation count (phases that ran several times
    aggregate onto one line).  Counters follow, optionally filtered to
    the given name prefixes.  This backs ``repro-place place --profile``.
    """
    totals: dict[str, list[float]] = {}
    order: list[str] = []
    for event in tracer.phases():
        path = event["path"]
        if path not in totals:
            totals[path] = [0.0, 0]
            order.append(path)
        totals[path][0] += event["elapsed_s"]
        totals[path][1] += 1

    # nest children under parents, keeping first-closure order per level
    children: dict[str, list[str]] = {"": []}
    for path in order:
        parent = path.rsplit(PATH_SEP, 1)[0] if PATH_SEP in path else ""
        children.setdefault(parent, []).append(path)
        children.setdefault(path, [])

    lines = ["profile (wall time by phase)"]

    def emit(path: str, depth: int) -> None:
        total_s, count = totals[path]
        name = path.rsplit(PATH_SEP, 1)[-1]
        label = "  " * depth + name
        suffix = f" x{count}" if count > 1 else ""
        lines.append(f"  {label:<34} {total_s:>9.3f}s{suffix}")
        for child in children.get(path, []):
            emit(child, depth + 1)

    for top in children[""]:
        emit(top, 0)

    names = [n for n in sorted(tracer.counters)
             if counter_prefixes is None
             or any(n.startswith(p) for p in counter_prefixes)]
    if names:
        lines.append("counters")
        for name in names:
            lines.append(f"  {name:<36} {tracer.counters[name]}")
    return "\n".join(lines)
