"""Suite-level orchestration: many designs × many placers, one call.

:func:`run_suite` is the runtime's front door.  It expands the requested
designs and placers into :class:`PlacementJob`\\ s, hands them to a
:class:`BatchExecutor`, and returns a :class:`SuiteResult` whose row
order is the deterministic job order (design-major, placer-minor) —
identical for serial and parallel execution.  An optional JSONL trace
captures every phase event and counter of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..core import PlacerOptions
from ..eval import format_table
from ..gen import design_names
from .cache import ArtifactCache
from .executor import BatchExecutor
from .jobs import JobResult, PlacementJob
from .telemetry import Tracer
from .trace import write_trace

DEFAULT_PLACERS = ("baseline", "structure")


@dataclass
class SuiteResult:
    """Results plus the telemetry of the whole batch."""

    results: list[JobResult]
    tracer: Tracer
    trace_path: Path | None = None
    counters: dict[str, int] = field(default_factory=dict)
    cache_stats: dict | None = None

    def __post_init__(self) -> None:
        if not self.counters:
            self.counters = dict(self.tracer.counters)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> list[JobResult]:
        return [r for r in self.results if not r.ok]

    def rows(self) -> list[dict[str, object]]:
        return [r.row() for r in self.results]

    def table(self, title: str = "suite results") -> str:
        return format_table(self.rows(), title=title)

    def result(self, design: str, placer: str,
               seed: int | None = None) -> JobResult:
        """Look one job's result up by coordinates."""
        for r in self.results:
            if r.job.design == design and r.job.placer == placer \
                    and (seed is None or r.job.seed == seed):
                return r
        raise KeyError(f"no result for {design}:{placer}")


def make_jobs(designs: Iterable[str],
              placers: Sequence[str] = DEFAULT_PLACERS, *,
              options: PlacerOptions | None = None,
              seed: int = 0) -> list[PlacementJob]:
    """Cross designs × placers into deterministic job order."""
    return [PlacementJob(design=d, placer=p, options=options, seed=seed)
            for d in designs for p in placers]


def run_suite(designs: Sequence[str] | None = None,
              placers: Sequence[str] = DEFAULT_PLACERS, *,
              suite: str = "dac2012",
              workers: int = 0,
              seed: int = 0,
              options: PlacerOptions | None = None,
              cache_dir: str | Path | None = None,
              trace_path: str | Path | None = None,
              timeout_s: float | None = None,
              retries: int = 1,
              fallback: bool = True,
              shm: bool = True,
              tracer: Tracer | None = None) -> SuiteResult:
    """Place a batch of designs and return the deterministic result table.

    Args:
        designs: design names; defaults to every design of ``suite``.
        placers: placer names run per design.
        suite: named suite used when ``designs`` is None.
        workers: process-pool size (0 = serial in-process).
        seed: run seed applied to every job.
        options: shared placer options (seed overridden per job).
        cache_dir: enable the durable artifact cache at this directory.
        trace_path: write the full JSONL telemetry trace here.
        timeout_s: per-job timeout in parallel mode.
        retries: crash/raise retry budget per job (a retry starts
            cold and places exactly as an uninterrupted run).
        fallback: run jobs through the degradation ladder (default).
        shm: ship designs to pool workers as shared-memory arenas
            (default); ``False`` restores per-job rebuild dispatch.
        tracer: collect telemetry into an existing tracer.
    """
    if designs is None:
        designs = design_names(suite)
    tracer = tracer or Tracer()
    cache = ArtifactCache(cache_dir) if cache_dir is not None else None
    jobs = make_jobs(designs, placers, options=options, seed=seed)
    executor = BatchExecutor(workers, cache=cache, timeout_s=timeout_s,
                             retries=retries, fallback=fallback, shm=shm)
    with tracer.phase("suite", designs=list(designs),
                      placers=list(placers), workers=workers):
        results = executor.run(jobs, tracer=tracer)
    written = None
    if trace_path is not None:
        written = write_trace(trace_path, tracer)
    cache_stats = None
    if cache is not None:
        cache_stats = cache.stats()
        # parallel workers probe their own cache instances, so fold the
        # merged tracer counters in (serial runs: identical numbers)
        cache_stats["hits"] = max(cache_stats["hits"],
                                  tracer.count("cache.hit"))
        cache_stats["misses"] = max(cache_stats["misses"],
                                    tracer.count("cache.miss"))
        cache_stats["evictions"] = max(cache_stats["evictions"],
                                       tracer.count("cache.eviction"))
        cache_stats["corrupt"] = max(cache_stats["corrupt"],
                                     tracer.count("cache.corrupt"))
    return SuiteResult(results=results, tracer=tracer, trace_path=written,
                       cache_stats=cache_stats)
