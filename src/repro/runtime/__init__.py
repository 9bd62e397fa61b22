"""Batch-placement runtime: parallel execution, durable artifact caching,
and structured telemetry.

This package turns the library into a batch execution engine:

- :mod:`repro.runtime.jobs` — :class:`PlacementJob` / :class:`JobResult`
  value records that pickle across process boundaries;
- :mod:`repro.runtime.executor` — :func:`execute_job` (the single
  serial-and-worker code path) and :class:`BatchExecutor` (process-pool
  fan-out with timeout and bounded retry);
- :mod:`repro.runtime.cache` — content-addressed on-disk
  :class:`ArtifactCache` keyed on netlist + options + seed + code version,
  shared by ``run`` and ``serve``;
- :mod:`repro.runtime.telemetry` / :mod:`repro.runtime.trace` —
  :class:`Tracer` phase timers/counters and the JSONL sink;
- :mod:`repro.runtime.runner` — :func:`run_suite` orchestration used by
  the ``repro-place run`` CLI subcommand and the benches.
"""

from importlib import import_module

# Lazy exports (PEP 562): `repro.core` placers import
# `repro.runtime.telemetry`, while `repro.runtime.cache` imports
# `repro.core` — eager re-exports here would close that loop.  Deferring
# attribute resolution keeps the import graph acyclic and `import repro`
# cheap.
_EXPORTS = {
    "ArtifactCache": ".cache",
    "apply_positions": ".cache",
    "cache_from_spec": ".cache",
    "canonical_options": ".cache",
    "job_key": ".cache",
    "netlist_fingerprint": ".cache",
    "snapshot_positions": ".cache",
    "BatchExecutor": ".executor",
    "execute_job": ".executor",
    "JobResult": ".jobs",
    "PlacementJob": ".jobs",
    "SuiteResult": ".runner",
    "make_jobs": ".runner",
    "run_suite": ".runner",
    "PhaseHandle": ".telemetry",
    "Tracer": ".telemetry",
    "render_profile": ".telemetry",
    "JsonlTraceWriter": ".trace",
    "read_trace": ".trace",
    "write_trace": ".trace",
}


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(module, __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "ArtifactCache",
    "BatchExecutor",
    "JobResult",
    "JsonlTraceWriter",
    "PhaseHandle",
    "PlacementJob",
    "SuiteResult",
    "Tracer",
    "apply_positions",
    "cache_from_spec",
    "canonical_options",
    "execute_job",
    "job_key",
    "make_jobs",
    "netlist_fingerprint",
    "read_trace",
    "render_profile",
    "run_suite",
    "snapshot_positions",
    "write_trace",
]
