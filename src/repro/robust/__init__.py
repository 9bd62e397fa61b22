"""Fault tolerance: numerical guards, degradation ladder, checkpoints.

The robustness layer of the pipeline (see DESIGN.md "Failure model"):

- :mod:`repro.robust.guards` — :class:`GuardedSolve` /
  :class:`IterateGuard`, the numerical guards every engine iterate and
  solve passes through;
- :mod:`repro.robust.fallback` — :func:`place_with_fallback`, the
  degradation ladder, and :class:`DegradationReport`;
- :mod:`repro.robust.checkpoint` — :class:`CheckpointStore` for
  crash/timeout resume, and :class:`CheckpointRecorder`, the one
  per-iteration job hook (heartbeat, cancel, snapshots);
- :mod:`repro.robust.faults` — the ``REPRO_FAULT_INJECT`` hook used by
  the fault-injection CI job.
"""

from importlib import import_module

# Lazy exports (PEP 562), same discipline as repro.runtime: the place
# engines import repro.robust.guards while repro.robust.fallback imports
# repro.core (which imports the engines) — eager re-exports here would
# close that loop.
_EXPORTS = {
    "GuardOptions": ".guards",
    "GuardedSolve": ".guards",
    "IterateGuard": ".guards",
    "DegradationReport": ".fallback",
    "LADDERS": ".fallback",
    "RungAttempt": ".fallback",
    "place_with_fallback": ".fallback",
    "Checkpoint": ".checkpoint",
    "CheckpointRecorder": ".checkpoint",
    "CheckpointStore": ".checkpoint",
    "fault_fires": ".faults",
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
    "Checkpoint",
    "CheckpointRecorder",
    "CheckpointStore",
    "DegradationReport",
    "GuardOptions",
    "GuardedSolve",
    "IterateGuard",
    "LADDERS",
    "RungAttempt",
    "fault_fires",
    "place_with_fallback",
]
