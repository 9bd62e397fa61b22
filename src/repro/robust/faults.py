"""Fault injection for exercising the fault-tolerance machinery.

The ``REPRO_FAULT_INJECT`` environment variable names faults to force,
comma-separated.  Each entry is ``name[:count[:skip]]``:

- ``solver_nan`` — poison one solver solution with NaN (fires once);
- ``solver_nan:*`` — poison every solve;
- ``solver_nan:2:3`` — skip the first 3 eligible solves, poison the
  next 2;
- ``cache_corrupt`` — make the next artifact-cache read see a corrupt
  entry (exercises the evict-as-miss path).

Serve-level fault points (the chaos harness; see
:mod:`repro.serve.supervise`):

- ``worker_hang`` — a bridge worker stalls before executing its job
  (stops renewing its lease) until the watchdog interrupts it;
- ``worker_crash`` — a job's execution dies as if its worker process
  crashed (reported with ``error_kind: "crash"``, so supervision
  requeues it with backoff and eventually quarantines it);
- ``journal_torn_write`` — a journal completion record is torn
  mid-write, as a crash would tear the journal tail (replay must
  tolerate the corrupt line and re-run the job);
- ``heartbeat_drop`` — lease heartbeat renewals are silently dropped,
  so the watchdog sees a healthy job as stuck (exercises the
  false-positive requeue path).

Shared-memory arena fault points (:mod:`repro.runtime.shm`; the leak
gate in the chaos soak drives these):

- ``worker_kill`` — a pool worker process dies via ``os._exit(1)`` at
  the top of its job, before any cleanup runs.  A crash replaces the
  pool, so a retried job lands on a fresh worker, whose window starts
  over: ``worker_kill`` kills the first job of each fresh worker, and
  retries die again until the retry budget reports a terminal
  ``crash`` — the harshest test that no shared-memory segment is
  orphaned;
- ``shm_unavailable`` — arena export pretends ``/dev/shm`` is broken
  (as an ``OSError`` from segment creation would), forcing the pickled
  fallback transport and its ``arena.fallback_pickle`` counter.

Injection sites call :func:`fault_fires` with the fault name; the module
keeps per-process occurrence counters so ``count``/``skip`` windows work
deterministically.  Windows therefore count per *worker process*, and
one pool worker serves many jobs (``run --workers N`` keeps its workers
for the batch, ``serve --pool`` until a crash, timeout or interrupt
replaces them): ``solver_nan:1`` fires once per worker, not per job.
With the variable unset every call is a cheap dictionary miss —
production runs pay nothing.

The env value is parsed once per distinct string (memoized), and a
malformed entry raises :class:`~repro.errors.OptionsError` naming the
offending entry instead of leaking a bare ``ValueError`` out of an
arbitrary injection site.
"""

from __future__ import annotations

import os

from ..errors import OptionsError

ENV_VAR = "REPRO_FAULT_INJECT"

#: per-fault count of eligible occurrences seen so far in this process
_occurrences: dict[str, int] = {}

#: memoized parse of the last-seen env value: (raw value, parsed spec)
_parsed: tuple[str, dict[str, tuple[float, int]]] | None = None


def _parse_spec(value: str) -> dict[str, tuple[float, int]]:
    """Parse the env value into ``name -> (count, skip)``.

    Raises:
        OptionsError: a malformed entry (non-integer count/skip,
            negative window) — the offending entry is named so the
            operator can fix the variable, not hunt a stack trace.
    """
    out: dict[str, tuple[float, int]] = {}
    for entry in value.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        name = parts[0]
        count: float = 1
        skip = 0
        problem: str | None = None
        if len(parts) > 3:
            problem = "too many ':' fields"
        else:
            try:
                if len(parts) > 1 and parts[1]:
                    count = float("inf") if parts[1] == "*" \
                        else int(parts[1])
                if len(parts) > 2 and parts[2]:
                    skip = int(parts[2])
            except ValueError as exc:
                problem = str(exc)
            else:
                if count < 0 or skip < 0:
                    problem = "count/skip must be >= 0"
        if problem is not None:
            raise OptionsError(
                f"malformed {ENV_VAR} entry {entry!r}: {problem}; "
                "expected name[:count[:skip]] with integer (or '*') "
                "count", option=ENV_VAR)
        out[name] = (count, skip)
    return out


def _spec(value: str) -> dict[str, tuple[float, int]]:
    """Memoized parse: one parse per distinct env value, not per call."""
    global _parsed
    if _parsed is None or _parsed[0] != value:
        _parsed = (value, _parse_spec(value))
    return _parsed[1]


def fault_fires(name: str) -> bool:
    """True when the named fault should trigger at this call site.

    Every call counts as one eligible occurrence of ``name``; the fault
    fires for occurrences inside the configured ``[skip, skip+count)``
    window.
    """
    value = os.environ.get(ENV_VAR)
    if not value:
        return False
    spec = _spec(value).get(name)
    if spec is None:
        return False
    count, skip = spec
    seen = _occurrences.get(name, 0)
    _occurrences[name] = seen + 1
    return skip <= seen < skip + count


def reset() -> None:
    """Forget all occurrence counters and the parse memo (test isolation)."""
    global _parsed
    _occurrences.clear()
    _parsed = None
