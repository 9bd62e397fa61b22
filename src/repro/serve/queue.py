"""Persistent priority job queue with bounded admission.

:class:`JobQueue` is the daemon's spine: the asyncio front end submits
:class:`QueuedJob` records into it, worker-bridge threads pop them in
priority order, and every state transition is appended to a
:class:`JobJournal` so a daemon restart re-enqueues accepted-but-
unfinished work — the "loses no accepted job" guarantee.

Admission is bounded: once ``max_pending`` jobs are queued-or-running
the next submit raises :class:`QueueFullError` and the client sees an
``ok: false`` response with ``error_kind: "backpressure"`` — explicit
backpressure instead of unbounded memory growth under a traffic spike.

Priorities are integers, higher first; ties resolve in submission
order, so equal-priority traffic is strictly FIFO (deterministic, no
starvation within a priority band).

Supervision (:mod:`repro.serve.supervise`) adds three wrinkles:

- each record carries an *epoch*, bumped whenever the watchdog requeues
  a stalled execution; :meth:`JobQueue.finish` ignores a completion
  from a superseded epoch, so an abandoned execution that limps home
  later can never double-finish a job;
- :meth:`JobQueue.requeue` re-admits a running job with an exponential-
  backoff delay (delayed entries are promoted into the heap once their
  ``not_before`` passes);
- :meth:`JobQueue.quarantine` parks a poison job in the terminal
  ``quarantined`` state, and :meth:`JobQueue.revive` brings it back on
  an explicit ``requeue`` request with a fresh attempt budget.
"""

from __future__ import annotations

import heapq
import json
import threading
from pathlib import Path
from typing import Any, Callable, Iterator

from ..errors import OptionsError, ReproError
from ..robust.faults import fault_fires
from ..runtime.cache import canonical_options
from ..runtime.jobs import JobResult, PlacementJob
from . import protocol


class QueueFullError(ReproError):
    """Admission rejected a submit: the daemon is at capacity."""

    code = "backpressure"

    def __init__(self, message: str, *, pending: int | None = None,
                 **kwargs: Any) -> None:
        super().__init__(message, stage=kwargs.pop("stage", "admit"),
                         **kwargs)
        if pending is not None:
            self.payload["pending"] = pending


class DaemonStoppingError(ReproError):
    """Admission rejected a submit: the daemon is shutting down."""

    code = "stopping"

    def __init__(self, message: str, **kwargs: Any) -> None:
        super().__init__(message, stage=kwargs.pop("stage", "admit"),
                         **kwargs)


class QueuedJob:
    """One accepted job and everything the daemon tracks about it.

    Span fields (``queue_wait_s``, ``cache_probe_s``, ``execute_s``,
    ``total_s``) are filled as the job moves through the pipeline and
    feed the live stats aggregation.

    ``attempts`` counts executions across daemon restarts (seeded from
    the journal's ``lease`` rows on replay); ``epoch`` rises every time
    the watchdog reclaims the job from a stuck execution, and a
    ``finish`` carrying a stale epoch is discarded.
    """

    __slots__ = ("job_id", "job", "priority", "state", "cached",
                 "submitted_s", "started_s", "finished_s", "result",
                 "error", "error_kind", "cancel", "done", "spans",
                 "attempts", "epoch", "not_before_s", "arena_lease")

    def __init__(self, job_id: str, job: PlacementJob, *,
                 priority: int = 0, submitted_s: float = 0.0,
                 attempts: int = 0) -> None:
        self.job_id = job_id
        self.job = job
        self.priority = priority
        self.state = protocol.QUEUED
        self.cached = False
        self.submitted_s = submitted_s
        self.started_s = 0.0
        self.finished_s = 0.0
        self.result: JobResult | None = None
        self.error: str | None = None
        self.error_kind: str | None = None
        self.cancel = threading.Event()
        self.done = threading.Event()
        self.spans: dict[str, float] = {}
        self.attempts = attempts
        self.epoch = 0
        self.not_before_s = 0.0
        # True while this job holds a reference on its design's shared-
        # memory arena (released by the daemon's on_terminal hook)
        self.arena_lease = False

    @property
    def terminal(self) -> bool:
        return self.state in protocol.TERMINAL_STATES

    def describe(self) -> dict:
        """Status-response payload (no positions — those are opt-in)."""
        info: dict[str, Any] = {
            "job_id": self.job_id,
            "state": self.state,
            "design": self.job.design,
            "placer": self.job.placer,
            "seed": self.job.seed,
            "priority": self.priority,
            "cached": self.cached,
            "attempts": self.attempts,
            "spans": {name: round(value, 6)
                      for name, value in sorted(self.spans.items())},
        }
        if self.error is not None:
            info["error"] = self.error
            info["error_kind"] = self.error_kind or "other"
        result = self.result
        if result is not None and result.ok:
            info["hpwl"] = result.hpwl_final
            info["legal"] = result.legal
            if result.degradation and result.degradation.get("degraded"):
                info["rung"] = result.degradation.get("succeeded")
        return info


class JobJournal:
    """Append-only JSONL ledger of accepted and finished jobs.

    ``accept`` rows carry everything needed to rebuild the
    :class:`~repro.runtime.jobs.PlacementJob` (plus the attempt count
    already spent in earlier daemon lifetimes); ``lease`` rows mark one
    execution attempt starting; ``finish`` rows mark the terminal
    state; ``requeue`` rows revive a quarantined job.  :meth:`replay`
    folds the event stream into the set of jobs a restarted daemon must
    re-enqueue (or re-register as quarantined).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")
        self._lock = threading.Lock()

    def _write(self, record: dict, *, tear: bool = False) -> None:
        line = json.dumps(record, sort_keys=True)
        if tear:
            # chaos fault: the record is truncated mid-write, the way a
            # crash tears the journal tail; replay must skip it
            line = line[:max(len(line) // 2, 1)]
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()

    def accept(self, record: QueuedJob) -> None:
        options = record.job.options
        self._write({
            "event": "accept",
            "job_id": record.job_id,
            "design": record.job.design,
            "placer": record.job.placer,
            "seed": record.job.seed,
            "priority": record.priority,
            "attempts": record.attempts,
            "options": canonical_options(options)
            if options is not None else None,
        })

    def lease(self, job_id: str, attempt: int) -> None:
        """One execution attempt is starting (journaled *before* it
        runs, so a crash mid-execution still counts the attempt)."""
        self._write({"event": "lease", "job_id": job_id,
                     "attempt": attempt},
                    tear=fault_fires("journal_torn_write"))

    def finish(self, record: QueuedJob) -> None:
        self._write({"event": "finish", "job_id": record.job_id,
                     "state": record.state},
                    tear=fault_fires("journal_torn_write"))

    def requeue(self, job_id: str) -> None:
        """A quarantined job was revived with a fresh attempt budget."""
        self._write({"event": "requeue", "job_id": job_id})

    def close(self) -> None:
        with self._lock:
            self._fh.close()

    @staticmethod
    def replay(path: str | Path) -> list[dict]:
        """Jobs a restarted daemon must deal with, in acceptance order.

        Each returned entry is the ``accept`` payload plus:

        - ``attempts``: executions already spent (accept seed + one per
          ``lease`` row — a lease without a matching finish means the
          job was running when the previous daemon died, and that
          attempt is *counted*, not resumed);
        - ``quarantined``: True when the job's last event stream left it
          parked in quarantine (it must be re-registered, not re-run).

        Jobs whose final event is a ``finish`` in any other terminal
        state are settled and dropped.  Corrupt (torn) lines anywhere in
        the file are skipped: everything that parses is honoured.
        """
        journal_path = Path(path)
        if not journal_path.exists():
            return []
        jobs: dict[str, dict] = {}
        order: list[str] = []
        with journal_path.open(encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write: everything that parses counts
                job_id = record.get("job_id")
                if not job_id:
                    continue
                event = record.get("event")
                if event == "accept":
                    record.setdefault("attempts", 0)
                    jobs[job_id] = record
                    record["finish_state"] = None
                    order.append(job_id)
                elif job_id not in jobs:
                    continue  # its accept row was torn away
                elif event == "lease":
                    jobs[job_id]["attempts"] += 1
                    jobs[job_id]["finish_state"] = None
                elif event == "finish":
                    jobs[job_id]["finish_state"] = record.get("state")
                elif event == "requeue":
                    jobs[job_id]["finish_state"] = None
                    jobs[job_id]["attempts"] = 0
        out = []
        for job_id in order:
            entry = jobs.get(job_id)
            if entry is None:
                continue
            state = entry.pop("finish_state")
            if state is not None and state != protocol.QUARANTINED:
                continue  # settled in a previous lifetime
            entry["quarantined"] = state == protocol.QUARANTINED
            out.append(entry)
        return out


class JobQueue:
    """Thread-safe priority queue + job registry for the daemon.

    Args:
        max_pending: bounded-admission cap on queued+running jobs.
        clock: monotonic time source (the daemon tracer's clock, so
            every span in the system shares one clock).
        journal: persistence sink; None disables durability.
        on_terminal: invoked (outside the queue lock) each time a job
            reaches a terminal state, exactly once per terminal
            transition — the daemon uses it to release the job's arena
            reference.
    """

    def __init__(self, *, max_pending: int = 2048,
                 clock: Callable[[], float],
                 journal: JobJournal | None = None,
                 on_terminal: Callable[[QueuedJob], None] | None = None
                 ) -> None:
        if max_pending < 1:
            raise OptionsError(
                f"max_pending must be >= 1, got {max_pending}",
                option="max_pending")
        self.max_pending = max_pending
        self.clock = clock
        self.journal = journal
        self.on_terminal = on_terminal
        self._cond = threading.Condition()
        self._heap: list[tuple[int, int, str]] = []
        self._delayed: list[str] = []
        self._records: dict[str, QueuedJob] = {}
        self._seq = 0
        self._push_seq = 0
        self._accepting = True

    def lock(self) -> threading.Condition:
        """The queue's condition, for callers composing mutations."""
        return self._cond

    # -- admission -----------------------------------------------------
    def submit(self, job: PlacementJob, *, priority: int = 0,
               job_id: str | None = None,
               attempts: int = 0) -> QueuedJob:
        """Admit one job; raises on backpressure or shutdown.

        ``attempts`` seeds the cross-restart attempt count when the
        daemon replays a journaled job that already ran (and failed or
        was interrupted) in a previous lifetime.
        """
        with self._cond:
            if not self._accepting:
                raise DaemonStoppingError(
                    "daemon is shutting down; submission rejected")
            pending = sum(1 for r in self._records.values()
                          if not r.terminal)
            if pending >= self.max_pending:
                raise QueueFullError(
                    f"queue is full ({pending}/{self.max_pending} "
                    "pending); retry later", pending=pending)
            record = self._register(job, priority=priority,
                                    job_id=job_id, attempts=attempts)
            self._heap_push(record)
            self._cond.notify()
        if self.journal is not None:
            self.journal.accept(record)
        return record

    def register_finished(self, job: PlacementJob, result: JobResult, *,
                          priority: int = 0, cached: bool = False,
                          job_id: str | None = None) -> QueuedJob:
        """Record a job that completed without queueing (warm cache)."""
        with self._cond:
            if not self._accepting:
                raise DaemonStoppingError(
                    "daemon is shutting down; submission rejected")
            record = self._register(job, priority=priority, job_id=job_id)
            record.state = protocol.DONE
            record.cached = cached
            record.result = result
            record.started_s = record.submitted_s
            record.finished_s = self.clock()
            record.done.set()
        if self.journal is not None:
            self.journal.accept(record)
            self.journal.finish(record)
        return record

    def register_quarantined(self, job: PlacementJob, *, attempts: int,
                             priority: int = 0,
                             job_id: str | None = None,
                             error: str | None = None) -> QueuedJob:
        """Re-register a job that is (or just became) quarantined.

        Used on journal replay: quarantined jobs survive restarts as
        visible, revivable records, re-journaled into the fresh journal
        so the *next* restart sees them too.
        """
        with self._cond:
            record = self._register(job, priority=priority,
                                    job_id=job_id, attempts=attempts)
            record.state = protocol.QUARANTINED
            record.error = error or (
                f"quarantined after {attempts} attempt(s)")
            record.error_kind = "quarantined"
            record.finished_s = self.clock()
            record.done.set()
        if self.journal is not None:
            self.journal.accept(record)
            self.journal.finish(record)
        return record

    def _register(self, job: PlacementJob, *, priority: int,
                  job_id: str | None, attempts: int = 0) -> QueuedJob:
        # repro-lint: disable=CON02 -- every caller holds self._cond
        self._seq += 1
        if job_id is None:
            job_id = f"j{self._seq:06d}"
        if job_id in self._records:
            raise OptionsError(f"duplicate job id {job_id!r}",
                               option="job_id")
        record = QueuedJob(job_id, job, priority=priority,
                           submitted_s=self.clock(), attempts=attempts)
        self._records[job_id] = record
        return record

    def _heap_push(self, record: QueuedJob) -> None:
        self._push_seq += 1
        heapq.heappush(self._heap,
                       (-record.priority, self._push_seq, record.job_id))

    def _promote_delayed(self) -> None:
        """Move backoff-delayed entries whose time has come into the
        heap (caller holds the lock)."""
        if not self._delayed:
            return
        now = self.clock()
        still_waiting = []
        for job_id in self._delayed:
            record = self._records.get(job_id)
            if record is None or record.state != protocol.QUEUED:
                continue  # cancelled while backing off
            if record.not_before_s <= now:
                self._heap_push(record)
            else:
                still_waiting.append(job_id)
        self._delayed = still_waiting

    # -- worker side ---------------------------------------------------
    def pop(self, timeout: float | None = None) -> QueuedJob | None:
        """Next queued job by (priority desc, FIFO), or None on timeout.

        The returned record is already marked ``running``; entries
        cancelled while queued are skipped (lazy heap deletion), and
        backoff-delayed entries are promoted once their delay expires.
        """
        with self._cond:
            while True:
                self._promote_delayed()
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    record = self._records[job_id]
                    if record.state != protocol.QUEUED:
                        continue  # cancelled while queued
                    if record.not_before_s > self.clock():
                        continue  # superseded push of a delayed record
                    record.state = protocol.RUNNING
                    record.started_s = self.clock()
                    record.spans["queue_wait"] = \
                        record.started_s - record.submitted_s
                    return record
                if not self._cond.wait(timeout=timeout):
                    return None

    def finish(self, record: QueuedJob, state: str, *,
               result: JobResult | None = None,
               error: str | None = None,
               error_kind: str | None = None,
               journal: bool = True,
               epoch: int | None = None) -> bool:
        """Move a running job to a terminal state and wake waiters.

        Returns False (and changes nothing) when the completion comes
        from a superseded execution: the record is no longer running,
        or ``epoch`` no longer matches — the watchdog requeued or
        quarantined the job while this execution was stuck.

        ``journal=False`` leaves the job "accepted" in the journal — the
        immediate-shutdown path uses it so interrupted (checkpointed)
        jobs replay on the next start instead of being forgotten.
        """
        with self._cond:
            if record.terminal:
                return False
            if epoch is not None and epoch != record.epoch:
                return False
            record.state = state
            record.result = result
            if result is not None:
                # atomic with done.set(): a client woken by the event
                # must never observe a stale cached flag
                record.cached = result.cached
            record.error = error
            record.error_kind = error_kind
            record.finished_s = self.clock()
            record.spans["total"] = \
                record.finished_s - record.submitted_s
            record.done.set()
            self._cond.notify_all()
        if journal and self.journal is not None:
            self.journal.finish(record)
        if self.on_terminal is not None:
            self.on_terminal(record)
        return True

    # -- supervision ---------------------------------------------------
    def requeue(self, record: QueuedJob, *, epoch: int,
                delay_s: float = 0.0) -> bool:
        """Reclaim a running job from a stuck/crashed execution.

        Bumps the epoch (so the old execution's eventual ``finish`` is
        discarded), replaces the cancel token (the old one is what the
        watchdog trips to interrupt the dead attempt), and re-admits the
        job after ``delay_s`` of backoff.  Returns False when the
        execution already finished or was superseded.
        """
        with self._cond:
            if record.state != protocol.RUNNING or epoch != record.epoch:
                return False
            record.epoch += 1
            record.cancel = threading.Event()
            record.state = protocol.QUEUED
            record.not_before_s = self.clock() + max(delay_s, 0.0)
            if delay_s > 0.0:
                self._delayed.append(record.job_id)
            else:
                self._heap_push(record)
            self._cond.notify()
        return True
        # no journal row: the job's accept is still unfinished, and its
        # lease rows already carry the attempt count a replay needs

    def quarantine(self, record: QueuedJob, *, epoch: int,
                   error: str) -> bool:
        """Park a poison job in the terminal quarantined state."""
        with self._cond:
            if record.state != protocol.RUNNING or epoch != record.epoch:
                return False
            record.epoch += 1
            record.state = protocol.QUARANTINED
            record.error = error
            record.error_kind = "quarantined"
            record.finished_s = self.clock()
            record.spans["total"] = \
                record.finished_s - record.submitted_s
            record.done.set()
            self._cond.notify_all()
        if self.journal is not None:
            self.journal.finish(record)
        if self.on_terminal is not None:
            self.on_terminal(record)
        return True

    def revive(self, job_id: str) -> QueuedJob:
        """Bring a quarantined job back with a fresh attempt budget
        (the ``requeue`` protocol request)."""
        with self._cond:
            record = self._records.get(job_id)
            if record is None:
                raise OptionsError(f"unknown job id {job_id!r}",
                                   option="job_id")
            if record.state != protocol.QUARANTINED:
                raise OptionsError(
                    f"job {job_id!r} is {record.state}, not quarantined; "
                    "only quarantined jobs can be requeued",
                    option="job_id")
            record.state = protocol.QUEUED
            record.attempts = 0
            record.epoch += 1
            record.cancel = threading.Event()
            record.done = threading.Event()
            record.error = None
            record.error_kind = None
            record.result = None
            record.not_before_s = 0.0
            self._heap_push(record)
            self._cond.notify()
        if self.journal is not None:
            self.journal.requeue(job_id)
        return record

    # -- control plane -------------------------------------------------
    @property
    def accepting(self) -> bool:
        with self._cond:
            return self._accepting

    def reserve_seq(self, seq: int) -> None:
        """Advance the id sequence past journal-replayed job ids."""
        with self._cond:
            self._seq = max(self._seq, seq)

    def get(self, job_id: str) -> QueuedJob | None:
        with self._cond:
            return self._records.get(job_id)

    def cancel(self, job_id: str) -> tuple[str, QueuedJob] | None:
        """Cancel a job; returns (state-at-cancel-time, record) or None.

        Queued jobs become terminal immediately; running jobs get their
        cancel token set — the executor's job hook interrupts them at
        the next global-placement iteration on any ladder rung
        (best-effort: a cancel that lands after global placement lets
        the job finish).
        """
        with self._cond:
            record = self._records.get(job_id)
            if record is None:
                return None
            state = record.state
            if state == protocol.QUEUED:
                record.state = protocol.CANCELLED
                record.finished_s = self.clock()
                record.spans["total"] = \
                    record.finished_s - record.submitted_s
                record.done.set()
                self._cond.notify_all()
            elif state == protocol.RUNNING:
                record.cancel.set()
            else:
                return state, record
        if state == protocol.QUEUED:
            if self.journal is not None:
                self.journal.finish(record)
            if self.on_terminal is not None:
                self.on_terminal(record)
        return state, record

    def stop_admission(self) -> None:
        with self._cond:
            self._accepting = False
            self._cond.notify_all()

    def cancel_all_queued(self) -> list[QueuedJob]:
        """Immediate-shutdown helper: mark queued work cancelled in
        memory but keep it "accepted" in the journal for replay."""
        cancelled = []
        with self._cond:
            for record in self._records.values():
                if record.state == protocol.QUEUED:
                    record.state = protocol.CANCELLED
                    record.finished_s = self.clock()
                    record.done.set()
                    cancelled.append(record)
            self._cond.notify_all()
        if self.on_terminal is not None:
            for record in cancelled:
                self.on_terminal(record)
        return cancelled

    def running(self) -> list[QueuedJob]:
        with self._cond:
            return [r for r in self._records.values()
                    if r.state == protocol.RUNNING]

    def counts(self) -> dict[str, int]:
        """Job tally by state (for the stats response)."""
        tally = {state: 0 for state in
                 (protocol.QUEUED, protocol.RUNNING) +
                 protocol.TERMINAL_STATES}
        with self._cond:
            for record in self._records.values():
                tally[record.state] = tally.get(record.state, 0) + 1
        return tally

    def drained(self) -> bool:
        with self._cond:
            return all(r.terminal for r in self._records.values())

    def records(self) -> Iterator[QueuedJob]:
        with self._cond:
            yield from list(self._records.values())
