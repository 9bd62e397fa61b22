"""Worker bridge: daemon threads driving the proven batch executor.

Each bridge thread pops one :class:`~repro.serve.queue.QueuedJob` at a
time and runs it through :class:`~repro.runtime.executor.BatchExecutor`
— the exact engine ``repro-place run`` uses — so the daemon inherits
the PR-1/PR-2 execution semantics wholesale: bit-identical results,
degradation-ladder fallback, taxonomy ``error_kind`` reporting, and
checkpoint/resume.  In ``pool`` mode every job runs in a single-worker
process pool (full crash/timeout isolation); otherwise it runs serially
inside the bridge thread (the executor's ``workers=0`` path, same
results by construction).

The bridge hands the executor only the job's cancel token
(``record.cancel``) and a lease heartbeat; neither needs checkpoints.
The executor's one per-iteration job hook
(:class:`~repro.robust.checkpoint.CheckpointRecorder`) renews the lease
and turns a set token into :class:`~repro.errors.JobCancelledError` on
any ladder rung, first forcing a final snapshot when checkpoints are
on, so a resubmitted job resumes instead of cold-starting.  The
executor reports the cancellation terminally (never retried, never
degraded past).  In pool mode it mirrors the token onto its
shared-memory cancel board itself; heartbeats stay in-process.

Supervision (:mod:`repro.serve.supervise`) watches those heartbeats: a
healthy in-thread placement beats once per global-placement iteration.
When the watchdog declares an execution stuck it calls
:meth:`~repro.runtime.executor.BatchExecutor.interrupt`, which trips
the job's *original* cancel token (pool mode: kills the worker process
too), and requeues the job under a new epoch; whatever the dead
execution eventually reports is discarded by the queue's epoch guard
and counted as ``worker.zombie_results``.  A hung bridge thread cannot
be killed, so the watchdog *abandons* it —
:meth:`WorkerBridge.abandon_worker` hands its slot to a fresh thread,
and :meth:`WorkerBridge.stop` counts threads that never came back as
``worker.leaked``.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import TYPE_CHECKING, Callable

from ..robust.checkpoint import CheckpointStore
from ..robust.faults import fault_fires
from ..runtime.cache import ArtifactCache
from ..runtime.executor import BatchExecutor
from ..runtime.jobs import JobResult
from ..runtime.telemetry import Tracer
from . import protocol
from .metrics import ServiceMetrics
from .queue import JobQueue, QueuedJob

if TYPE_CHECKING:  # import cycle guard: supervise imports this module
    from ..runtime.shm import ArenaProvider
    from .supervise import Supervisor

#: failure kinds the supervisor may retry (infrastructure casualties, as
#: opposed to deterministic taxonomy failures that would fail again)
RETRYABLE_KINDS = ("crash", "timeout", "interrupted")

#: safety cap on the injected ``worker_hang`` fault — a hung worker in
#: a chaos run that nobody interrupts should not wedge the test forever
HANG_CAP_S = 120.0


class WorkerBridge:
    """Pool of daemon threads feeding jobs to the batch executor.

    Args:
        queue: the shared job queue.
        workers: number of bridge threads (concurrent placements).
        cache: shared artifact cache (hits recorded inside the
            executor; the submit fast-path usually catches them first).
        checkpoint_root: checkpoint directory: resume state only (a
            cancelled job's final snapshot, crash/timeout resume).
            Cancel and heartbeats work without it.
        pool: run each job in a single-worker process pool instead of
            in-thread (isolation at the cost of process startup).
            Heartbeats do not cross the process boundary, so in pool
            mode the watchdog's ``stall_timeout_s`` acts as a coarse
            wall-clock backstop — set it above the expected job length.
        timeout_s: per-job wall-clock budget (pool mode only).
        retries: executor retry budget for crashing jobs.
        fallback: run the degradation ladder (default).
        shm: ship designs into pool workers as shared-memory arenas
            (default); off, each pool job rebuilds its design.
        arenas: daemon-owned refcounted arena provider shared by every
            per-job executor (None: each executor exports its own).
        clock: shared tracer clock.
        metrics: live stats aggregation.
        emit: callback receiving JSON-ready telemetry rows (the daemon
            streams them to the JSONL trace); None drops them.
        supervisor: lease/watchdog/breaker layer; None runs
            unsupervised (crashes report as terminal failures, the
            pre-supervision behaviour).
    """

    def __init__(self, queue: JobQueue, *, workers: int = 1,
                 cache: ArtifactCache | None = None,
                 checkpoint_root: str | None = None,
                 pool: bool = False, timeout_s: float | None = None,
                 retries: int = 1, fallback: bool = True,
                 shm: bool = True,
                 arenas: "ArenaProvider | None" = None,
                 clock: Callable[[], float],
                 metrics: ServiceMetrics,
                 emit: Callable[[dict], None] | None = None,
                 supervisor: "Supervisor | None" = None) -> None:
        self.queue = queue
        self.workers = max(workers, 1)
        self.cache = cache
        self.checkpoint_root = checkpoint_root
        self.pool = pool
        self.timeout_s = timeout_s
        self.retries = retries
        self.fallback = fallback
        self.shm = shm
        self.arenas = arenas
        self.clock = clock
        self.metrics = metrics
        self.emit = emit
        self.supervisor = supervisor
        if supervisor is not None:
            supervisor.attach_bridge(self)
        self.requeue_cancelled = False
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._abandoned: set[str] = set()
        self._spawn_seq = 0
        self.counters: dict[str, int] = {}
        self._counter_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        for _ in range(self.workers):
            self._spawn()

    def _spawn(self) -> None:
        with self._counter_lock:
            idx = self._spawn_seq
            self._spawn_seq += 1
        thread = threading.Thread(target=self._run, daemon=True,
                                  name=f"repro-serve-worker-{idx}")
        thread.start()
        self._threads.append(thread)

    def abandon_worker(self, worker: str) -> None:
        """Give up on a (presumed hung) bridge thread and replace it.

        Python threads cannot be killed; the abandoned thread exits on
        its own the next time it reaches the top of its loop — if it
        never does, :meth:`stop` counts it as leaked.  The replacement
        keeps execution capacity constant through the stall.
        """
        with self._counter_lock:
            self._abandoned.add(worker)
            self.counters["worker.abandoned"] = \
                self.counters.get("worker.abandoned", 0) + 1
        self._spawn()

    def stop(self, *, join_timeout_s: float = 30.0) -> int:
        """Stop all bridge threads; returns how many failed to join.

        Threads still alive after ``join_timeout_s`` are *leaked* —
        typically executions wedged past the watchdog's reach.  They
        are counted (``worker.leaked``), reported as a telemetry row,
        and surfaced through ``stats`` rather than silently dropped.
        """
        self._stop.set()
        deadline = self.clock() + join_timeout_s
        leaked = []
        for thread in self._threads:
            thread.join(timeout=max(deadline - self.clock(), 0.0))
            if thread.is_alive():
                leaked.append(thread.name)
        if leaked:
            with self._counter_lock:
                self.counters["worker.leaked"] = \
                    self.counters.get("worker.leaked", 0) + len(leaked)
            if self.emit is not None:
                self.emit({"kind": "worker_leak", "leaked": len(leaked),
                           "workers": sorted(leaked)})
        return len(leaked)

    def _abandoned_self(self) -> bool:
        with self._counter_lock:
            return threading.current_thread().name in self._abandoned

    def _run(self) -> None:
        while not self._stop.is_set() and not self._abandoned_self():
            record = self.queue.pop(timeout=0.1)
            if record is None:
                continue
            self._execute(record)

    # -- execution -----------------------------------------------------
    def _execute(self, record: QueuedJob) -> None:
        # capture the cancel token *now*: a watchdog requeue swaps a
        # fresh token onto the record, and the interrupt must trip the
        # one this execution's hook is actually watching
        token = record.cancel
        epoch = record.epoch
        worker = threading.current_thread().name
        supervisor = self.supervisor

        heartbeat = functools.partial(supervisor.heartbeat,
                                      record.job_id) \
            if supervisor is not None else None
        checkpoints = CheckpointStore(self.checkpoint_root) \
            if self.checkpoint_root is not None else None
        executor = BatchExecutor(
            workers=1 if self.pool else 0, cache=self.cache,
            timeout_s=self.timeout_s, retries=self.retries,
            checkpoints=checkpoints, fallback=self.fallback,
            shm=self.shm, arenas=self.arenas, cancel=token,
            heartbeat=heartbeat)

        if supervisor is not None:
            lease = supervisor.acquire(record, worker=worker,
                                       interrupt=executor.interrupt,
                                       pool=self.pool)
            epoch = lease.epoch

        tracer = Tracer(clock=self.clock)
        start_s = self.clock()
        if fault_fires("worker_hang"):
            # chaos: stall without executing (and without heartbeats)
            # until the watchdog interrupts this execution
            self._hang(token)
            result = JobResult(job=record.job, status="error",
                               error="injected fault: worker_hang",
                               error_kind="interrupted")
        elif fault_fires("worker_crash"):
            # chaos: this execution dies as if its process crashed
            result = JobResult(job=record.job, status="error",
                               error="injected fault: worker_crash",
                               error_kind="crash")
        else:
            result = executor.run([record.job], tracer=tracer)[0]
        record.spans["execute"] = self.clock() - start_s
        # the service-level wait (accept -> pop) supersedes the
        # executor's intra-batch measurement, which is ~0 here
        result.queue_wait_s = record.spans.get("queue_wait", 0.0)

        if supervisor is not None:
            supervisor.release(record.job_id, epoch)

        if result.ok:
            applied = self._finish(record, protocol.DONE, result,
                                   epoch=epoch)
        elif result.error_kind == "cancelled" or token.is_set():
            # a user cancel lands here and finishes; a watchdog
            # interruption also lands here but its epoch is stale, so
            # the finish is discarded (the job already went back to the
            # queue or into quarantine)
            applied = self._finish(record, protocol.CANCELLED, result,
                                   epoch=epoch)
        elif supervisor is not None and \
                result.error_kind in RETRYABLE_KINDS:
            self._route_failure(record, result, epoch=epoch,
                                supervisor=supervisor)
            applied = False  # never emit a terminal row here
        else:
            applied = self._finish(record, protocol.FAILED, result,
                                   epoch=epoch)
        with self._counter_lock:
            for name, value in tracer.counters.items():
                self.counters[name] = self.counters.get(name, 0) + value
        if self.emit is not None:
            for event in tracer.events:
                row = dict(event)
                row["job_id"] = record.job_id
                self.emit(row)
            if applied:
                self.emit(job_row(record))

    def _finish(self, record: QueuedJob, state: str, result: JobResult,
                *, epoch: int) -> bool:
        """Epoch-guarded terminal transition + metrics/breaker feedback.

        The breaker hears about successes (DONE) and deterministic
        failures (FAILED); user cancellations are breaker-neutral.  A
        discarded (zombie) completion feeds nothing anywhere — the
        supervision path that superseded it already recorded the
        failure.
        """
        journal = not (state == protocol.CANCELLED
                       and self.requeue_cancelled)
        applied = self.queue.finish(
            record, state, result=result, error=result.error,
            error_kind=result.error_kind, journal=journal, epoch=epoch)
        if not applied:
            with self._counter_lock:
                self.counters["worker.zombie_results"] = \
                    self.counters.get("worker.zombie_results", 0) + 1
            return False
        if self.supervisor is not None and \
                state in (protocol.DONE, protocol.FAILED):
            self.supervisor.record_outcome(state == protocol.DONE)
        self.metrics.record_finished(record)
        return True

    def _route_failure(self, record: QueuedJob, result: JobResult, *,
                       epoch: int, supervisor: "Supervisor") -> None:
        """Hand a retryable failure to supervision policy."""
        outcome = supervisor.resolve_failure(
            record, epoch=epoch,
            reason=f"{result.error_kind}: {result.error}")
        with self._counter_lock:
            self.counters[f"worker.{result.error_kind}"] = \
                self.counters.get(f"worker.{result.error_kind}", 0) + 1
        if outcome == "quarantined":
            # quarantine is terminal: fold it into the latency stats
            self.metrics.record_finished(record)
        elif outcome == "superseded":
            with self._counter_lock:
                self.counters["worker.zombie_results"] = \
                    self.counters.get("worker.zombie_results", 0) + 1
        if self.emit is not None:
            self.emit({"kind": "supervise", "job_id": record.job_id,
                       "error_kind": result.error_kind,
                       "outcome": outcome,
                       "attempts": record.attempts})

    def _hang(self, token: threading.Event) -> None:
        """Injected stall: wait for an interrupt (or the safety cap)."""
        deadline = self.clock() + HANG_CAP_S
        while not token.is_set() and not self._stop.is_set() \
                and self.clock() < deadline:
            time.sleep(0.02)


def job_row(record: QueuedJob) -> dict:
    """One summary telemetry row per finished job."""
    row = {"kind": "job", **record.describe()}
    row["executor_attempts"] = record.result.attempts \
        if record.result else 0
    return row
