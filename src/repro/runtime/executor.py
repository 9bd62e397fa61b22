"""Job execution: in-process, and fanned out over a process pool.

:func:`execute_job` is the single code path every job takes — serial
runs call it directly, pool workers call it inside the subprocess — so
serial and parallel execution are bit-identical by construction.  It
consults the durable :class:`~repro.runtime.cache.ArtifactCache` before
placing: a hit short-circuits the placer entirely (counted as
``cache.hit``; ``placer.invocations`` stays untouched), a miss runs the
full pipeline under a :class:`~repro.runtime.telemetry.Tracer` and
stores the artifact.  Placement runs through the degradation ladder
(:func:`~repro.robust.fallback.place_with_fallback`) by default.  Every
attempt starts cold, so a retried job places exactly as an
uninterrupted one and the cache holds one placement per key.

:class:`BatchExecutor` adds fan-out policy on top: a
``concurrent.futures`` process pool when ``workers > 0`` (graceful
degradation to serial in-process execution at ``workers=0``), per-job
timeout, and bounded retry when a job raises or its worker crashes —
the terminal failure is *reported* in the :class:`JobResult` with its
taxonomy ``error_kind``, never swallowed and never allowed to sink the
rest of the batch.  Timeouts are terminal: a cold retry would repeat
the run that blew its budget.

The pool always comes from a :class:`PoolSlot`.  A batch of ``run``
owns a slot for its own length; the serve daemon keeps one per bridge
thread, so one worker process serves job after job and pays its
start-up (fork, lazy scipy imports, arena attach) once.  A slot is
replaced only after a worker crash, a timeout or an interrupt.

Parallel dispatch ships designs as shared-memory netlist arenas
(:mod:`repro.runtime.shm`): each unique design is compiled and exported
once per batch and jobs carry a ~200-byte :class:`ArenaRef`, so an
N-job batch over one design transfers the netlist once instead of N
times and warm cache hits skip the in-worker generator rebuild entirely
(the arena digest keys the cache directly).

Every placement runs under one job hook
(:class:`~repro.robust.jobhook.JobHook`), called per global-placement
iteration and at stage boundaries: it renews a lease heartbeat and
turns the executor's cancel token into a graceful ``cancelled`` result
(taxonomy exit) instead of the :meth:`BatchExecutor.interrupt` SIGTERM
backstop.  In pool mode the executor mirrors the token onto a
per-batch :class:`CancelBoard` — one shared byte the workers' hooks
poll.
"""

from __future__ import annotations

import os
import signal
import threading
from concurrent import futures as cf
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable

from ..core import BaselinePlacer, StructureAwarePlacer
from ..errors import JobCancelledError, ReproError, error_kind
from ..eval import evaluate_placement
from ..gen import build_design
from ..robust.faults import fault_fires
from ..robust.jobhook import JobHook
from .cache import ArtifactCache, cache_from_spec, job_key, \
    job_key_from_digest, snapshot_positions
from .jobs import JobResult, PlacementJob
from .shm import ArenaProvider, ArenaStore, CancelBoard, CancelBoardRef, \
    Shipment, attach_shipment
from .telemetry import Tracer

if TYPE_CHECKING:
    from ..gen.composer import GeneratedDesign

_PLACERS = {"baseline": BaselinePlacer, "structure": StructureAwarePlacer}

#: how often a waiting pool executor mirrors its cancel token onto the
#: cancel board its workers poll
_MIRROR_POLL_S = 0.05


def execute_job(job: PlacementJob, *, cache: ArtifactCache | None = None,
                tracer: Tracer | None = None,
                fallback: bool = True,
                design: "GeneratedDesign | None" = None,
                design_supplier:
                "Callable[[], GeneratedDesign] | None" = None,
                netlist_digest: str | None = None,
                cancel: Callable[[], bool] | None = None,
                heartbeat: Callable[[], None] | None = None) -> JobResult:
    """Run (or load from cache) one placement job.

    Args:
        job: the job to run.
        cache: durable artifact cache (digest-verified on read).
        tracer: telemetry collector.
        fallback: run the degradation ladder (True, default) or the bare
            requested placer.
        design: pre-built design (e.g. reconstructed from a shipped
            arena); skips the in-worker generator rebuild.
        design_supplier: lazy alternative to ``design`` — only invoked
            on a cache miss, so with ``netlist_digest`` also given a
            warm hit materializes no design at all (arena workers pass
            ``arena.to_design`` here).
        netlist_digest: precomputed netlist fingerprint — with an arena
            in hand the cache key needs no netlist walk at all, so a
            warm hit costs neither a rebuild nor a fingerprint.
        cancel: cancel poll; checked before start and by the job hook
            on every ladder rung, raising
            :class:`~repro.errors.JobCancelledError`.
        heartbeat: called by the job hook, on every global-placement
            iteration and at stage boundaries (the serve daemon's lease
            renewal).

    Raises whatever the pipeline raises — retry/reporting policy belongs
    to :class:`BatchExecutor`, not here.  Degraded results are *not*
    written to the artifact cache: a warm rerun without the transient
    fault should recompute at full quality, not replay the degraded
    positions forever.
    """
    tracer = tracer or Tracer()
    # remember where this job starts so a shared tracer only contributes
    # its own delta to the result record
    events_start = len(tracer.events)
    counters_before = dict(tracer.counters)
    with tracer.phase("job", design=job.design, placer=job.placer,
                      seed=job.seed):
        options = job.resolved_options()
        if netlist_digest is not None:
            # design construction is deferred: a warm cache hit below
            # returns before any netlist is materialized
            key = job_key_from_digest(netlist_digest, job.placer, options,
                                      job.seed)
        else:
            if design is None:
                with tracer.phase("build"):
                    design = design_supplier() \
                        if design_supplier is not None \
                        else build_design(job.design)
            key = job_key(design.netlist, job.placer, options, job.seed)
        if cancel is not None and cancel():
            raise JobCancelledError(
                f"job {job.label} cancelled before start")

        artifact = cache.get(key, tracer=tracer) if cache is not None \
            else None
        if artifact is not None:
            tracer.incr("cache.hit")
            result = JobResult.from_artifact(job, artifact, cached=True)
        else:
            if cache is not None:
                tracer.incr("cache.miss")
            if design is None:
                with tracer.phase("build"):
                    design = design_supplier() \
                        if design_supplier is not None \
                        else build_design(job.design)
            tracer.incr("placer.invocations")
            hook = JobHook(cancel=cancel, heartbeat=heartbeat)
            report = None
            if fallback:
                from ..robust.fallback import place_with_fallback
                outcome, report = place_with_fallback(
                    design.netlist, design.region, options,
                    placer=job.placer, tracer=tracer, hook=hook)
            else:
                placer = _PLACERS[job.placer](options)
                outcome = placer.place(design.netlist, design.region,
                                       tracer=tracer, hook=hook)
            with tracer.phase("evaluate"):
                report_eval = evaluate_placement(design.netlist,
                                                 design.region)
            slices = []
            if outcome.extraction is not None:
                slices = [[c.name for c in s]
                          for a in outcome.extraction.arrays
                          for s in a.slices]
            result = JobResult(
                job=job,
                key=key,
                placer_name=outcome.placer,
                hpwl_gp=outcome.hpwl_gp,
                hpwl_legal=outcome.hpwl_legal,
                hpwl_final=outcome.hpwl_final,
                runtime_s=outcome.runtime_s,
                extract_s=outcome.extract_s,
                gp_s=outcome.gp_s,
                legalize_s=outcome.legalize_s,
                detailed_s=outcome.detailed_s,
                violations=outcome.violations,
                metrics={
                    "hpwl": report_eval.hpwl,
                    "steiner": report_eval.steiner,
                    "rudy_max": report_eval.congestion.max,
                    "max_density": report_eval.max_density,
                    "overflow_fraction": report_eval.overflow_fraction,
                    "legal": report_eval.legal,
                },
                slices=slices,
                positions=snapshot_positions(design.netlist),
                degradation=report.to_dict() if report is not None
                else None,
            )
            if cache is not None and not result.degraded:
                cache.put(key, result.to_artifact())
    result.key = key
    result.events = tracer.events[events_start:]
    result.counters = {
        name: value - counters_before.get(name, 0)
        for name, value in tracer.counters.items()
        if value != counters_before.get(name, 0)}
    return result


def _worker_execute(job: PlacementJob, cache_spec: dict | None,
                    fallback: bool = True,
                    submitted_s: float | None = None,
                    shipment: Shipment | None = None,
                    cancel_ref: CancelBoardRef | None = None
                    ) -> JobResult:
    """Top-level pool target (must be picklable by name).

    ``submitted_s`` is the parent's tracer-clock stamp at submission;
    the delta to this worker's first clock reading is the job's queue
    wait (perf_counter is CLOCK_MONOTONIC on Linux, shared across
    processes — the only platform the pool runtime targets).

    ``shipment`` is the parent's arena dispatch decision: attach (per-
    process cached by digest) and reconstruct instead of rebuilding from
    the generator.  Attach failures degrade to the rebuild path — a
    vanished segment must cost one rebuild, not the job.  ``cancel_ref``
    locates the batch cancel board.
    """
    if fault_fires("worker_kill"):
        # simulate a hard worker death (SIGKILL-like): no cleanup, no
        # exception back to the parent — exercises the shared-memory
        # leak gates and the BrokenProcessPool recovery path
        os._exit(1)
    tracer = Tracer()
    queue_wait_s = max(tracer.clock() - submitted_s, 0.0) \
        if submitted_s is not None else 0.0
    cache = cache_from_spec(cache_spec)
    supplier: "Callable[[], GeneratedDesign] | None" = None
    digest: str | None = None
    transport = "rebuild"
    bytes_shipped = 0
    if shipment is not None:
        try:
            arena = attach_shipment(shipment)
        except (OSError, ValueError, ReproError):
            # segment vanished or blob failed to parse: fall back to
            # the legacy rebuild; the job itself must still run
            pass
        else:
            # reconstruction is handed over lazily: a warm cache hit
            # never materializes the design at all
            supplier = arena.to_design
            digest = arena.digest
            transport = shipment.transport
            bytes_shipped = shipment.bytes_per_job
    board: CancelBoard | None = None
    if cancel_ref is not None:
        try:
            board = CancelBoard.attach(cancel_ref)
        except OSError:
            board = None  # board gone: job runs uncancellable, as before
    try:
        result = execute_job(job, cache=cache, tracer=tracer,
                             fallback=fallback,
                             design_supplier=supplier,
                             netlist_digest=digest,
                             cancel=board.is_set if board is not None
                             else None)
    finally:
        if board is not None:
            board.close()
    result.queue_wait_s = queue_wait_s
    result.transport = transport
    result.bytes_shipped = bytes_shipped
    return result


def _detach_signals() -> None:
    """Pool-worker initializer: drop the serve daemon's signal plumbing.

    A worker forked from a daemon serving on its main thread inherits
    the asyncio loop's no-op SIGTERM handler and its signal wake-up
    descriptor.  It would then ignore the SIGTERM :class:`PoolSlot`
    sends a timed-out or interrupted worker, and the signal byte would
    reach the daemon's own loop as a shutdown request.  SIGINT keeps
    its inherited handler: a terminal's Ctrl-C reaches the daemon too,
    which drains the worker's job rather than losing it.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _terminate_workers(pool: cf.ProcessPoolExecutor) -> None:
    """SIGTERM every live worker process of ``pool``."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except (OSError, ValueError, AttributeError):
            pass  # already gone; nothing left to reclaim


class PoolSlot:
    """A process pool kept across the runs of one caller.

    The pool starts on the first :meth:`pool` call (counted as
    ``executor.pool_starts`` on that run's tracer) and serves every
    later run until :meth:`replace` discards it: after a worker crash,
    a timeout or an interrupt.  One run at a time holds the slot
    (:meth:`claim`); :meth:`kill` terminates the workers only while the
    run it names still holds it, so an interrupt that arrives after its
    job finished never reaches the job the slot runs next.

    Args:
        workers: process count of the pool.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(workers, 1)
        self._lock = threading.Lock()
        self._pool: cf.ProcessPoolExecutor | None = None
        self._holder: object | None = None
        self._closed = False

    def claim(self) -> object:
        """Hold the slot for one run; returns the run's token."""
        token = object()
        with self._lock:
            self._holder = token
        return token

    def unclaim(self, token: object) -> None:
        with self._lock:
            if self._holder is token:
                self._holder = None

    def pool(self, tracer: Tracer) -> cf.ProcessPoolExecutor:
        """The live pool, started (or restarted when broken) on demand.

        Raises:
            BrokenProcessPool: the slot was closed.
        """
        with self._lock:
            if self._closed:
                raise BrokenProcessPool("pool slot is closed")
            pool = self._pool
            if pool is not None and not getattr(pool, "_broken", False):
                return pool
            fresh = cf.ProcessPoolExecutor(max_workers=self.workers,
                                           initializer=_detach_signals)
            self._pool = fresh
        if pool is not None:  # a worker died while the slot sat idle
            pool.shutdown(wait=False, cancel_futures=True)
        tracer.incr("executor.pool_starts")
        return fresh

    def replace(self) -> None:
        """Discard the pool; the next :meth:`pool` starts a fresh one.

        Workers still running (a timed-out job) are terminated: their
        results would be discarded anyway.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            _terminate_workers(pool)
            pool.shutdown(wait=False, cancel_futures=True)

    def kill(self, token: object) -> None:
        """Terminate the workers if run ``token`` still holds the slot."""
        with self._lock:
            if self._holder is token and self._pool is not None:
                _terminate_workers(self._pool)

    def close(self, *, wait: bool = True) -> None:
        """Shut the pool down for good (a run still holding the slot
        has its workers terminated rather than waited for)."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
            if pool is not None and self._holder is not None:
                _terminate_workers(pool)
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)


class BatchExecutor:
    """Fans placement jobs out with timeout, retry, and telemetry.

    Args:
        workers: process-pool size; ``0`` runs serially in-process.
        cache: durable artifact cache shared by all workers (optional).
        timeout_s: per-job wall-clock budget in parallel mode.  A timed
            out job is reported as a terminal ``timeout`` error, never
            retried: the retry would start cold and blow the same
            budget.
        retries: how many times a crashing/raising job is re-executed
            before its failure is reported.
        fallback: run jobs through the degradation ladder (default).
        shm: ship designs to pool workers as shared-memory arenas
            (default).  ``False`` restores the legacy rebuild-in-worker
            dispatch (each job re-derives the design from its
            generator).
        arenas: externally owned arena provider (e.g. the serve
            daemon's refcounted registry).  When ``None`` and ``shm``
            is on, the executor owns a per-batch
            :class:`~repro.runtime.shm.ArenaStore` and tears it down
            after the batch.
        cancel: the cancel token every job of the batch polls (the
            serve daemon passes the job's own); None makes a private
            one.  :meth:`cancel_all` sets it.
        heartbeat: called on every global-placement iteration and
            stage boundary of a serial run (the daemon's lease
            renewal); heartbeats do not cross the process boundary in
            pool mode.
        slot: the :class:`PoolSlot` a parallel run takes its pool from
            (the serve daemon passes its bridge thread's); None gives
            each run a slot of ``workers`` processes that it closes.
    """

    def __init__(self, workers: int = 0, *,
                 cache: ArtifactCache | None = None,
                 timeout_s: float | None = None, retries: int = 1,
                 fallback: bool = True, shm: bool = True,
                 arenas: ArenaProvider | None = None,
                 cancel: threading.Event | None = None,
                 heartbeat: Callable[[], None] | None = None,
                 slot: PoolSlot | None = None) -> None:
        self.workers = workers
        self.cache = cache
        self.timeout_s = timeout_s
        self.retries = max(retries, 0)
        self.fallback = fallback
        self.shm = shm
        self.arenas = arenas
        self.slot = slot
        #: (slot, token) of the latest parallel run; the slot honours
        #: a kill only while that token still holds it
        self._claim: tuple[PoolSlot, object] | None = None
        self._interrupted = False
        self.cancel = cancel if cancel is not None else threading.Event()
        self.heartbeat = heartbeat

    def cancel_all(self) -> None:
        """Gracefully cancel every job in the running (or next) batch.

        Sets the cancel token; a pool run mirrors it onto the workers'
        cancel board.  Sticky: calling before :meth:`run` cancels the
        batch at its pre-start check, which makes cancellation
        deterministic for callers that decide before dispatch.
        """
        self.cancel.set()

    def interrupt(self) -> None:
        """Stop the in-flight execution from another thread.

        The serve watchdog calls this on a stalled job.  The cancel
        token is set first, so a serial execution that is still healthy
        exits gracefully at its next iteration.  In pool mode the
        worker processes of this run's slot are then terminated, and
        the broken pool surfaces as a terminal ``interrupted`` result
        (no internal retry — requeue policy belongs to the supervisor,
        not this executor).  Once the run has ended the call kills
        nothing: the slot may already be running someone else's job.
        """
        self._interrupted = True
        self.cancel_all()
        claim = self._claim
        if claim is not None:
            slot, token = claim
            slot.kill(token)

    # ------------------------------------------------------------------
    def run(self, jobs: list[PlacementJob],
            tracer: Tracer | None = None) -> list[JobResult]:
        """Execute all jobs; results come back in job order."""
        tracer = tracer or Tracer()
        if self.workers <= 0:
            results = self._run_serial(jobs, tracer)
        else:
            results = self._run_parallel(jobs, tracer)
        for result in results:
            tracer.incr("executor.jobs")
            if result.status == "error":
                tracer.incr("executor.failures")
            tracer.merge(result.events, result.counters)
            # queue-wait (submit -> start) was previously unobservable;
            # surface it as a per-job telemetry row
            tracer.event("queue_wait", job=result.job.label,
                         wait_s=result.queue_wait_s)
            if result.transport is not None:
                tracer.incr(f"transport.{result.transport}")
                tracer.incr("transport.bytes", result.bytes_shipped)
        return results

    # ------------------------------------------------------------------
    def _run_serial(self, jobs: list[PlacementJob],
                    tracer: Tracer) -> list[JobResult]:
        results = []
        submitted_s = tracer.clock()
        for job in jobs:
            attempts = 0
            queue_wait_s = max(tracer.clock() - submitted_s, 0.0)
            while True:
                attempts += 1
                try:
                    result = execute_job(job, cache=self.cache,
                                         fallback=self.fallback,
                                         cancel=self.cancel.is_set,
                                         heartbeat=self.heartbeat)
                    result.attempts = attempts
                    break
                # sanctioned fault boundary: failures become JobResult
                # records with error_kind. repro-lint: disable=NUM03
                except Exception as exc:
                    tracer.error(exc, job=job.label)
                    kind = error_kind(exc)
                    # cancellation is terminal by contract — rerunning a
                    # cancelled job would override the caller's decision
                    if attempts > self.retries or kind == "cancelled":
                        result = JobResult(job=job, status="error",
                                           attempts=attempts,
                                           error=str(exc) or repr(exc),
                                           error_kind=kind)
                        break
                    tracer.incr("executor.retry")
            result.queue_wait_s = queue_wait_s
            results.append(result)
        return results

    def _await(self, future: cf.Future, board: CancelBoard | None,
               clock: Callable[[], float]) -> JobResult:
        """``future.result(timeout_s)`` that meanwhile mirrors the cancel
        token onto the board the workers poll.

        Raises:
            cf.TimeoutError: the job outlived ``timeout_s``.
        """
        deadline = None if self.timeout_s is None \
            else clock() + self.timeout_s
        while True:
            wait_s = _MIRROR_POLL_S if deadline is None \
                else min(_MIRROR_POLL_S, deadline - clock())
            cf.wait([future], timeout=max(wait_s, 0.0))
            if future.done():
                return future.result()
            if deadline is not None and clock() >= deadline:
                raise cf.TimeoutError()
            if board is not None and self.cancel.is_set():
                board.set()

    def _run_parallel(self, jobs: list[PlacementJob],
                      tracer: Tracer) -> list[JobResult]:
        cache_spec = self.cache.spec() if self.cache else None

        # one arena shipment per unique design: compiled/exported here,
        # in the parent, exactly once; every job for that design then
        # carries only the (tiny) shipment record across the pool
        # boundary.  A None shipment (compile failed or shm disabled)
        # falls back to the legacy rebuild-in-worker transport.
        owned_store: ArenaStore | None = None
        provider = self.arenas
        if provider is None and self.shm:
            owned_store = ArenaStore()
            provider = owned_store
        shipments: dict[str, Shipment | None] = {}
        if provider is not None:
            for job in jobs:
                if job.design not in shipments:
                    shipments[job.design] = provider.shipment(job.design)

        def submit(job: PlacementJob) -> cf.Future:
            return slot.pool(tracer).submit(
                _worker_execute, job, cache_spec, self.fallback,
                tracer.clock(), shipments.get(job.design),
                board_ref)

        def rebuild(after: int, pending: dict[int, cf.Future]) -> None:
            """Replace a broken/abandoned pool, resubmitting later jobs."""
            slot.replace()
            for j, fut in list(pending.items()):
                if j > after and not fut.done():
                    pending[j] = submit(jobs[j])

        slot = self.slot if self.slot is not None \
            else PoolSlot(self.workers)
        token = slot.claim()
        self._interrupted = False
        self._claim = (slot, token)
        results: list[JobResult | None] = [None] * len(jobs)
        board: CancelBoard | None = None
        try:
            # the finally below closes it first thing; the one path the
            # rule sees leaving it open is the one where board is None
            # repro-lint: disable=LIF01
            board = CancelBoard()
        except OSError:
            board = None  # no /dev/shm: jobs run without cancel tokens
        try:
            if self.cancel.is_set() and board is not None:
                board.set()
            board_ref = board.ref() if board is not None else None
            pending = {idx: submit(job) for idx, job in enumerate(jobs)}
            for idx, job in enumerate(jobs):
                attempts = 1
                while True:
                    future = pending[idx]
                    try:
                        result = self._await(future, board,
                                             tracer.clock)
                        result.attempts = attempts
                        break
                    except cf.TimeoutError:
                        if self._interrupted:
                            result = JobResult(
                                job=job, status="error", attempts=attempts,
                                error="execution interrupted by supervisor",
                                error_kind="interrupted")
                            break
                        # the stuck worker cannot be reclaimed mid-
                        # flight: replace the pool so the remaining jobs
                        # get fresh workers.  A cold retry would repeat
                        # the same budget-blowing run, so it is terminal
                        rebuild(idx, pending)
                        result = JobResult(
                            job=job, status="error", attempts=attempts,
                            error=f"timeout after {self.timeout_s}s",
                            error_kind="timeout")
                        break
                    except BrokenProcessPool as exc:
                        if self._interrupted:
                            # the supervisor killed the workers; report
                            # terminally and let it drive the requeue
                            result = JobResult(
                                job=job, status="error", attempts=attempts,
                                error="execution interrupted by supervisor",
                                error_kind="interrupted")
                            break
                        # the pool is unusable after a worker crash;
                        # rebuild it before retrying or moving on
                        error = repr(exc)
                        kind = "crash"
                        rebuild(idx, pending)
                    # sanctioned fault boundary: worker exceptions are
                    # shipped back as JobResult records with their
                    # taxonomy kind. repro-lint: disable=NUM03
                    except Exception as exc:
                        error = str(exc) or repr(exc)
                        kind = error_kind(exc)
                    if attempts > self.retries or kind == "cancelled":
                        result = JobResult(job=job, status="error",
                                           attempts=attempts, error=error,
                                           error_kind=kind)
                        break
                    attempts += 1
                    tracer.incr("executor.retry")
                    pending[idx] = submit(job)
                results[idx] = result
        finally:
            # teardown order is safe even with stragglers: unlinking a
            # POSIX segment removes its name, not live mappings, so a
            # worker that is still attached keeps reading valid memory
            if board is not None:
                board.close(unlink=True)
            slot.unclaim(token)
            if self._interrupted:
                # the kill may have landed after the last result: never
                # hand a possibly killed pool to the slot's next run
                slot.replace()
            if slot is not self.slot:
                slot.close(wait=False)
            if owned_store is not None:
                for name, value in owned_store.counters.items():
                    tracer.incr(name, value)
                owned_store.close()
        return [r for r in results if r is not None]
