"""The placement daemon: asyncio front end over the batch runtime.

:class:`PlacementDaemon` listens on a local unix socket speaking the
newline-delimited JSON protocol (:mod:`repro.serve.protocol`), admits
jobs into the persistent priority queue, and lets the worker bridge
drive them through the proven :class:`~repro.runtime.executor
.BatchExecutor`.  Warm resubmissions never touch a worker: the submit
handler probes the artifact cache inline and answers ``done``
(with ``cached: true``) in milliseconds.

Request handling is deliberately serialized (one dispatch at a time on
the event loop): requests are cheap — the expensive work happens in
bridge threads — and serialization keeps the daemon tracer's phase
stack coherent, so every request gets a well-formed ``serve.<op>``
span (the TEL03 contract).

Graceful shutdown (``shutdown`` op, SIGTERM, or SIGINT) stops
admission and then either **drains** (waits for every accepted job to
reach a terminal state) or, in ``now`` mode, cancels running jobs
through the job hook and leaves them and the queued jobs in the
journal — a restarted daemon replays them from a cold start, so no
accepted job is ever lost.  Then it stops listening and closes every
open client connection, so each connection handler returns before the
event loop ends.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..errors import OptionsError, ReproError
from ..runtime.cache import (ArtifactCache, canonical_options, job_key,
                             job_key_from_digest)
from ..runtime.jobs import JobResult, PlacementJob
from ..runtime.telemetry import Tracer
from ..runtime.trace import JsonlTraceWriter
from . import protocol
from .arena import ArenaRegistry
from .metrics import ServiceMetrics
from .queue import JobJournal, JobQueue, QueuedJob
from .supervise import ServiceShedError, Supervisor, SupervisorConfig
from .workers import WorkerBridge, job_row

#: daemon tracer event cap — a week-long daemon must not grow a span
#: per request forever; the JSONL stream keeps the full history.
_EVENT_CAP = 65536

#: how long shutdown waits for connection handlers to return once their
#: connections are closed; a handler at ``readline`` returns at once
_CLOSE_GRACE_S = 5.0


@dataclass
class ServeConfig:
    """Everything ``repro-place serve`` can configure.

    Attributes:
        socket_path: unix-socket path the daemon listens on.
        workers: bridge threads (concurrent placements).
        cache_dir: artifact cache root, the same layout ``repro-place
            run`` writes; None disables caching.
        cache_budget_mb: total cache byte budget (LRU eviction); None
            means unbounded.
        spool_dir: job-journal directory; None disables persistence.
        trace_path: streaming JSONL telemetry file; None disables.
        max_pending: bounded-admission cap (queued + running).
        retries: executor retry budget per job.
        timeout_s: per-job wall-clock budget (pool mode).
        pool: place in worker processes: each bridge thread keeps one
            long-lived single-worker pool, started on its first job and
            replaced only after a crash, a timeout or an interrupt.
        shm: in pool mode, ship designs to workers as shared-memory
            arenas held by a refcounted registry that keeps recently
            released designs under a byte budget (64 MiB, or a quarter
            of the free ``/dev/shm`` when that is less; default);
            ``False`` restores per-job rebuild dispatch.
        fallback: run the degradation ladder (default).
        stall_timeout_s: a running job with no lease heartbeat for this
            long is declared stuck (watchdog interrupts + requeues it).
        scan_interval_s: watchdog lease-scan period.
        max_attempts: executions (counted across daemon restarts)
            before a job is quarantined instead of requeued.
        backoff_base_s: requeue delay after the first failed attempt
            (doubles per attempt, capped at ``backoff_cap_s``).
        backoff_cap_s: upper bound on the requeue backoff delay.
        breaker_threshold: recent-failure fraction that trips the
            admission circuit breaker into shed mode.
        breaker_window: recent job outcomes the breaker considers.
        breaker_min_samples: outcomes required before it may trip.
        breaker_cooldown_s: open time before half-open probing.
    """

    socket_path: str = ".repro-serve.sock"
    workers: int = 1
    cache_dir: str | None = ".repro-cache"
    cache_budget_mb: float | None = None
    spool_dir: str | None = ".repro-spool"
    trace_path: str | None = None
    max_pending: int = 2048
    retries: int = 1
    timeout_s: float | None = None
    pool: bool = False
    shm: bool = True
    fallback: bool = True
    stall_timeout_s: float = 30.0
    scan_interval_s: float = 1.0
    max_attempts: int = 3
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0
    breaker_threshold: float = 0.5
    breaker_window: int = 20
    breaker_min_samples: int = 5
    breaker_cooldown_s: float = 30.0

    def supervisor_config(self) -> SupervisorConfig:
        return SupervisorConfig(
            stall_timeout_s=self.stall_timeout_s,
            scan_interval_s=self.scan_interval_s,
            max_attempts=self.max_attempts,
            backoff_base_s=self.backoff_base_s,
            backoff_cap_s=self.backoff_cap_s,
            breaker_threshold=self.breaker_threshold,
            breaker_window=self.breaker_window,
            breaker_min_samples=self.breaker_min_samples,
            breaker_cooldown_s=self.breaker_cooldown_s)


class PlacementDaemon:
    """Long-running placement service over a local socket."""

    def __init__(self, config: ServeConfig, *,
                 tracer: Tracer | None = None) -> None:
        self.config = config
        self.tracer = tracer or Tracer()
        self._clock = self.tracer.clock
        self.metrics = ServiceMetrics(self._clock)

        self.cache: ArtifactCache | None = None
        if config.cache_dir is not None:
            budget = None
            if config.cache_budget_mb is not None:
                budget = int(config.cache_budget_mb * 1024 * 1024)
            self.cache = ArtifactCache(config.cache_dir, max_bytes=budget)

        self._journal_path: Path | None = None
        self._replayed: list[dict] = []
        journal = None
        if config.spool_dir is not None:
            self._journal_path = Path(config.spool_dir) / "journal.jsonl"
            # jobs accepted by a previous daemon but never finished are
            # re-enqueued below; the journal restarts fresh so a later
            # restart does not replay them twice
            self._replayed = JobJournal.replay(self._journal_path)
            self._journal_path.unlink(missing_ok=True)
            journal = JobJournal(self._journal_path)
        self.journal = journal

        #: refcounted arena exports shared by every pool worker, kept
        #: past their last job under a byte budget; None outside pool
        #: mode (threads place in-process, no shipping)
        self.arenas: ArenaRegistry | None = None
        if config.pool and config.shm:
            self.arenas = ArenaRegistry()

        self.queue = JobQueue(max_pending=config.max_pending,
                              clock=self._clock, journal=journal,
                              on_terminal=self._on_terminal)

        self._writer: JsonlTraceWriter | None = None
        self._writer_lock = threading.Lock()
        if config.trace_path is not None:
            self._writer = JsonlTraceWriter(config.trace_path)

        self.supervisor = Supervisor(
            config.supervisor_config(), queue=self.queue,
            clock=self._clock, emit=self._emit)

        self.bridge = WorkerBridge(
            self.queue, workers=config.workers, cache=self.cache,
            pool=config.pool,
            timeout_s=config.timeout_s, retries=config.retries,
            fallback=config.fallback, clock=self._clock,
            metrics=self.metrics, emit=self._emit,
            supervisor=self.supervisor, shm=config.shm,
            arenas=self.arenas)

        #: set once the socket is bound (tests/waiters key off this)
        self.started = threading.Event()
        self._key_memo: dict[tuple, str] = {}
        self._arena_lock = threading.Lock()
        self._dispatch_lock: asyncio.Lock | None = None
        self._shutdown_mode: str | None = None
        self._shutdown_event: asyncio.Event | None = None
        #: open client connections: handler task -> its writer
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # -- telemetry -----------------------------------------------------
    def _emit(self, row: dict) -> None:
        if self._writer is None:
            return
        with self._writer_lock:
            self._writer.write(row)
            self._writer.flush()

    def _trim_events(self) -> None:
        if len(self.tracer.events) > _EVENT_CAP:
            del self.tracer.events[:_EVENT_CAP // 2]

    # -- arena lifecycle -----------------------------------------------
    async def _admit_holding_arena(
            self, design: str,
            admit: Callable[[], QueuedJob]) -> QueuedJob:
        """Enqueue a job for ``design`` through ``admit`` holding a
        reference on its arena taken first, and hand the reference to
        the job (or back, when admission raises).

        A bridge thread may pop and ship the job at once; a reference
        taken after the enqueue would leave a window in which an
        eviction unlinks the segment it ships.  The acquire runs off
        the event loop (the first reference compiles) and takes no
        reference for an uncompilable design, whose job runs via
        rebuild.
        """
        arenas = self.arenas
        held = arenas is not None and \
            await asyncio.to_thread(arenas.acquire, design)
        try:
            record = admit()
        except ReproError:
            if held and arenas is not None:
                arenas.release(design)
            raise
        if held:
            self._lease_arena(record)
        return record

    def _lease_arena(self, record: QueuedJob) -> None:
        """Hand a reference already taken on the job's design to the
        admitted job until it turns terminal.

        The lease-flag transition is guarded so a job racing to a
        terminal state between admission and this call cannot strand
        the reference.
        """
        release = False
        with self._arena_lock:
            if record.arena_lease or record.terminal:
                release = True  # raced: the terminal hook already ran
            else:
                record.arena_lease = True
        if release and self.arenas is not None:
            self.arenas.release(record.job.design)

    def _on_terminal(self, record: QueuedJob) -> None:
        """JobQueue terminal hook: drop the job's arena reference."""
        if self.arenas is None:
            return
        with self._arena_lock:
            if not record.arena_lease:
                return
            record.arena_lease = False
        self.arenas.release(record.job.design)

    # -- lifecycle -----------------------------------------------------
    def run(self) -> None:
        """Serve until shutdown (blocking); the CLI entry point."""
        asyncio.run(self._main())

    def request_shutdown(self, mode: str = "drain") -> None:
        """Thread-safe shutdown trigger (signal handlers, tests)."""
        self._shutdown_mode = mode
        event = self._shutdown_event
        if event is not None:
            event.set()

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._dispatch_lock = asyncio.Lock()
        self._shutdown_event = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            # only available on the main thread of the main interpreter;
            # embedded daemons (tests) shut down via the protocol instead
            with contextlib.suppress(NotImplementedError, RuntimeError,
                                     ValueError):
                loop.add_signal_handler(
                    signum, self.request_shutdown, "drain")

        socket_path = Path(self.config.socket_path)
        socket_path.unlink(missing_ok=True)
        socket_path.parent.mkdir(parents=True, exist_ok=True)
        server = await asyncio.start_unix_server(
            self._client_connected, path=str(socket_path))

        self._replay_pending()
        self.bridge.start()
        self.supervisor.start()
        self.started.set()
        try:
            async with server:
                await self._shutdown_event.wait()
                await self._graceful_shutdown()
                server.close()        # no new connections past this point
                await self._close_connections()
        finally:
            self.supervisor.stop()
            self.bridge.stop()
            if self.arenas is not None:
                # unlink every live export; stragglers keep their
                # mappings (POSIX), new attaches are impossible
                self.arenas.close()
            if self.journal is not None:
                self.journal.close()
            if self._writer is not None:
                with self._writer_lock:
                    self._writer.close()
            socket_path.unlink(missing_ok=True)
            self.started.clear()

    def _replay_pending(self) -> None:
        """Re-enqueue jobs a previous daemon accepted but never ran.

        The journal's ``lease`` rows carry each job's attempt count
        across process lifetimes: a job that was mid-execution when the
        previous daemon died replays with that attempt on the books
        (its stale lease is reaped, never resumed as running), and a
        job whose attempts already reached ``max_attempts`` — or that
        was quarantined in a previous lifetime — re-registers as
        quarantined instead of crash-looping the fresh daemon.
        """
        max_seq = 0
        for entry in self._replayed:
            job_id = str(entry.get("job_id", ""))
            if job_id.startswith("j"):
                with contextlib.suppress(ValueError):
                    max_seq = max(max_seq, int(job_id[1:]))
        self.queue.reserve_seq(max_seq)
        for entry in self._replayed:
            try:
                job = PlacementJob(
                    design=entry["design"],
                    placer=entry.get("placer", "structure"),
                    options=protocol.options_from_dict(
                        entry.get("options")),
                    seed=int(entry.get("seed", 0)))
                attempts = int(entry.get("attempts", 0))
                priority = int(entry.get("priority", 0))
                if entry.get("quarantined"):
                    self.queue.register_quarantined(
                        job, attempts=attempts, priority=priority,
                        job_id=entry.get("job_id"),
                        error=(f"quarantined after {attempts} "
                               "attempt(s) in a previous daemon "
                               "lifetime"))
                    self.tracer.incr("serve.replay_quarantined")
                elif attempts >= self.config.max_attempts:
                    self.queue.register_quarantined(
                        job, attempts=attempts, priority=priority,
                        job_id=entry.get("job_id"),
                        error=(f"quarantined after {attempts} "
                               "attempt(s) across daemon restarts"))
                    self.tracer.incr("serve.replay_quarantined")
                else:
                    record = self.queue.submit(
                        job, priority=priority,
                        job_id=entry.get("job_id"),
                        attempts=attempts)
                    # no bridge thread runs yet: taking the reference
                    # after admission is safe here
                    if self.arenas is not None and \
                            self.arenas.acquire(job.design):
                        self._lease_arena(record)
                    self.tracer.incr("serve.replayed")
                self.metrics.record_submitted()
            except ReproError as exc:
                # a journal row that no longer parses must not block the
                # daemon from starting; it is logged and dropped
                self.tracer.error(exc, job_id=entry.get("job_id"))
        self._replayed = []

    async def _graceful_shutdown(self) -> None:
        mode = self._shutdown_mode or "drain"
        self.queue.stop_admission()
        if mode == "now":
            # queued jobs stay "accepted" in the journal -> replayed by
            # the next daemon; running jobs cancel, and rerun cold there
            self.bridge.requeue_cancelled = True
            self.queue.cancel_all_queued()
            for record in self.queue.running():
                record.cancel.set()
        while not self.queue.drained():
            await asyncio.sleep(0.05)

    async def _close_connections(self) -> None:
        """End every open client connection at shutdown.

        Closing a connection hands its handler's ``readline`` an EOF, so
        the handler returns on its own.  A handler still pending when
        the loop ends would be cancelled, and asyncio's stream callback
        logs a cancelled handler as an unhandled exception.
        """
        handlers = list(self._connections)
        for writer in self._connections.values():
            writer.close()
        if handlers:
            await asyncio.wait(handlers, timeout=_CLOSE_GRACE_S)

    # -- connection handling -------------------------------------------
    async def _client_connected(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections[task] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not line:
                    break
                response = await self._dispatch(line)
                writer.write(protocol.encode(response))
                try:
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    break
        finally:
            self._connections.pop(task, None)
            with contextlib.suppress(Exception):
                writer.close()

    async def _dispatch(self, line: bytes) -> dict:
        assert self._dispatch_lock is not None
        try:
            message = protocol.decode(line)
            op = protocol.validate_request(message)
            if op == "result" and message.get("wait"):
                # wait OUTSIDE the dispatch lock: other clients must be
                # able to submit/cancel/stat while this one blocks
                await self._await_result(message)
            handler = getattr(self, f"_handle_{op}")
            async with self._dispatch_lock:
                response = await handler(message)
                self._trim_events()
        except ReproError as exc:
            async with self._dispatch_lock:
                self.tracer.error(exc)
                self._trim_events()
            response = protocol.error_response(exc)
        return response

    async def _await_result(self, message: dict) -> None:
        """Poll a job's done event without holding the dispatch lock."""
        record = self.queue.get(message["job_id"])
        if record is None:
            return  # _handle_result raises the taxonomy error
        deadline = None
        timeout = message.get("timeout")
        if isinstance(timeout, (int, float)):
            deadline = self._clock() + float(timeout)
        while not record.done.is_set():
            if deadline is not None and self._clock() > deadline:
                break
            await asyncio.sleep(0.01)

    # -- request handlers (each opens a serve.<op> span: TEL03) --------
    async def _handle_submit(self, message: dict) -> dict:
        with self.tracer.phase("serve.submit") as ph:
            job = PlacementJob(
                design=message["design"],
                placer=message.get("placer", "structure"),
                options=protocol.options_from_dict(
                    message.get("options")),
                seed=message.get("seed", 0))
            priority = message.get("priority", 0)
            key, artifact, probe_s = await self._probe_cache(job, ph)
            try:
                if artifact is not None:
                    result = JobResult.from_artifact(job, artifact,
                                                     cached=True)
                    record = self.queue.register_finished(
                        job, result, priority=priority, cached=True)
                    record.spans["cache_probe"] = probe_s
                    record.spans["queue_wait"] = 0.0
                    record.spans["total"] = ph.split()
                    result.queue_wait_s = 0.0
                    self.metrics.record_submitted()
                    self.metrics.record_finished(record)
                    self.tracer.incr("serve.cache_fastpath")
                    self._emit(job_row(record))
                else:
                    # the breaker gates only cold admissions — warm
                    # hits above were already served while shedding
                    if not self.supervisor.breaker.allow():
                        self.metrics.record_shed()
                        self.tracer.incr("serve.shed")
                        raise ServiceShedError(
                            "admission shed: circuit breaker is open "
                            "(recent executions failing); cached "
                            "submissions are still served",
                            retry_after_s=self.supervisor.breaker
                            .retry_after_s())
                    try:
                        record = await self._admit_holding_arena(
                            job.design, lambda: self.queue.submit(
                                job, priority=priority))
                    except ReproError:
                        # a half-open probe that failed admission must
                        # hand its slot back
                        self.supervisor.breaker.probe_aborted()
                        raise
                    record.spans["cache_probe"] = probe_s
                    self.metrics.record_submitted()
            except ReproError:
                self.metrics.record_rejected()
                raise
            self.tracer.incr("serve.submitted")
            return protocol.ok_response(**record.describe(), key=key)

    async def _probe_cache(self, job: PlacementJob,
                           ph) -> tuple[str | None, dict | None, float]:
        """Compute the job key (memoized) and probe the cache inline."""
        if self.cache is None:
            return None, None, 0.0
        probe_start = ph.split()
        options = job.options
        memo_key = (job.design, job.placer, job.seed,
                    json.dumps(canonical_options(options)
                               if options is not None else None,
                               sort_keys=True))
        key = self._key_memo.get(memo_key)
        if key is None:
            # first sighting: build the design off the event loop to
            # fingerprint it (deterministic, so memoizing is sound)
            key = await asyncio.to_thread(self._compute_key, job)
            self._key_memo[memo_key] = key
        artifact = self.cache.get(key, tracer=self.tracer)
        return key, artifact, ph.split() - probe_start

    def _compute_key(self, job: PlacementJob) -> str:
        if self.arenas is not None:
            try:
                digest = self.arenas.digest(job.design)
            except ReproError:
                pass  # fall through: the legacy path reports the error
            else:
                return job_key_from_digest(
                    digest, job.placer, job.resolved_options(),
                    job.seed)
        from ..gen import build_design
        design = build_design(job.design)
        return job_key(design.netlist, job.placer,
                       job.resolved_options(), job.seed)

    async def _handle_status(self, message: dict) -> dict:
        with self.tracer.phase("serve.status"):
            record = self._record_or_raise(message["job_id"])
            return protocol.ok_response(**record.describe())

    async def _handle_result(self, message: dict) -> dict:
        with self.tracer.phase("serve.result"):
            record = self._record_or_raise(message["job_id"])
            response = protocol.ok_response(**record.describe())
            result = record.result
            if record.terminal and result is not None and result.ok:
                response["row"] = result.row()
                response["key"] = result.key
                response["queue_wait_s"] = result.queue_wait_s
                if message.get("positions"):
                    response["positions"] = result.positions
            return response

    async def _handle_cancel(self, message: dict) -> dict:
        with self.tracer.phase("serve.cancel"):
            job_id = message["job_id"]
            outcome = self.queue.cancel(job_id)
            if outcome is None:
                raise OptionsError(f"unknown job id {job_id!r}",
                                   option="job_id")
            state_at_cancel, record = outcome
            self.tracer.incr("serve.cancelled")
            return protocol.ok_response(
                job_id=job_id, state=record.state,
                was=state_at_cancel,
                cancel_requested=record.cancel.is_set())

    async def _handle_requeue(self, message: dict) -> dict:
        with self.tracer.phase("serve.requeue"):
            job_id = message["job_id"]
            # revival leaves a terminal state, whose hook released the
            # arena reference: the new attempt takes a fresh one
            record = await self._admit_holding_arena(
                self._record_or_raise(job_id).job.design,
                lambda: self.queue.revive(job_id))
            self.tracer.incr("serve.requeued")
            return protocol.ok_response(**record.describe())

    async def _handle_stats(self, message: dict) -> dict:
        with self.tracer.phase("serve.stats"):
            stats = self.metrics.snapshot()
            stats["queue"] = self.queue.counts()
            stats["executor"] = dict(sorted(
                self.bridge.counters.items()))
            stats["supervision"] = self.supervisor.snapshot()
            if self.cache is not None:
                stats["artifact_cache"] = self.cache.stats()
            if self.arenas is not None:
                stats["arena"] = self.arenas.stats()
            return protocol.ok_response(
                stats=stats, version=protocol.PROTOCOL_VERSION)

    async def _handle_shutdown(self, message: dict) -> dict:
        with self.tracer.phase("serve.shutdown"):
            mode = message.get("mode", "drain")
            self.request_shutdown(mode)
            return protocol.ok_response(shutting_down=True, mode=mode)

    async def _handle_ping(self, message: dict) -> dict:
        with self.tracer.phase("serve.ping"):
            return protocol.ok_response(
                pong=True, version=protocol.PROTOCOL_VERSION,
                accepting=self.queue.accepting)

    # -- helpers -------------------------------------------------------
    def _record_or_raise(self, job_id: str) -> QueuedJob:
        record = self.queue.get(job_id)
        if record is None:
            raise OptionsError(f"unknown job id {job_id!r}",
                               option="job_id")
        return record
