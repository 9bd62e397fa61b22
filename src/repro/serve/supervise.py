"""Supervised execution: leases, watchdog, quarantine, circuit breaker.

The worker bridge trusts the batch executor to come back; production
traffic does not extend that trust.  This module is the supervision
layer between the two:

- every running job holds a :class:`JobLease` that the executor's
  per-iteration job hook renews (a heartbeat per global-placement
  iteration, with or without checkpoints).  Leases are journaled, so a restarted daemon can tell
  "was running when we died" from "never started" and count execution
  attempts *across process lifetimes*;
- a :class:`Watchdog` thread scans the lease table: a lease with no
  heartbeat for ``stall_timeout_s`` is declared stuck, its execution is
  interrupted through the existing cancel-token path (pool mode: the
  worker process is killed), and the job is requeued with exponential
  backoff — the interrupted attempt's late result is discarded by the
  queue's epoch guard, so a job can never reach two terminal states;
- a job whose attempt count reaches ``max_attempts`` is a poison job:
  it moves to the journaled ``quarantined`` state instead of
  crash-looping the daemon, and an explicit ``requeue`` request revives
  it with a fresh budget;
- a :class:`CircuitBreaker` watches the recent failure rate and trips
  admission into "shed" mode (:class:`ServiceShedError`, exit code 11)
  when the service is drowning, with half-open probing to recover.
  Warm-cache submissions are still served while shedding — degraded,
  but answerable.

The chaos faults that exercise all of this (``worker_hang``,
``worker_crash``, ``journal_torn_write``, ``heartbeat_drop``) live in
:mod:`repro.robust.faults` and fire through the same deterministic
``name:count:skip`` windows as the solver faults.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..errors import OptionsError, ReproError
from ..robust.faults import fault_fires
from ..runtime.telemetry import Tracer
from . import protocol
from .queue import JobQueue, QueuedJob

if TYPE_CHECKING:  # import cycle guard: workers imports this module
    from .workers import WorkerBridge


class ServiceShedError(ReproError):
    """Admission rejected a submit: the circuit breaker is open.

    The daemon is shedding load because recent executions are failing
    at a rate above the configured threshold; cached (warm) submissions
    are still served.  ``retry_after_s`` hints when the breaker will
    half-open and probe again.
    """

    code = "shed"
    exit_code = 11

    def __init__(self, message: str, *,
                 retry_after_s: float | None = None, **kwargs: object) -> None:
        super().__init__(message, stage=kwargs.pop("stage", "admit"),
                         **kwargs)
        if retry_after_s is not None:
            self.payload["retry_after_s"] = round(retry_after_s, 3)


@dataclass
class SupervisorConfig:
    """Supervision policy knobs (the ``repro-place serve`` flags).

    Attributes:
        stall_timeout_s: a running job with no lease heartbeat for this
            long is declared stuck and interrupted.
        scan_interval_s: watchdog scan period; detection latency is
            bounded by ``stall_timeout_s + scan_interval_s``.
        max_attempts: executions (across restarts) before a job is
            quarantined instead of requeued.
        backoff_base_s: requeue delay after the first failed attempt;
            doubles per attempt up to ``backoff_cap_s``.
        backoff_cap_s: upper bound on the requeue delay.
        breaker_threshold: failure fraction over the recent-outcome
            window that trips the breaker open.
        breaker_window: how many recent outcomes the breaker considers.
        breaker_min_samples: outcomes required before the breaker may
            trip (a single early failure must not shed traffic).
        breaker_cooldown_s: how long the breaker stays open before
            half-opening to probe with one admitted job.
    """

    stall_timeout_s: float = 30.0
    scan_interval_s: float = 1.0
    max_attempts: int = 3
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0
    breaker_threshold: float = 0.5
    breaker_window: int = 20
    breaker_min_samples: int = 5
    breaker_cooldown_s: float = 30.0

    def __post_init__(self) -> None:
        if self.stall_timeout_s <= 0:
            raise OptionsError(
                f"stall_timeout_s must be > 0, got {self.stall_timeout_s}",
                option="stall_timeout_s")
        if self.scan_interval_s <= 0:
            raise OptionsError(
                f"scan_interval_s must be > 0, got {self.scan_interval_s}",
                option="scan_interval_s")
        if self.max_attempts < 1:
            raise OptionsError(
                f"max_attempts must be >= 1, got {self.max_attempts}",
                option="max_attempts")
        if not 0.0 < self.breaker_threshold <= 1.0:
            raise OptionsError(
                "breaker_threshold must be in (0, 1], got "
                f"{self.breaker_threshold}", option="breaker_threshold")
        if self.breaker_window < 1:
            raise OptionsError(
                f"breaker_window must be >= 1, got {self.breaker_window}",
                option="breaker_window")

    def backoff_s(self, attempt: int) -> float:
        """Requeue delay after the ``attempt``-th failed execution."""
        return min(self.backoff_base_s * (2.0 ** max(attempt - 1, 0)),
                   self.backoff_cap_s)


@dataclass
class JobLease:
    """One running job's claim on a worker, renewed by heartbeats."""

    job_id: str
    record: QueuedJob
    worker: str
    epoch: int
    attempt: int
    acquired_s: float
    heartbeat_s: float
    interrupt: Callable[[], None]
    pool: bool = False
    stalled: bool = False
    beats: int = field(default=0)

    def idle_s(self, now: float) -> float:
        return now - self.heartbeat_s


class CircuitBreaker:
    """Failure-rate breaker over a sliding window of job outcomes.

    States: ``closed`` (normal admission) -> ``open`` (shedding, after
    the recent failure rate crosses the threshold) -> ``half_open``
    (cooldown elapsed; one probe job admitted) -> ``closed`` on probe
    success or back to ``open`` on probe failure.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, config: SupervisorConfig,
                 clock: Callable[[], float]) -> None:
        self.config = config
        self.clock = clock
        self._lock = threading.Lock()
        self.state = self.CLOSED
        self.trips = 0
        self.shed_count = 0
        self._outcomes: list[bool] = []  # True = success, newest last
        self._opened_s = 0.0
        self._probe_out = False

    # -- admission -----------------------------------------------------
    def allow(self) -> bool:
        """True when a cold submission may be admitted right now."""
        with self._lock:
            if self.state == self.CLOSED:
                return True
            now = self.clock()
            if self.state == self.OPEN:
                if now - self._opened_s < self.config.breaker_cooldown_s:
                    self.shed_count += 1
                    return False
                self.state = self.HALF_OPEN
                self._probe_out = False
            # half-open: exactly one probe in flight at a time
            if self._probe_out:
                self.shed_count += 1
                return False
            self._probe_out = True
            return True

    def probe_aborted(self) -> None:
        """The half-open probe never started (its submit was rejected
        downstream); free the probe slot for the next submission."""
        with self._lock:
            if self.state == self.HALF_OPEN:
                self._probe_out = False

    def retry_after_s(self) -> float:
        with self._lock:
            if self.state != self.OPEN:
                return 0.0
            elapsed = self.clock() - self._opened_s
            return max(self.config.breaker_cooldown_s - elapsed, 0.0)

    # -- outcome feedback ----------------------------------------------
    def record(self, ok: bool) -> None:
        """Fold one finished execution into the breaker state."""
        with self._lock:
            if self.state == self.HALF_OPEN:
                # the probe's outcome decides: recover or re-open
                self._probe_out = False
                if ok:
                    self.state = self.CLOSED
                    self._outcomes = []
                else:
                    self.state = self.OPEN
                    self._opened_s = self.clock()
                return
            self._outcomes.append(ok)
            if len(self._outcomes) > self.config.breaker_window:
                del self._outcomes[:-self.config.breaker_window]
            if self.state != self.CLOSED:
                return
            if len(self._outcomes) < self.config.breaker_min_samples:
                return
            failures = sum(1 for o in self._outcomes if not o)
            if failures / len(self._outcomes) >= \
                    self.config.breaker_threshold:
                self.state = self.OPEN
                self.trips += 1
                self._opened_s = self.clock()

    def snapshot(self) -> dict:
        with self._lock:
            failures = sum(1 for o in self._outcomes if not o)
            return {
                "state": self.state,
                "trips": self.trips,
                "shed": self.shed_count,
                "window": len(self._outcomes),
                "window_failures": failures,
            }


class Supervisor:
    """Lease table + watchdog + breaker: the daemon's execution warden.

    The worker bridge acquires a lease per execution and renews it from
    the executor's per-iteration job hook; the watchdog thread scans for
    stale leases and drives the requeue/quarantine policy.  All queue
    mutations go through :class:`~repro.serve.queue.JobQueue`, whose
    epoch guard makes a superseded execution's late ``finish`` a no-op.
    """

    def __init__(self, config: SupervisorConfig, *, queue: JobQueue,
                 clock: Callable[[], float],
                 emit: Callable[[dict], None] | None = None) -> None:
        self.config = config
        self.queue = queue
        self.clock = clock
        self.emit = emit
        self.breaker = CircuitBreaker(config, clock)
        self.bridge: "WorkerBridge | None" = None
        self._lock = threading.Lock()
        self._leases: dict[str, JobLease] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.counters: dict[str, int] = {
            "supervise.stalled": 0,
            "supervise.requeued": 0,
            "supervise.quarantined": 0,
            "supervise.heartbeats": 0,
        }

    # -- lifecycle -----------------------------------------------------
    def attach_bridge(self, bridge: "WorkerBridge") -> None:
        self.bridge = bridge

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-watchdog")
        self._thread.start()

    def stop(self, *, join_timeout_s: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=join_timeout_s)

    # -- lease API (called by the worker bridge) -----------------------
    def acquire(self, record: QueuedJob, *, worker: str,
                interrupt: Callable[[], None],
                pool: bool = False) -> JobLease:
        """Claim a lease for one execution of ``record``.

        Increments the record's cross-restart attempt count and writes a
        ``lease`` journal row, so a daemon that dies mid-execution
        replays the job with this attempt already on the books.
        """
        now = self.clock()
        with self.queue.lock():
            record.attempts += 1
            attempt = record.attempts
            epoch = record.epoch
        lease = JobLease(job_id=record.job_id, record=record,
                         worker=worker, epoch=epoch, attempt=attempt,
                         acquired_s=now, heartbeat_s=now,
                         interrupt=interrupt, pool=pool)
        with self._lock:
            self._leases[record.job_id] = lease
        if self.queue.journal is not None:
            self.queue.journal.lease(record.job_id, attempt)
        return lease

    def heartbeat(self, job_id: str) -> None:
        """Renew a lease (called from the per-iteration job hook)."""
        if fault_fires("heartbeat_drop"):
            return
        with self._lock:
            lease = self._leases.get(job_id)
            if lease is not None:
                lease.heartbeat_s = self.clock()
                lease.beats += 1
                self.counters["supervise.heartbeats"] += 1

    def release(self, job_id: str, epoch: int) -> None:
        """Drop a lease when its execution returns (any outcome)."""
        with self._lock:
            lease = self._leases.get(job_id)
            if lease is not None and lease.epoch == epoch:
                del self._leases[job_id]

    def record_outcome(self, ok: bool) -> None:
        self.breaker.record(ok)

    # -- policy --------------------------------------------------------
    def resolve_failure(self, record: QueuedJob, *, epoch: int,
                        reason: str) -> str:
        """Route one failed execution: requeue with backoff, or
        quarantine once the attempt budget is spent.

        Shared by the watchdog (stalled leases) and the worker bridge
        (crash/timeout results).  Returns ``"requeued"``,
        ``"quarantined"``, or ``"superseded"`` when the execution
        already reached a terminal state through another path.
        """
        if record.attempts >= self.config.max_attempts:
            applied = self.queue.quarantine(
                record, epoch=epoch,
                error=(f"quarantined after {record.attempts} "
                       f"attempt(s): {reason}"))
            outcome = "quarantined"
        else:
            applied = self.queue.requeue(
                record, epoch=epoch,
                delay_s=self.config.backoff_s(record.attempts))
            outcome = "requeued"
        if not applied:
            return "superseded"
        with self._lock:
            self.counters[f"supervise.{outcome}"] += 1
        self.breaker.record(False)
        return outcome

    # -- watchdog ------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.config.scan_interval_s):
            self._supervise_scan()

    def _supervise_scan(self) -> None:
        """One watchdog pass over the lease table."""
        tracer = Tracer(clock=self.clock)
        with tracer.phase("serve.supervise.scan"):
            now = self.clock()
            with self._lock:
                stale = [lease for lease in self._leases.values()
                         if not lease.stalled
                         and lease.idle_s(now) > self.config.stall_timeout_s]
            for lease in stale:
                self._handle_stall(lease, tracer)
        if stale and self.emit is not None:
            for event in tracer.events:
                self.emit(dict(event))

    def _handle_stall(self, lease: JobLease, tracer: Tracer) -> None:
        """Interrupt a stuck execution and requeue or quarantine it."""
        with tracer.phase("serve.supervise.stall", job_id=lease.job_id):
            record = lease.record
            lease.stalled = True
            with self._lock:
                self.counters["supervise.stalled"] += 1
            outcome = self.resolve_failure(
                record, epoch=lease.epoch,
                reason=(f"stalled >{self.config.stall_timeout_s}s "
                        "without a heartbeat"))
            tracer.event("stall", job_id=lease.job_id,
                         attempt=lease.attempt, worker=lease.worker,
                         outcome=outcome)
            if outcome == "superseded":
                return  # the execution finished while we decided
            # interrupt the dead attempt: cancel token (the job hook
            # raises at the next iteration) and, in pool mode, the
            # worker process itself
            lease.interrupt()
            with self._lock:
                self._leases.pop(lease.job_id, None)
            if self.bridge is not None and not lease.pool:
                # a hung thread may never return; hand its slot to a
                # fresh worker so capacity survives the stall
                self.bridge.abandon_worker(lease.worker)

    # -- reporting -----------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            leases = [
                {"job_id": lease.job_id, "worker": lease.worker,
                 "attempt": lease.attempt, "beats": lease.beats,
                 "idle_s": round(lease.idle_s(self.clock()), 3)}
                for lease in self._leases.values()]
            counters = dict(self.counters)
        return {
            "leases": leases,
            "counters": counters,
            "breaker": self.breaker.snapshot(),
            "policy": {
                "stall_timeout_s": self.config.stall_timeout_s,
                "scan_interval_s": self.config.scan_interval_s,
                "max_attempts": self.config.max_attempts,
            },
        }
