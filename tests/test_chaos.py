"""Deterministic chaos harness for the supervised daemon.

Every scenario drives the real daemon (in-thread or as a subprocess)
with seeded fault windows from ``REPRO_FAULT_INJECT`` and asserts the
supervision invariants: stuck executions are detected and recovered,
poison jobs quarantine instead of crash-looping, the breaker sheds cold
traffic while warm traffic still answers, and a SIGKILL'd daemon's
journal carries attempt counts into the next lifetime — with every job
reaching exactly one terminal state.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.robust import faults
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError, wait_ready
from repro.serve.daemon import PlacementDaemon, ServeConfig
from repro.serve.queue import JobJournal

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _reset_faults():
    faults.reset()
    yield
    faults.reset()


@pytest.fixture
def serve_root():
    # unix-socket paths are length-limited (~108 bytes); pytest tmp
    # paths can exceed that, so sockets live in a short /tmp dir
    with tempfile.TemporaryDirectory(prefix="rc-", dir="/tmp") as root:
        yield Path(root)


def _start_daemon(root: Path, **overrides) -> tuple:
    defaults = dict(
        socket_path=str(root / "s.sock"),
        cache_dir=str(root / "cache"),
        spool_dir=str(root / "spool"),
        workers=1,
    )
    defaults.update(overrides)
    daemon = PlacementDaemon(ServeConfig(**defaults))
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    assert wait_ready(defaults["socket_path"], timeout_s=20)
    return daemon, thread


def _drain_and_join(client: ServeClient,
                    thread: threading.Thread) -> None:
    client.shutdown("drain")
    thread.join(timeout=120)
    assert not thread.is_alive()


def _poll(predicate, timeout_s: float = 30.0, interval_s: float = 0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    return predicate()


# ----------------------------------------------------------------------
# in-process chaos: hang, crash-loop, breaker
# ----------------------------------------------------------------------

class TestHungWorker:
    def test_watchdog_recovers_a_hung_execution(self, serve_root,
                                                monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "worker_hang:1")
        daemon, thread = _start_daemon(
            serve_root, stall_timeout_s=2.0, scan_interval_s=0.1,
            backoff_base_s=0.05)
        with ServeClient(serve_root / "s.sock",
                         timeout_s=None) as client:
            job_id = client.submit("dp_add8",
                                   placer="baseline")["job_id"]
            # the first execution hangs (no heartbeats); the watchdog
            # interrupts it, requeues the job, and the retry succeeds
            response = client.result(job_id, wait=True, timeout=180)
            assert response["state"] == "done"
            assert response["attempts"] == 2

            stats = client.stats()["stats"]
            counters = stats["supervision"]["counters"]
            assert counters["supervise.stalled"] == 1
            assert counters["supervise.requeued"] == 1
            assert counters["supervise.quarantined"] == 0
            assert stats["supervision"]["leases"] == []
            # the hung thread was abandoned and replaced...
            assert stats["executor"]["worker.abandoned"] == 1
            # ...and its late (epoch-stale) completion was discarded,
            # never double-finishing the job
            zombies = _poll(lambda: client.stats()["stats"]["executor"]
                            .get("worker.zombie_results", 0),
                            timeout_s=15.0)
            assert zombies == 1
            assert stats["queue"]["done"] == 1
            _drain_and_join(client, thread)


class TestPoisonJob:
    def test_crash_loop_quarantines_then_requeue_revives(
            self, serve_root, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "worker_crash:3")
        daemon, thread = _start_daemon(
            serve_root, max_attempts=3, backoff_base_s=0.05,
            backoff_cap_s=0.1)
        with ServeClient(serve_root / "s.sock",
                         timeout_s=None) as client:
            job_id = client.submit("dp_add8",
                                   placer="baseline")["job_id"]
            # three crashing executions exhaust the attempt budget
            response = client.result(job_id, wait=True, timeout=180)
            assert response["state"] == "quarantined"
            assert response["error_kind"] == "quarantined"
            assert response["attempts"] == 3
            assert "worker_crash" in response["error"]

            stats = client.stats()["stats"]
            assert stats["supervision"]["counters"][
                "supervise.quarantined"] == 1
            assert stats["supervision"]["counters"][
                "supervise.requeued"] == 2
            assert stats["queue"]["quarantined"] == 1
            assert stats["executor"]["worker.crash"] == 3
            assert stats["finished"]["quarantined"] == 1

            # an explicit requeue revives it with a fresh budget; the
            # fault window (3 firings) is spent, so it now succeeds
            revived = client.requeue(job_id)
            assert revived["job_id"] == job_id
            # a bridge thread may re-acquire it before the response is
            # described, so the fresh budget shows as 0 or 1 attempts
            assert revived["attempts"] <= 1
            response = client.result(job_id, wait=True, timeout=180)
            assert response["state"] == "done"
            assert response["attempts"] == 1
            assert client.stats()["stats"]["queue"]["quarantined"] == 0
            _drain_and_join(client, thread)


class TestCircuitBreaker:
    def test_open_breaker_sheds_cold_but_serves_warm(self, serve_root,
                                                     monkeypatch):
        daemon, thread = _start_daemon(
            serve_root, fallback=False, retries=0,
            breaker_min_samples=2, breaker_window=5,
            breaker_threshold=0.5, breaker_cooldown_s=600.0)
        with ServeClient(serve_root / "s.sock",
                         timeout_s=None) as client:
            # prime: one clean execution -> a warm cache entry and one
            # success sample in the breaker window
            warm_id = client.submit("dp_add8",
                                    placer="baseline")["job_id"]
            assert client.result(warm_id, wait=True,
                                 timeout=180)["state"] == "done"

            # with fallback off, a poisoned solve is a terminal failure
            monkeypatch.setenv(faults.ENV_VAR, "solver_nan:*")
            failed_id = client.submit("dp_add8", placer="baseline",
                                      seed=1)["job_id"]
            response = client.result(failed_id, wait=True, timeout=180)
            assert response["state"] == "failed"
            assert response["error_kind"] == "numerical"

            # 1 failure / 2 samples >= 0.5: the breaker is open and
            # cold admissions shed with the documented taxonomy kind
            stats = client.stats()["stats"]
            assert stats["supervision"]["breaker"]["state"] == "open"
            with pytest.raises(ServeError) as excinfo:
                client.submit("dp_add8", placer="baseline", seed=2)
            assert excinfo.value.code == "shed"
            assert excinfo.value.exit_code == 11

            # warm resubmissions are still served while shedding
            hot = client.submit("dp_add8", placer="baseline")
            assert hot["state"] == "done"
            assert hot["cached"] is True
            assert client.stats()["stats"]["shed"] == 1
            _drain_and_join(client, thread)


class TestTornJournal:
    def test_torn_finish_row_replays_the_job(self, serve_root,
                                             monkeypatch):
        # occurrence 0 is the lease row; skip it and tear the finish
        monkeypatch.setenv(faults.ENV_VAR, "journal_torn_write:1:1")
        daemon, thread = _start_daemon(serve_root)
        with ServeClient(serve_root / "s.sock",
                         timeout_s=None) as client:
            job_id = client.submit("dp_add8",
                                   placer="baseline")["job_id"]
            assert client.result(job_id, wait=True,
                                 timeout=180)["state"] == "done"
            _drain_and_join(client, thread)

        # the daemon finished the job but its finish row was torn
        # mid-write; a restarted daemon must re-run it (from the warm
        # cache), never lose it
        monkeypatch.delenv(faults.ENV_VAR)
        faults.reset()
        replayed = JobJournal.replay(serve_root / "spool" /
                                     "journal.jsonl")
        assert [r["job_id"] for r in replayed] == [job_id]
        assert replayed[0]["attempts"] == 1

        daemon, thread = _start_daemon(serve_root)
        with ServeClient(serve_root / "s.sock",
                         timeout_s=None) as client:
            response = client.result(job_id, wait=True, timeout=180)
            assert response["state"] == "done"
            assert response["cached"] is True
            assert response["attempts"] == 2  # replay carried attempt 1
            _drain_and_join(client, thread)
        assert JobJournal.replay(serve_root / "spool" /
                                 "journal.jsonl") == []


# ----------------------------------------------------------------------
# cross-process chaos: SIGKILL mid-execution, seeded soak
# ----------------------------------------------------------------------

def _spawn_daemon(serve_root: Path, *flags: str,
                  fault: str | None = None) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop(faults.ENV_VAR, None)
    if fault is not None:
        env[faults.ENV_VAR] = fault
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--socket", str(serve_root / "s.sock"),
         "--cache-dir", str(serve_root / "cache"),
         "--spool-dir", str(serve_root / "spool"),
         *flags],
        cwd=str(REPO), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def _kill(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
        process.communicate(timeout=30)


class TestDaemonCrash:
    def test_sigkill_mid_execution_carries_attempts_over(
            self, serve_root):
        socket = str(serve_root / "s.sock")
        journal_path = serve_root / "spool" / "journal.jsonl"

        # lifetime A: the only execution hangs; SIGKILL the daemon
        # while the job is mid-flight with a journaled lease
        first = _spawn_daemon(serve_root, fault="worker_hang:*")
        try:
            assert wait_ready(socket, timeout_s=30)
            with ServeClient(socket, timeout_s=10.0) as client:
                job_id = client.submit("dp_add8",
                                       placer="baseline")["job_id"]
            assert _poll(lambda: journal_path.exists()
                         and '"event": "lease"'
                         in journal_path.read_text())
            first.send_signal(signal.SIGKILL)
            first.communicate(timeout=30)
        finally:
            _kill(first)

        # lifetime B: the journal says attempt 1 was spent; with an
        # attempt budget of 1 the job must re-register quarantined —
        # its stale lease reaped, never resumed as running
        second = _spawn_daemon(serve_root, "--max-attempts", "1")
        try:
            assert wait_ready(socket, timeout_s=30)
            with ServeClient(socket, timeout_s=None) as client:
                status = client.status(job_id)
                assert status["state"] == "quarantined"
                assert status["attempts"] == 1
                assert "across daemon restarts" in status["error"]
                stats = client.stats()["stats"]
                assert stats["supervision"]["leases"] == []
                assert stats["queue"]["running"] == 0

                # reviving it (fresh budget, no fault in this process)
                # completes the job
                client.requeue(job_id)
                response = client.result(job_id, wait=True, timeout=180)
                assert response["state"] == "done"
                client.shutdown("drain")
            out, _ = second.communicate(timeout=120)
            assert second.returncode == 0, out
        finally:
            _kill(second)
        assert JobJournal.replay(journal_path) == []


class TestChaosSoak:
    def test_seeded_soak_every_job_terminal_exactly_once(
            self, serve_root):
        socket = str(serve_root / "s.sock")
        journal_path = serve_root / "spool" / "journal.jsonl"
        seeds = (0, 1, 2)

        # lifetime A: seeded fault plan (one crash, one torn journal
        # row), then SIGKILL after the first job settles
        first = _spawn_daemon(
            serve_root, "--workers", "2", "--backoff-base", "0.05",
            fault="worker_crash:1:1,journal_torn_write:1:3")
        job_ids = []
        settled_in_a = set()
        try:
            assert wait_ready(socket, timeout_s=30)
            with ServeClient(socket, timeout_s=None) as client:
                for seed in seeds:
                    job_ids.append(client.submit(
                        "dp_add8", placer="baseline",
                        seed=seed)["job_id"])
                first_done = client.result(job_ids[0], wait=True,
                                           timeout=180)
                assert first_done["state"] == "done"
            first.send_signal(signal.SIGKILL)
            first.communicate(timeout=30)
        finally:
            _kill(first)

        # lifetime B: no faults; replay must re-own every unsettled
        # job and drive it to a terminal state
        second = _spawn_daemon(serve_root, "--workers", "2",
                               "--backoff-base", "0.05")
        terminal_states = {}
        try:
            assert wait_ready(socket, timeout_s=30)
            with ServeClient(socket, timeout_s=None) as client:
                for job_id in job_ids:
                    try:
                        response = client.result(job_id, wait=True,
                                                 timeout=180)
                    except ServeError:
                        # unknown here <=> settled in lifetime A (its
                        # journal finish survived the kill)
                        settled_in_a.add(job_id)
                        continue
                    terminal_states[job_id] = response["state"]
                stats = client.stats()["stats"]
                assert stats["supervision"]["leases"] == []
                client.shutdown("drain")
            out, _ = second.communicate(timeout=120)
            assert second.returncode == 0, out
        finally:
            _kill(second)

        # exactly-once: each job is owned by one lifetime, and every
        # job in lifetime B landed in a supervised terminal state
        assert settled_in_a.isdisjoint(terminal_states)
        assert settled_in_a | set(terminal_states) == set(job_ids)
        for state in terminal_states.values():
            assert state in (protocol.DONE, protocol.FAILED,
                             protocol.QUARANTINED)
        # the journal is settled: a third daemon would replay nothing
        assert JobJournal.replay(journal_path) == []
