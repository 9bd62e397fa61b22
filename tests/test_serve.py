"""Tests for repro.serve: protocol, queue, artifact cache, daemon."""

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

from repro.errors import ProtocolError, exit_code_for
from repro.runtime import PlacementJob, execute_job
from repro.runtime.cache import ArtifactCache, cache_from_spec
from repro.runtime.jobs import JobResult
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError, wait_ready
from repro.serve.daemon import PlacementDaemon, ServeConfig
from repro.serve.metrics import ServiceMetrics, percentile
from repro.serve.queue import (DaemonStoppingError, JobJournal, JobQueue,
                               QueueFullError)

REPO = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------

class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "submit", "design": "dp_add8", "seed": 3}
        assert protocol.decode(protocol.encode(message)) == message

    def test_oversized_frame_rejected(self):
        blob = b"x" * (protocol.MAX_LINE_BYTES + 1)
        with pytest.raises(ProtocolError, match="frame limit"):
            protocol.decode(blob)

    def test_bad_json_and_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            protocol.decode(b"{nope\n")
        with pytest.raises(ProtocolError, match="JSON objects"):
            protocol.decode(b"[1, 2]\n")

    def test_validate_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            protocol.validate_request({"op": "teleport"})

    def test_validate_submit_fields(self):
        with pytest.raises(ProtocolError, match="design"):
            protocol.validate_request({"op": "submit"})
        with pytest.raises(ProtocolError, match="unknown placer"):
            protocol.validate_request(
                {"op": "submit", "design": "d", "placer": "magic"})
        with pytest.raises(ProtocolError, match="seed"):
            protocol.validate_request(
                {"op": "submit", "design": "d", "seed": "zero"})

    def test_validate_job_ops_need_job_id(self):
        for op in ("status", "result", "cancel"):
            with pytest.raises(ProtocolError, match="job_id"):
                protocol.validate_request({"op": op})

    def test_validate_shutdown_mode(self):
        with pytest.raises(ProtocolError, match="shutdown mode"):
            protocol.validate_request({"op": "shutdown", "mode": "later"})

    def test_options_hydration_round_trip(self):
        from repro.core import PlacerOptions
        from repro.runtime.cache import canonical_options
        options = PlacerOptions(structure_weight=2.5, seed=7)
        options.multilevel.enabled = True
        rebuilt = protocol.options_from_dict(canonical_options(options))
        assert rebuilt == options

    def test_options_unknown_key_rejected(self):
        with pytest.raises(ProtocolError, match="unknown options"):
            protocol.options_from_dict({"warp_speed": 9})
        with pytest.raises(ProtocolError, match="options.gp"):
            protocol.options_from_dict({"gp": {"warp_speed": 9}})

    def test_error_response_carries_taxonomy_kind(self):
        response = protocol.error_response(
            ProtocolError("bad frame"))
        assert response["ok"] is False
        assert response["error_kind"] == "protocol"


# ----------------------------------------------------------------------
# job queue + journal
# ----------------------------------------------------------------------

def _clock_list(value=0.0):
    state = [value]
    return state, lambda: state[0]


def _job(design="dp_add8"):
    return PlacementJob(design=design, placer="baseline")


class TestJobQueue:
    def test_priority_order_with_fifo_ties(self):
        _state, clock = _clock_list()
        queue = JobQueue(clock=clock)
        low = queue.submit(_job(), priority=0)
        first_high = queue.submit(_job(), priority=5)
        second_high = queue.submit(_job(), priority=5)
        order = [queue.pop(timeout=0).job_id for _ in range(3)]
        assert order == [first_high.job_id, second_high.job_id,
                         low.job_id]

    def test_sustains_well_over_1000_queued(self):
        _state, clock = _clock_list()
        queue = JobQueue(clock=clock)  # default admission cap
        for _ in range(1500):
            queue.submit(_job())
        assert queue.counts()["queued"] == 1500

    def test_backpressure_at_capacity(self):
        _state, clock = _clock_list()
        queue = JobQueue(max_pending=2, clock=clock)
        queue.submit(_job())
        queue.submit(_job())
        with pytest.raises(QueueFullError) as excinfo:
            queue.submit(_job())
        assert excinfo.value.code == "backpressure"

    def test_stop_admission_rejects(self):
        _state, clock = _clock_list()
        queue = JobQueue(clock=clock)
        queue.stop_admission()
        with pytest.raises(DaemonStoppingError):
            queue.submit(_job())

    def test_queue_wait_span_uses_queue_clock(self):
        state, clock = _clock_list(10.0)
        queue = JobQueue(clock=clock)
        record = queue.submit(_job())
        state[0] = 12.5
        popped = queue.pop(timeout=0)
        assert popped is record
        assert popped.spans["queue_wait"] == pytest.approx(2.5)

    def test_cancel_queued_is_terminal_and_skipped_by_pop(self):
        _state, clock = _clock_list()
        queue = JobQueue(clock=clock)
        first = queue.submit(_job())
        second = queue.submit(_job())
        state_at_cancel, record = queue.cancel(first.job_id)
        assert state_at_cancel == protocol.QUEUED
        assert record.state == protocol.CANCELLED
        assert record.done.is_set()
        assert queue.pop(timeout=0).job_id == second.job_id

    def test_cancel_running_sets_token_only(self):
        _state, clock = _clock_list()
        queue = JobQueue(clock=clock)
        record = queue.submit(_job())
        queue.pop(timeout=0)
        state_at_cancel, popped = queue.cancel(record.job_id)
        assert state_at_cancel == protocol.RUNNING
        assert popped.cancel.is_set()
        assert popped.state == protocol.RUNNING  # worker finishes it

    def test_cancel_unknown_returns_none(self):
        _state, clock = _clock_list()
        queue = JobQueue(clock=clock)
        assert queue.cancel("j999999") is None

    def test_journal_replays_only_unfinished(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _state, clock = _clock_list()
        journal = JobJournal(path)
        queue = JobQueue(clock=clock, journal=journal)
        finished = queue.submit(_job(), priority=2)
        pending = queue.submit(_job("dp_mul16"), priority=7)
        queue.pop(timeout=0)
        queue.finish(finished, protocol.DONE, result=None)
        journal.close()
        replayed = JobJournal.replay(path)
        assert [r["job_id"] for r in replayed] == [pending.job_id]
        assert replayed[0]["design"] == "dp_mul16"
        assert replayed[0]["priority"] == 7

    def test_journal_tolerates_torn_tail_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            json.dumps({"event": "accept", "job_id": "j000001",
                        "design": "dp_add8"}) + "\n"
            + '{"event": "accept", "job_id": "j0000',  # torn write
            encoding="utf-8")
        replayed = JobJournal.replay(path)
        assert [r["job_id"] for r in replayed] == ["j000001"]

    def test_reserve_seq_avoids_replayed_id_collision(self):
        _state, clock = _clock_list()
        queue = JobQueue(clock=clock)
        queue.submit(_job(), job_id="j000007")
        queue.reserve_seq(7)
        fresh = queue.submit(_job())
        assert fresh.job_id == "j000008"


# ----------------------------------------------------------------------
# artifact cache: one root/ab/<key>.json layout, optional LRU budget
# ----------------------------------------------------------------------

def _key(n: int) -> str:
    return f"{n:064x}"


class TestShardedCache:
    def test_round_trip_and_shard_layout(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = _key(0xAB12CD34)
        artifact = {"outcome": {"hpwl_final": 1.0}}
        path = cache.put(key, artifact)
        assert path == tmp_path / key[:2] / f"{key}.json"
        assert cache.get(key) == artifact
        assert cache.get(_key(1)) is None

    def test_lru_eviction_within_budget(self, tmp_path):
        filler = {"pad": "x" * 512}
        cache = ArtifactCache(tmp_path, max_bytes=1500)
        cache.put(_key(1), filler)
        cache.put(_key(2), filler)
        cache.get(_key(1))  # refresh key 1 -> key 2 becomes LRU
        cache.put(_key(3), filler)
        assert cache.get(_key(1)) is not None
        assert cache.get(_key(2)) is None  # evicted as least-recent
        assert cache.get(_key(3)) is not None
        assert cache.stats()["evictions"] == 1

    def test_eviction_never_drops_newest(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=64)
        cache.put(_key(1), {"pad": "y" * 4096})  # alone over budget
        assert cache.get(_key(1)) is not None
        cache.put(_key(2), {"pad": "z" * 4096})
        assert cache.get(_key(2)) is not None
        assert _key(1) not in cache

    def test_index_rebuilt_from_disk(self, tmp_path):
        filler = {"pad": "x" * 512}
        first = ArtifactCache(tmp_path)
        for n, stamp in ((1, 300), (2, 100), (3, 200)):
            path = first.put(_key(n), filler)
            os.utime(path, (stamp, stamp))
        size = first.path(_key(1)).stat().st_size
        # a fresh instance orders keys by mtime (2, 3, 1); its hit on
        # key 2 touches the file, so a later instance sees 3, 1, 2
        ArtifactCache(tmp_path, max_bytes=3 * size).get(_key(2))
        restarted = ArtifactCache(tmp_path, max_bytes=3 * size)
        restarted.put(_key(4), filler)
        assert _key(3) not in restarted
        assert all(_key(n) in restarted for n in (1, 2, 4))
        assert restarted.stats()["entries"] == 3

    def test_spec_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=1000)
        rebuilt = cache_from_spec(cache.spec())
        assert isinstance(rebuilt, ArtifactCache)
        assert rebuilt.max_bytes == 1000
        assert rebuilt.root == cache.root
        assert cache_from_spec(ArtifactCache(tmp_path).spec()).max_bytes \
            is None
        assert cache_from_spec(None) is None

    def test_invalid_config_rejected(self, tmp_path):
        from repro.errors import OptionsError
        for bad in (0, -5):
            with pytest.raises(OptionsError):
                ArtifactCache(tmp_path, max_bytes=bad)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0
        assert percentile([], 50) == 0.0

    def test_snapshot_folds_finished_jobs(self):
        state, clock = _clock_list()
        metrics = ServiceMetrics(clock)
        queue = JobQueue(clock=clock)
        metrics.record_submitted()
        metrics.record_submitted()
        metrics.record_rejected()

        done = queue.submit(_job())
        queue.pop(timeout=0)
        state[0] = 2.0
        queue.finish(done, protocol.DONE,
                     result=JobResult(job=done.job))
        done.spans["execute"] = 1.5
        metrics.record_finished(done)

        warm = queue.submit(_job())
        warm.state = protocol.DONE
        warm.cached = True
        warm.spans["total"] = 0.01
        metrics.record_finished(warm)

        snapshot = metrics.snapshot()
        assert snapshot["submitted"] == 2
        assert snapshot["rejected"] == 1
        assert snapshot["finished"]["done"] == 2
        assert snapshot["cache"] == {"hits": 1, "misses": 1,
                                     "hit_rate": 0.5}
        assert snapshot["latency"]["warm"]["count"] == 1
        assert snapshot["latency"]["warm"]["p50_ms"] == \
            pytest.approx(10.0)
        assert snapshot["latency"]["execute"]["count"] == 1


# ----------------------------------------------------------------------
# daemon integration (in-process, over a real unix socket)
# ----------------------------------------------------------------------

def _start_daemon(root: Path, **overrides) -> tuple:
    defaults = dict(
        socket_path=str(root / "s.sock"),
        cache_dir=str(root / "cache"),
        checkpoint_dir=str(root / "ckpt"),
        spool_dir=str(root / "spool"),
        workers=1,
    )
    defaults.update(overrides)
    daemon = PlacementDaemon(ServeConfig(**defaults))
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    assert wait_ready(defaults["socket_path"], timeout_s=20)
    return daemon, thread


@pytest.fixture
def serve_root():
    # unix-socket paths are length-limited (~108 bytes); pytest tmp
    # paths can exceed that, so sockets live in a short /tmp dir
    with tempfile.TemporaryDirectory(prefix="rs-", dir="/tmp") as root:
        yield Path(root)


def _drain_and_join(client: ServeClient, thread: threading.Thread,
                    mode: str = "drain") -> None:
    client.shutdown(mode)
    thread.join(timeout=60)
    assert not thread.is_alive()


class TestDaemonIntegration:
    def test_cold_result_bit_identical_to_direct_execution(
            self, serve_root):
        direct = execute_job(PlacementJob(design="dp_add8",
                                          placer="baseline"), cache=None)
        _daemon, thread = _start_daemon(serve_root)
        with ServeClient(serve_root / "s.sock", timeout_s=None) as client:
            job_id = client.submit("dp_add8",
                                   placer="baseline")["job_id"]
            response = client.result(job_id, wait=True, timeout=120,
                                     positions=True)
            assert response["state"] == "done"
            assert response["cached"] is False
            assert response["hpwl"] == direct.hpwl_final
            assert response["positions"] == direct.positions
            assert response["row"]["legal"] is True
            _drain_and_join(client, thread)

    def test_warm_resubmission_is_cached_with_zero_invocations(
            self, serve_root):
        _daemon, thread = _start_daemon(serve_root)
        with ServeClient(serve_root / "s.sock", timeout_s=None) as client:
            first = client.submit("dp_add8", placer="baseline")
            client.result(first["job_id"], wait=True, timeout=120)
            invocations = \
                client.stats()["stats"]["executor"]["placer.invocations"]
            warm = client.submit("dp_add8", placer="baseline")
            # served inline from the cache: born done, never queued
            assert warm["state"] == "done"
            assert warm["cached"] is True
            stats = client.stats()["stats"]
            assert stats["executor"]["placer.invocations"] == invocations
            assert stats["cache"]["hits"] == 1
            assert stats["queue"]["done"] == 2
            # warm results replay the same artifact bit-identically
            cold = client.result(first["job_id"], positions=True)
            hot = client.result(warm["job_id"], positions=True)
            assert hot["positions"] == cold["positions"]
            assert hot["hpwl"] == cold["hpwl"]
            _drain_and_join(client, thread)

    def test_run_suite_artifact_is_a_daemon_cache_hit(self, serve_root):
        # `run` and `serve` share one cache layout: a job the batch
        # runner placed is answered from the cache, with no placement
        from repro.runtime import run_suite
        suite = run_suite(["dp_add8"], ["structure"],
                          cache_dir=serve_root / "cache")
        assert suite.counters["placer.invocations"] == 1
        _daemon, thread = _start_daemon(serve_root)
        with ServeClient(serve_root / "s.sock", timeout_s=None) as client:
            reply = client.submit("dp_add8", placer="structure")
            assert reply["state"] == "done"
            assert reply["cached"] is True
            stats = client.stats()["stats"]
            assert stats["executor"].get("placer.invocations", 0) == 0
            assert stats["cache"]["hits"] == 1
            _drain_and_join(client, thread)
        assert len(list((serve_root / "cache").rglob("*.json"))) == 1

    def test_cancel_queued_job(self, serve_root):
        _daemon, thread = _start_daemon(serve_root)
        with ServeClient(serve_root / "s.sock", timeout_s=None) as client:
            # one worker: the first job occupies it, the rest queue
            blocker = client.submit("dp_add8", placer="baseline")
            victim = client.submit("dp_mul16", placer="baseline")
            cancelled = client.cancel(victim["job_id"])
            assert cancelled["was"] == "queued"
            assert cancelled["state"] == "cancelled"
            status = client.status(victim["job_id"])
            assert status["state"] == "cancelled"
            assert exit_code_for("cancelled") == 9
            # the blocker is unaffected
            done = client.result(blocker["job_id"], wait=True,
                                 timeout=120)
            assert done["state"] == "done"
            _drain_and_join(client, thread)

    def test_cancel_running_job_preserves_checkpoint(self, serve_root):
        from repro.robust.checkpoint import CheckpointStore
        _daemon, thread = _start_daemon(serve_root)
        with ServeClient(serve_root / "s.sock", timeout_s=None) as client:
            submitted = client.submit("dp_alu16", placer="structure")
            job_id = submitted["job_id"]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if client.status(job_id)["state"] == "running":
                    break
                time.sleep(0.005)
            cancelled = client.cancel(job_id)
            assert cancelled["was"] == "running"
            assert cancelled["cancel_requested"] is True
            final = client.result(job_id, wait=True, timeout=120)
            assert final["state"] == "cancelled"
            assert final["error_kind"] == "cancelled"
            # the forced snapshot survives for a later resume
            store = CheckpointStore(serve_root / "ckpt")
            checkpoint = store.load(submitted["key"])
            assert checkpoint is not None
            assert checkpoint.iteration >= 0
            _drain_and_join(client, thread)

    def test_backpressure_error_kind_on_the_wire(self, serve_root):
        _daemon, thread = _start_daemon(serve_root, max_pending=1)
        with ServeClient(serve_root / "s.sock", timeout_s=None) as client:
            blocker = client.submit("dp_add8", placer="baseline")
            with pytest.raises(ServeError) as excinfo:
                while True:  # worker may drain the first instantly
                    client.submit("dp_mul16", placer="baseline")
            assert excinfo.value.code == "backpressure"
            client.result(blocker["job_id"], wait=True, timeout=120)
            _drain_and_join(client, thread)

    def test_bad_multilevel_options_are_an_error_response(
            self, serve_root):
        _daemon, thread = _start_daemon(serve_root)
        with ServeClient(serve_root / "s.sock", timeout_s=None) as client:
            for bad in ({"cluster_ratio": float("nan")},
                        {"cluster_ratio": 1.5}, {"max_levels": -3}):
                with pytest.raises(ServeError) as excinfo:
                    client.submit("dp_add8", options={"multilevel": {
                        "enabled": True, **bad}})
                assert excinfo.value.code == "options"
                assert next(iter(bad)) in str(excinfo.value)
            # the connection survives the error responses
            assert client.ping()["pong"] is True
            _drain_and_join(client, thread)

    def test_unknown_job_id_is_an_error_response(self, serve_root):
        _daemon, thread = _start_daemon(serve_root)
        with ServeClient(serve_root / "s.sock", timeout_s=None) as client:
            with pytest.raises(ServeError):
                client.status("j424242")
            # the connection survives the error response
            assert client.ping()["pong"] is True
            _drain_and_join(client, thread)

    def test_malformed_line_keeps_connection_alive(self, serve_root):
        _daemon, thread = _start_daemon(serve_root)
        client = ServeClient(serve_root / "s.sock",
                             timeout_s=30.0).connect()
        try:
            client._sock.sendall(b"this is not json\n")
            line = client._rfile.readline()
            response = json.loads(line)
            assert response["ok"] is False
            assert response["error_kind"] == "protocol"
            assert client.ping()["pong"] is True
            _drain_and_join(client, thread)
        finally:
            client.close()

    def test_shutdown_now_journals_queued_jobs_for_replay(
            self, serve_root):
        daemon, thread = _start_daemon(serve_root)
        with ServeClient(serve_root / "s.sock", timeout_s=None) as client:
            ids = [client.submit("dp_add8", placer="baseline",
                                 seed=seed)["job_id"]
                   for seed in range(3)]
            _drain_and_join(client, thread, mode="now")

        # every accepted-but-unfinished job is in the journal
        replayed = JobJournal.replay(serve_root / "spool" /
                                     "journal.jsonl")
        assert len(replayed) >= 2  # at most one ran to completion

        # a restarted daemon re-enqueues them under their original ids
        _daemon2, thread2 = _start_daemon(serve_root)
        with ServeClient(serve_root / "s.sock", timeout_s=None) as client:
            for job_id in ids:
                final = client.result(job_id, wait=True, timeout=120)
                assert final["state"] == "done"
            # replayed ids must not collide with fresh submissions
            fresh = client.submit("dp_add8", placer="baseline", seed=9)
            assert fresh["job_id"] not in ids
            _drain_and_join(client, thread2)

    def test_trace_stream_has_request_spans_and_job_rows(
            self, serve_root):
        trace_path = serve_root / "trace.jsonl"
        _daemon, thread = _start_daemon(serve_root,
                                        trace_path=str(trace_path))
        with ServeClient(serve_root / "s.sock", timeout_s=None) as client:
            job_id = client.submit("dp_add8", placer="baseline")["job_id"]
            client.result(job_id, wait=True, timeout=120)
            _drain_and_join(client, thread)
        rows = [json.loads(line) for line in
                trace_path.read_text().splitlines() if line.strip()]
        job_rows = [r for r in rows if r.get("kind") == "job"]
        assert len(job_rows) == 1
        assert job_rows[0]["job_id"] == job_id
        assert "queue_wait" in job_rows[0]["spans"]
        assert "execute" in job_rows[0]["spans"]
        assert any(r.get("job_id") == job_id and r.get("kind") == "phase"
                   for r in rows)


# ----------------------------------------------------------------------
# CLI serve/submit round trips
# ----------------------------------------------------------------------

class TestServeCli:
    def test_submit_wait_json_and_control_plane(self, serve_root,
                                                capsys):
        from repro.cli import main
        _daemon, thread = _start_daemon(serve_root)
        socket = str(serve_root / "s.sock")
        assert main(["submit", "--socket", socket, "--design", "dp_add8",
                     "--placer", "baseline", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["legal"] is True
        assert rows[0]["cached"] is False

        # warm rerun through the CLI is served from the cache
        assert main(["submit", "--socket", socket, "--design", "dp_add8",
                     "--placer", "baseline", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["cached"] is True

        assert main(["submit", "--socket", socket, "--ping"]) == 0
        assert json.loads(capsys.readouterr().out)["pong"] is True
        assert main(["submit", "--socket", socket, "--stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["cache"]["hits"] == 1
        assert main(["submit", "--socket", socket,
                     "--shutdown", "drain"]) == 0
        thread.join(timeout=60)
        assert not thread.is_alive()

    def test_submit_no_wait_returns_job_ids(self, serve_root, capsys):
        from repro.cli import main
        _daemon, thread = _start_daemon(serve_root)
        socket = str(serve_root / "s.sock")
        assert main(["submit", "--socket", socket, "--design", "dp_add8",
                     "--placer", "baseline", "--no-wait",
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["job_id"].startswith("j")
        with ServeClient(socket, timeout_s=None) as client:
            _drain_and_join(client, thread)


# ----------------------------------------------------------------------
# daemon process lifecycle (subprocess, real signals)
# ----------------------------------------------------------------------

class TestDaemonProcess:
    def test_sigterm_drains_accepted_work(self, serve_root):
        socket = str(serve_root / "s.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", socket,
             "--cache-dir", str(serve_root / "cache"),
             "--checkpoint-dir", str(serve_root / "ckpt"),
             "--spool-dir", str(serve_root / "spool")],
            cwd=str(REPO), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        try:
            assert wait_ready(socket, timeout_s=30)
            with ServeClient(socket, timeout_s=10.0) as client:
                job_id = client.submit("dp_add8",
                                       placer="baseline")["job_id"]
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=120)
            assert process.returncode == 0, out
            assert "shut down cleanly" in out
            # the accepted job ran to completion before exit: its
            # artifact landed in the cache and the journal is settled
            cache = ArtifactCache(serve_root / "cache")
            assert cache.stats()["entries"] == 1
            assert JobJournal.replay(serve_root / "spool" /
                                     "journal.jsonl") == []
            assert job_id  # accepted before the signal
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=30)
