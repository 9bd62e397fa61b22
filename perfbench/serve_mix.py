"""The ``serve_mix`` workload: the placement daemon under a closed loop.

``repro-place serve --pool --workers 2`` runs in fresh directories (via
``serve_daemon.py``, which only selects the ``forkserver`` start method
for its pools; see there why).  Two client connections from this
process each send their next request only after the previous one
finished (closed loop).  Every unique job is a (design, placer, job
seed) triple on four small suite designs.  A round first sends every
unique job once, both clients concurrently (cold: queue, pool spawn,
shared-memory transport, placement, evaluation, cache put, journal),
then repeats every job exactly once, one client after the other (warm:
the daemon's inline cache probe).  Half the requests are therefore
exact repeats, each issued after its original completed.  A warm
request takes about a millisecond, so it is measured with nothing else
in flight: overlapping it with placements or with the other client's
requests made its latency depend on CPU scheduling more than on the
cache path.

After the timed loop, every cold result is fetched with positions and
checked independently; the daemon is drained, must exit 0, must leave
an empty journal and no shared-memory segment behind.

A traced run also places the four designs with both placers in this
process with the layer wrappers installed: the daemon's pool workers,
where cold requests are placed, are out of the wrappers' reach.
"""

from __future__ import annotations

import contextlib
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import placement
from common import RUNS_DIR, DEFAULT_SEED, RunResult, derive_seed

DESIGNS = ("dp_add8", "dp_alu16", "dp_rf16", "dp_mul16")
PLACERS = ("structure", "baseline")
#: job seeds per (design, placer): 4 x 2 x 13 = 104 cold requests, so
#: p90 of cold latency has more than ten samples beyond it
JOB_SEEDS = 13
CLIENTS = 2
WORKERS = 2
#: daemon spawns per run; setup_s is their median
SPAWNS = 5
READY_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 60.0
TERMINAL = ("done", "failed", "cancelled", "quarantined")


@dataclass
class Request:
    design: str
    placer: str
    seed: int
    repeat: bool


@dataclass
class Reply:
    request: Request
    latency_s: float
    job_id: str = ""
    state: str = ""
    cached: bool = False
    hpwl: float | None = None
    bytes_shipped: int = 0
    error: str = ""


def request_plan(seed: int, round_no: int = 0
                 ) -> tuple[list[list[Request]], list[list[Request]]]:
    """Per-client cold and warm request sequences for one round.

    The default seed's first round uses job seeds 0..12; anything else
    draws them from the seed.  Each client repeats only its own jobs,
    in a new order.
    """
    rng = random.Random(derive_seed(seed, f"serve_mix/{round_no}", 0))
    if seed == DEFAULT_SEED and round_no == 0:
        job_seeds = list(range(JOB_SEEDS))
    else:
        job_seeds = rng.sample(range(1, 2 ** 31 - 1), JOB_SEEDS)
    uniques = [Request(d, p, s, False)
               for d in DESIGNS for p in PLACERS for s in job_seeds]
    rng.shuffle(uniques)
    cold = [uniques[k::CLIENTS] for k in range(CLIENTS)]
    warm = []
    for seq in cold:
        again = [Request(r.design, r.placer, r.seed, True) for r in seq]
        rng.shuffle(again)
        warm.append(again)
    return cold, warm


def _shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class Daemon:
    """One ``repro-place serve`` process in its own fresh directory."""

    def __init__(self, workdir: Path, *, trace: bool) -> None:
        self.dir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        (workdir / "tmp").mkdir(parents=True)
        # relative to the checkout root, which is both processes' cwd,
        # keeps the socket path far below the 108-byte AF_UNIX limit
        self.socket = str(workdir / "d.sock")
        if len(self.socket) >= 100:
            raise RuntimeError(f"socket path too long: {self.socket}")
        self.trace_path = workdir / "trace.jsonl" if trace else None
        self.journal = workdir / "spool" / "journal.jsonl"
        self.proc: subprocess.Popen | None = None
        self.log = None

    def start(self) -> float:
        """Spawn; returns seconds until the first ``ping`` reply."""
        from repro.errors import ReproError
        from repro.serve.client import ServeClient

        cmd = [sys.executable, str(Path(__file__).with_name(
                   "serve_daemon.py")),
               "--socket", self.socket, "--pool", "--workers", str(WORKERS),
               "--cache-dir", str(self.dir / "cache"),
               "--checkpoint-dir", str(self.dir / "ckpt"),
               "--spool-dir", str(self.dir / "spool")]
        if self.trace_path is not None:
            cmd += ["--trace", str(self.trace_path)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src"] + [p for p in [env.get("PYTHONPATH")] if p])
        env["TMPDIR"] = str((self.dir / "tmp").resolve())
        self.log = open(self.dir / "daemon.log", "wb")
        start = time.perf_counter()
        # own process group: the fork server and pool workers share it,
        # so kill() can reach every one of them
        self.proc = subprocess.Popen(cmd, stdout=self.log,
                                     stderr=subprocess.STDOUT, env=env,
                                     start_new_session=True)
        deadline = start + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}"
                                   f" before answering ping")
            try:
                with ServeClient(self.socket, timeout_s=5.0) as client:
                    if client.ping().get("pong"):
                        return time.perf_counter() - start
            except (OSError, ReproError):
                pass
            time.sleep(0.005)
        raise RuntimeError("daemon did not answer ping in time")

    def drain(self) -> int:
        """Drain shutdown; returns the exit code once the daemon and
        everything it started have ended."""
        from repro.serve.client import ServeClient

        assert self.proc is not None
        with ServeClient(self.socket, timeout_s=30.0) as client:
            client.shutdown("drain")
        code = self.proc.wait(timeout=EXIT_TIMEOUT_S)
        if not _reap_group(self.proc.pid, timeout_s=EXIT_TIMEOUT_S):
            raise RuntimeError("daemon processes outlived the daemon")
        return code

    def kill(self) -> None:
        """Stop the daemon's whole process group and reap what it left.

        Idempotent; after it returns no process of this daemon is alive.
        """
        if self.proc is not None:
            for sig in (signal.SIGTERM, signal.SIGKILL):
                try:
                    os.killpg(self.proc.pid, sig)
                except ProcessLookupError:
                    break
                with contextlib.suppress(subprocess.TimeoutExpired):
                    self.proc.wait(timeout=10.0)
                if _reap_group(self.proc.pid, timeout_s=10.0):
                    break
        if self.log is not None:
            self.log.close()
            self.log = None


def _become_subreaper() -> None:
    """Adopt orphaned descendants (the daemon's fork server outlives it
    briefly), so they are waited for and their peak memory is counted
    in ``RUSAGE_CHILDREN``."""
    import ctypes

    pr_set_child_subreaper = 36
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0)


def _reap_group(pgid: int, *, timeout_s: float) -> bool:
    """Wait until no process of group ``pgid`` is left; True if none is."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            while os.waitpid(-pgid, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)


def _client_loop(socket_path: str, plan: list[Request],
                 replies: list[Reply]) -> None:
    from repro.errors import ReproError
    from repro.serve.client import ServeClient

    with ServeClient(socket_path, timeout_s=300.0) as client:
        for req in plan:
            start = time.perf_counter()
            try:
                resp = client.submit(req.design, placer=req.placer,
                                     seed=req.seed)
                if resp.get("state") not in TERMINAL:
                    resp = client.result(resp["job_id"], wait=True)
                latency = time.perf_counter() - start
            except (OSError, ReproError) as exc:
                replies.append(Reply(req, time.perf_counter() - start,
                                     error=f"{type(exc).__name__}: {exc}"))
                continue
            row = resp.get("row") or {}
            replies.append(Reply(
                req, latency, job_id=str(resp.get("job_id", "")),
                state=str(resp.get("state", "")),
                cached=bool(resp.get("cached")), hpwl=resp.get("hpwl"),
                bytes_shipped=int(row.get("bytes_shipped", 0) or 0)))


def _run_round(socket_path: str, cold: list[list[Request]],
               warm: list[list[Request]]
               ) -> tuple[list[Reply], float, float]:
    """Cold requests from all clients at once, then each client's warm
    requests in turn; returns the replies and the wall times of the cold
    half and of the whole round."""
    per_client: list[list[Reply]] = [[] for _ in cold]
    start = time.perf_counter()
    threads = [threading.Thread(target=_client_loop,
                                args=(socket_path, plan, out), daemon=True)
               for plan, out in zip(cold, per_client)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    cold_wall = time.perf_counter() - start
    for plan, out in zip(warm, per_client):
        _client_loop(socket_path, plan, out)
    wall = time.perf_counter() - start
    return [r for out in per_client for r in out], cold_wall, wall


class _DesignCache:
    """Freshly built suite designs with their check tables."""

    def __init__(self) -> None:
        self._by: dict[str, tuple] = {}

    def get(self, name: str):
        if name not in self._by:
            from repro.gen import build_design
            design = build_design(name)
            nl = design.netlist
            w, h, fixed = checks.geometry(nl)
            x0, y0 = checks.positions(nl)
            index = {c.name: c.index for c in nl.cells}
            self._by[name] = (design, checks.PinTable(nl), w, h, fixed,
                              x0, y0, index)
        return self._by[name]


def _verify_cold(socket_path: str, cold: list[Reply],
                 designs: _DesignCache) -> dict[str, list]:
    """Fetch each cold result's positions and check them independently.

    Returns problems keyed by request label; a label is one failed
    operation however many problems it has.
    """
    from repro.serve.client import ServeClient

    problems: dict[str, list] = {}
    with ServeClient(socket_path, timeout_s=120.0) as client:
        for reply in cold:
            req = reply.request
            resp = client.result(reply.job_id, positions=True)
            design, pins, w, h, fixed, x0, y0, index = designs.get(req.design)
            x, y = x0.copy(), y0.copy()
            for name, (px, py) in (resp.get("positions") or {}).items():
                i = index[name]
                x[i], y[i] = float(px), float(py)
            found = checks.legality_violations(
                x, y, w, h, fixed, design.region, fixed_xy=(x0, y0), limit=5)
            own = pins.hpwl(x, y)
            if reply.hpwl is None or not checks.hpwl_matches(own,
                                                             reply.hpwl):
                found.append(f"hpwl mismatch: benchmark {own!r} vs daemon "
                             f"{reply.hpwl!r}")
            if found:
                problems[f"{req.design}/{req.placer}/s{req.seed}"] = found
    return problems


def _dig(data: object, *path: str) -> object:
    """Tolerant nested lookup: None when any level is missing."""
    for key in path:
        if not isinstance(data, dict) or key not in data:
            return None
        data = data[key]
    return data


def _trace_layers(trace_path: Path, stats: dict) -> dict:
    """Per-layer serve/runtime metrics from the daemon's trace and stats.

    Every field is read tolerantly: a renamed or missing field leaves
    its metric out instead of failing the run.
    """
    import json

    out: dict[str, tuple[float, str]] = {}
    hits, misses = _dig(stats, "cache", "hits"), _dig(stats, "cache", "misses")
    if isinstance(hits, int) and isinstance(misses, int) and hits + misses:
        out["runtime.cache.hit_ratio"] = (hits / (hits + misses), "ratio")
    degraded = _dig(stats, "degraded")
    if isinstance(degraded, int):
        out["robust.degraded"] = (float(degraded), "count")

    phases: dict[str, dict[str, float]] = {}
    spans: dict[str, dict] = {}
    try:
        lines = trace_path.read_text().splitlines()
    except OSError:
        lines = []
    for line in lines:
        try:
            row = json.loads(line)
        except ValueError:
            continue
        job_id = row.get("job_id")
        if not job_id:
            continue
        if row.get("kind") == "phase" and isinstance(row.get("path"), str):
            per = phases.setdefault(job_id, {})
            path = row["path"]
            per[path] = per.get(path, 0.0) + float(row.get("elapsed_s", 0.0))
        elif row.get("kind") == "job" and not row.get("cached") \
                and isinstance(row.get("spans"), dict):
            spans[job_id] = row["spans"]
    for metric, path in (("runtime.job.place_s", "job/place"),
                         ("runtime.job.evaluate_s", "job/evaluate"),
                         ("runtime.job.build_s", "job/build")):
        values = [p[path] for p in phases.values() if path in p]
        if values:
            out[metric] = (statistics.median(values), "s")
    # queue and bridge spans of executed jobs (warm hits skip both)
    for metric, key in (("serve.queue_wait_ms", "queue_wait"),
                        ("serve.execute_ms", "execute")):
        values = [float(s[key]) * 1e3 for s in spans.values()
                  if isinstance(s.get(key), (int, float))]
        if values:
            out[metric] = (statistics.median(values), "ms")
    overhead = [(float(spans[j]["execute"]) - phases[j]["job"]) * 1e3
                for j in spans
                if isinstance(spans[j].get("execute"), (int, float))
                and "job" in phases.get(j, {})]
    if overhead:
        out["runtime.pool_overhead_ms"] = (statistics.median(overhead), "ms")
    return out


def _judge(replies: list[Reply]) -> dict[str, str]:
    """Per-request failures: errors, non-done states, cache misuse, and
    warm results that differ from their cold originals."""
    originals = {(r.request.design, r.request.placer, r.request.seed): r
                 for r in replies
                 if not r.request.repeat and r.state == "done"}
    bad: dict[str, str] = {}
    for r in replies:
        req = r.request
        key = (req.design, req.placer, req.seed)
        why = r.error or (f"state {r.state}" if r.state != "done" else "")
        if not why and req.repeat:
            orig = originals.get(key)
            if not r.cached:
                why = "repeat was not served from the cache"
            elif orig is None or orig.hpwl != r.hpwl:
                why = (f"warm hpwl {r.hpwl!r} differs from cold "
                       f"{None if orig is None else orig.hpwl!r}")
        elif not why and r.cached:
            why = "first request was served from the cache"
        if why:
            bad[f"{req.design}/{req.placer}/s{req.seed}"
                f"{'/repeat' if req.repeat else ''}"] = why
    return bad


def run(seed: int, seconds: float, trace: bool, digests) -> RunResult:
    from repro.core import PlacerOptions
    from repro.serve.client import ServeClient
    from repro.serve.queue import JobJournal

    _become_subreaper()
    result = RunResult()
    base = RUNS_DIR / f"serve-{os.getpid()}"
    shm_before = _shm_names()
    spawn_s: list[float] = []
    replies: list[Reply] = []
    walls: list[float] = []
    cold_walls: list[float] = []
    daemon: Daemon | None = None
    try:
        for k in range(SPAWNS):
            if daemon is not None:
                if daemon.drain() != 0:
                    result.problems.append("setup daemon exited nonzero")
                daemon.kill()
            daemon = Daemon(base / f"d{k}", trace=trace)
            spawn_s.append(daemon.start())

        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            got, cold_wall, wall = _run_round(
                daemon.socket, *request_plan(seed, len(walls)))
            replies += got
            cold_walls.append(cold_wall)
            walls.append(wall)

        designs = _DesignCache()
        verified = _verify_cold(daemon.socket, [
            r for r in replies if not r.request.repeat and r.state == "done"],
            designs)
        with ServeClient(daemon.socket, timeout_s=30.0) as client:
            stats = client.stats().get("stats") or {}
        exit_code = daemon.drain()
    finally:
        if daemon is not None:
            daemon.kill()

    failures = _judge(replies)
    for label, found in verified.items():
        failures.setdefault(label, "; ".join(found))
    result.attempted = len(replies)
    result.failed = len(failures)
    result.problems += [f"{k}: {v}" for k, v in failures.items()]

    repeats = sum(r.request.repeat for r in replies)
    hits = _dig(stats, "cache", "hits")
    if hits != repeats:
        result.problems.append(f"daemon cache hits {hits!r} != {repeats} "
                               "repeat requests")
    if exit_code != 0:
        result.problems.append(f"daemon exited {exit_code} after drain")
    pending = JobJournal.replay(daemon.journal)
    if pending:
        result.problems.append(f"journal replays {len(pending)} jobs")
    leaked = _shm_names() - shm_before
    if leaked:
        result.problems.append("shared memory left behind: "
                               f"{sorted(leaked)[:5]}")

    cold_done = [r for r in replies if r.state == "done" and not r.cached]
    cold_ms = [r.latency_s * 1e3 for r in cold_done]
    warm_ms = [r.latency_s * 1e3 for r in replies
               if r.state == "done" and r.cached]
    result.meta.update(
        requests=len(replies), cold=len(cold_ms), warm=len(warm_ms),
        rounds=len(walls),
        designs={name: {"cells": designs.get(name)[0].netlist.num_cells,
                        "nets": designs.get(name)[0].netlist.num_nets}
                 for name in DESIGNS},
        options=repr(PlacerOptions()),
        daemon={"pool": True, "workers": WORKERS, "clients": CLIENTS,
                "loop": "closed"})

    if trace:
        result.metrics.update(_trace_layers(daemon.trace_path, stats))
        shipped = [r.bytes_shipped for r in replies
                   if r.state == "done" and not r.cached]
        if shipped:
            result.metrics["runtime.transport.bytes_per_job"] = (
                statistics.fmean(shipped), "B")
        placement.trace_layers(placement.suite_workload("serve_mix", DESIGNS),
                               seed, digests, result)
    else:
        result.metrics["place_s"] = (statistics.median(cold_walls), "s")
        result.metrics["hpwl"] = (checks.geomean(
            [r.hpwl for r in cold_done]), "units")
        result.metrics["jobs_per_s"] = (len(replies) / sum(walls), "1/s")
        result.metrics["place_gmean_ms"] = (checks.geomean(cold_ms), "ms")
        for name, values, q in (("cold_p50_ms", cold_ms, 50),
                                ("cold_p90_ms", cold_ms, 90),
                                ("warm_p50_ms", warm_ms, 50)):
            try:
                result.metrics[name] = (checks.percentile(values, q), "ms")
            except ValueError as exc:
                result.problems.append(f"{name}: {exc}")
        # largest resident set among the daemons and their pool workers
        # (every one of them has been waited for by now)
        result.metrics["peak_rss_mb"] = (resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB")
        result.metrics["setup_s"] = (statistics.median(spawn_s), "s")
    shutil.rmtree(base, ignore_errors=True)
    return result
