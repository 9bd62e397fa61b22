"""Tests for the batch-placement runtime: cache, executor, telemetry."""

import json

import pytest

from repro.core import PlacerOptions
from repro.gen import build_design
from repro.runtime import (ArtifactCache, BatchExecutor, PlacementJob,
                           Tracer, apply_positions, execute_job, job_key,
                           netlist_fingerprint, read_trace, run_suite,
                           write_trace)


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------

class TestTracer:
    def test_nested_phase_paths(self):
        tracer = Tracer()
        with tracer.phase("outer"):
            with tracer.phase("inner"):
                pass
        paths = [e["path"] for e in tracer.phases()]
        assert paths == ["outer/inner", "outer"]  # completion order

    def test_split_and_elapsed(self):
        clock_value = [0.0]
        tracer = Tracer(clock=lambda: clock_value[0])
        with tracer.phase("work") as ph:
            clock_value[0] = 1.5
            assert ph.split() == pytest.approx(1.5)
            clock_value[0] = 2.0
        assert ph.elapsed_s == pytest.approx(2.0)
        assert tracer.total_s("work") == pytest.approx(2.0)

    def test_counters_and_merge(self):
        a, b = Tracer(), Tracer()
        a.incr("hits")
        b.incr("hits", 2)
        b.event("note", detail="x")
        a.merge(b.events, b.counters)
        assert a.count("hits") == 3
        assert any(e["name"] == "note" for e in a.events)

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.phase("p", design="d"):
            tracer.incr("n")
        path = write_trace(tmp_path / "t.jsonl", tracer)
        records = read_trace(path)
        kinds = {r["kind"] for r in records}
        assert kinds == {"phase", "counter"}
        assert all(json.dumps(r) for r in records)


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------

class TestCacheKeys:
    def test_fingerprint_stable_across_builds(self):
        a = build_design("dp_add8").netlist
        b = build_design("dp_add8").netlist
        assert netlist_fingerprint(a) == netlist_fingerprint(b)

    def test_fingerprint_ignores_movable_positions(self):
        design = build_design("dp_add8")
        before = netlist_fingerprint(design.netlist)
        for cell in design.netlist.movable_cells():
            cell.x += 7.0
        assert netlist_fingerprint(design.netlist) == before

    def test_key_changes_with_options_and_seed(self):
        netlist = build_design("dp_add8").netlist
        base = job_key(netlist, "structure", PlacerOptions(), 0)
        tweaked = job_key(netlist, "structure",
                          PlacerOptions(structure_weight=2.0), 0)
        reseeded = job_key(netlist, "structure", PlacerOptions(), 1)
        other_placer = job_key(netlist, "baseline", PlacerOptions(), 0)
        assert len({base, tweaked, reseeded, other_placer}) == 4

    def test_key_changes_with_numpy_version(self, monkeypatch):
        """numpy's version is key material (schema 5): a numpy upgrade
        must never be served positions computed by the old build."""
        import numpy
        netlist = build_design("dp_add8").netlist
        base = job_key(netlist, "structure", PlacerOptions(), 0)
        monkeypatch.setattr(numpy, "__version__", "999.0.0")
        upgraded = job_key(netlist, "structure", PlacerOptions(), 0)
        assert upgraded != base

    def test_artifact_store_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"x": 1.5})
        assert cache.get("ab" * 32) == {"x": 1.5}
        assert ("ab" * 32) in cache
        assert cache.clear() == 1

    def test_stale_schema_evicted_as_miss(self, tmp_path):
        import json

        from repro.runtime.cache import CACHE_SCHEMA, _artifact_digest

        cache = ArtifactCache(tmp_path)
        key = "cd" * 32
        cache.put(key, {"x": 2.5})
        # rewrite the record as a previous-schema artifact: intact
        # digest, wrong (or absent, pre-3) schema marker
        path = cache.path(key)
        record = json.loads(path.read_text())
        assert record["schema"] == CACHE_SCHEMA
        del record["schema"]
        path.write_text(json.dumps(record))
        tracer = Tracer()
        assert cache.get(key, tracer=tracer) is None
        assert tracer.count("cache.corrupt") == 1
        assert key not in cache  # evicted, not just skipped
        # numeric-but-wrong schema is equally stale
        cache.put(key, {"x": 2.5})
        record = json.loads(path.read_text())
        record["schema"] = CACHE_SCHEMA - 1
        path.write_text(json.dumps(record))
        assert cache.get(key) is None
        # digest-valid current-schema record still round-trips
        cache.put(key, {"y": [1.0, 2.0]})
        assert _artifact_digest({"y": [1.0, 2.0]}) == \
            json.loads(path.read_text())["digest"]
        assert cache.get(key) == {"y": [1.0, 2.0]}


# ----------------------------------------------------------------------
# job execution and caching
# ----------------------------------------------------------------------

class TestExecuteJob:
    def test_cache_miss_then_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        job = PlacementJob(design="dp_add8", placer="baseline")

        cold_tracer = Tracer()
        cold = execute_job(job, cache=cache, tracer=cold_tracer)
        assert not cold.cached
        assert cold_tracer.count("cache.miss") == 1
        assert cold_tracer.count("placer.invocations") == 1

        warm_tracer = Tracer()
        warm = execute_job(job, cache=cache, tracer=warm_tracer)
        assert warm.cached
        assert warm_tracer.count("cache.hit") == 1
        # zero placer invocations on the warm path
        assert warm_tracer.count("placer.invocations") == 0
        assert warm.hpwl_final == cold.hpwl_final
        assert warm.positions == cold.positions

    def test_options_change_invalidates(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        execute_job(PlacementJob(design="dp_add8", placer="baseline"),
                    cache=cache)
        tracer = Tracer()
        tweaked = PlacementJob(
            design="dp_add8", placer="baseline",
            options=PlacerOptions(run_detailed=False))
        result = execute_job(tweaked, cache=cache, tracer=tracer)
        assert not result.cached
        assert tracer.count("cache.miss") == 1

    def test_snapshot_reapplies_bit_identically(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        job = PlacementJob(design="dp_add8", placer="structure")
        result = execute_job(job, cache=cache)
        # artifact goes through JSON on disk; reapplying must be exact
        stored = execute_job(job, cache=cache)
        design = build_design("dp_add8")
        moved = apply_positions(design.netlist, stored.positions)
        assert moved == len(result.positions)
        assert {c.name: [c.x, c.y]
                for c in design.netlist.movable_cells()} == result.positions

    def test_unknown_placer_rejected(self):
        with pytest.raises(ValueError, match="unknown placer"):
            PlacementJob(design="dp_add8", placer="explode")


class TestBatchExecutor:
    def test_worker_raise_is_retried_then_reported(self):
        tracer = Tracer()
        executor = BatchExecutor(workers=1, retries=1)
        bad = PlacementJob(design="no_such_design", placer="baseline")
        good = PlacementJob(design="dp_add8", placer="baseline")
        results = executor.run([bad, good], tracer=tracer)

        failure, success = results
        assert failure.status == "error"
        assert failure.attempts == 2          # initial try + one retry
        assert "no_such_design" in failure.error
        assert tracer.count("executor.retry") == 1
        assert tracer.count("executor.failures") == 1
        # the failing job must not sink the rest of the batch
        assert success.ok and success.hpwl_final > 0

    def test_serial_retry_path(self):
        tracer = Tracer()
        executor = BatchExecutor(workers=0, retries=2)
        bad = PlacementJob(design="no_such_design", placer="baseline")
        result = executor.run([bad], tracer=tracer)[0]
        assert result.status == "error"
        assert result.attempts == 3
        assert tracer.count("executor.retry") == 2


class TestRunSuite:
    def test_serial_and_parallel_bit_identical(self, tmp_path):
        designs = ("dp_add8", "dp_alu16")
        serial = run_suite(designs, ("structure",), workers=0)
        parallel = run_suite(designs, ("structure",), workers=2)
        assert [r.job.label for r in serial.results] == \
            [r.job.label for r in parallel.results]
        for rs, rp in zip(serial.results, parallel.results):
            assert rs.hpwl_final == rp.hpwl_final
            assert rs.positions == rp.positions
            assert rs.metrics == rp.metrics

    def test_warm_rerun_zero_invocations_and_trace_phases(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_suite(["dp_add8"], ("baseline", "structure"),
                         workers=0, cache_dir=cache_dir)
        assert cold.counters.get("placer.invocations") == 2

        trace_path = tmp_path / "trace.jsonl"
        warm = run_suite(["dp_add8"], ("baseline", "structure"),
                         workers=0, cache_dir=cache_dir,
                         trace_path=trace_path)
        assert warm.counters.get("placer.invocations", 0) == 0
        assert warm.counters.get("cache.hit") == 2
        for rs, rw in zip(cold.results, warm.results):
            assert rs.hpwl_final == rw.hpwl_final
            assert rs.positions == rw.positions

        # the cold-run phases appear nested, once per job, in a fresh
        # cold trace (both placers emit the uniform four-phase schema)
        cold_trace = run_suite(
            ["dp_add8"], ("baseline", "structure"), workers=0,
            trace_path=tmp_path / "cold.jsonl")
        records = read_trace(tmp_path / "cold.jsonl")
        phases = [r for r in records if r.get("kind") == "phase"]
        jobs = sum(1 for r in phases if r["path"] == "job")
        assert jobs == 2
        for phase in ("extract", "global_place", "legalize", "detailed"):
            count = sum(1 for r in phases
                        if r["path"] == f"job/place/{phase}")
            assert count == jobs, (phase, count)
        assert cold_trace.ok

    def test_rows_are_deterministic_and_ordered(self):
        suite_result = run_suite(["dp_add8"], ("baseline", "structure"),
                                 workers=0)
        rows = suite_result.rows()
        assert [r["placer"] for r in rows] == ["baseline",
                                               "structure-aware"]
        assert suite_result.result("dp_add8", "structure").ok
        assert "hpwl" in suite_result.table()

    def test_suite_result_carries_cache_stats(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_suite(["dp_add8"], ("baseline",), workers=0,
                         cache_dir=cache_dir)
        assert cold.cache_stats["entries"] == 1
        assert cold.cache_stats["misses"] == 1
        assert cold.cache_stats["hits"] == 0
        warm = run_suite(["dp_add8"], ("baseline",), workers=0,
                         cache_dir=cache_dir)
        assert warm.cache_stats["hits"] == 1
        assert warm.cache_stats["bytes"] > 0
        no_cache = run_suite(["dp_add8"], ("baseline",), workers=0)
        assert no_cache.cache_stats is None


class TestQueueWaitTelemetry:
    def test_serial_run_records_queue_wait(self):
        executor = BatchExecutor(workers=0)
        tracer = Tracer()
        jobs = [PlacementJob(design="dp_add8", placer="baseline"),
                PlacementJob(design="dp_add8", placer="baseline",
                             seed=1)]
        results = executor.run(jobs, tracer=tracer)
        waits = [e for e in tracer.events
                 if e.get("name") == "queue_wait"]
        assert len(waits) == 2
        assert all(e["wait_s"] >= 0.0 for e in waits)
        # job 2 waits behind job 1's execution in a serial batch
        assert results[1].queue_wait_s > results[0].queue_wait_s
        assert results[1].queue_wait_s >= results[0].runtime_s

    def test_parallel_run_records_queue_wait(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        executor = BatchExecutor(workers=1, cache=cache)
        tracer = Tracer()
        results = executor.run(
            [PlacementJob(design="dp_add8", placer="baseline")],
            tracer=tracer)
        assert results[0].queue_wait_s >= 0.0
        waits = [e for e in tracer.events
                 if e.get("name") == "queue_wait"]
        assert len(waits) == 1
        assert waits[0]["job"] == results[0].job.label
