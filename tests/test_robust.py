"""Tests for the fault-tolerance layer: taxonomy, guards, ladder,
cache-corruption handling, the job hook, and exact retries."""

import json
import pickle

import numpy as np
import pytest

from repro.errors import (CacheCorruptionError, JobCancelledError,
                          LegalizationError, NumericalError, ParseError,
                          ReproError, ValidationError, error_kind,
                          exit_code_for)
from repro.gen import build_design
from repro.robust import (DegradationReport, GuardOptions, GuardedSolve,
                          IterateGuard, JobHook, LADDERS,
                          place_with_fallback)
from repro.robust import faults
from repro.runtime import (ArtifactCache, BatchExecutor, PlacementJob,
                           Tracer, execute_job)


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    """Every test starts with no injected faults and fresh counters."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset()
    yield
    faults.reset()


# ----------------------------------------------------------------------
# taxonomy
# ----------------------------------------------------------------------

class TestTaxonomy:
    def test_codes_and_exit_codes(self):
        assert ParseError("x").exit_code == 3
        assert ValidationError("x").exit_code == 4
        assert NumericalError("x").exit_code == 5
        assert LegalizationError("x").exit_code == 6
        assert CacheCorruptionError("x").exit_code == 8
        assert exit_code_for("timeout") == 7
        assert exit_code_for("crash") == 1
        assert exit_code_for("unheard-of") == 1
        assert exit_code_for(None) == 0

    def test_error_kind(self):
        assert error_kind(NumericalError("x")) == "numerical"
        assert error_kind(RuntimeError("x")) == "other"

    def test_parse_error_location_in_str(self):
        exc = ParseError("bad token", path="d/x.nodes", line=7)
        assert str(exc) == "d/x.nodes:7: bad token"
        assert exc.payload["line"] == 7

    def test_legacy_valueerror_compat(self):
        # pre-taxonomy callers catch ValueError for parse/validation
        assert isinstance(ParseError("x"), ValueError)
        assert isinstance(ValidationError("x"), ValueError)
        assert isinstance(ParseError("x"), ReproError)

    def test_errors_pickle_with_payload(self):
        exc = NumericalError("diverged", stage="global_place",
                             design="dp_add8", reason="stall",
                             iteration=12, history=[{"iteration": 11}])
        back = pickle.loads(pickle.dumps(exc))
        assert isinstance(back, NumericalError)
        assert back.reason == "stall"
        assert back.iteration == 12
        assert back.design == "dp_add8"
        assert back.payload["history"] == [{"iteration": 11}]

    def test_to_dict_is_json_ready(self):
        exc = LegalizationError("no room", design="d", cells=["a", "b"])
        json.dumps(exc.to_dict())  # must not raise


# ----------------------------------------------------------------------
# guards
# ----------------------------------------------------------------------

class TestGuards:
    def test_guarded_solve_passes_finite(self):
        solve = GuardedSolve(lambda: np.ones(4), stage="global_place")
        assert np.array_equal(solve(), np.ones(4))

    def test_guarded_solve_rejects_nan(self):
        solve = GuardedSolve(lambda: np.array([1.0, np.nan]),
                             stage="global_place", design="d")
        with pytest.raises(NumericalError) as info:
            solve()
        assert info.value.reason == "nan"
        assert info.value.design == "d"

    def test_guarded_solve_fault_injection(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "solver_nan")
        faults.reset()
        solve = GuardedSolve(lambda: np.ones(3), stage="global_place")
        with pytest.raises(NumericalError):
            solve()
        # the fault fires once; the next solve is clean
        assert np.all(np.isfinite(solve()))

    def test_iterate_guard_nan(self):
        guard = IterateGuard(design="d")
        x = np.array([1.0, np.nan])
        with pytest.raises(NumericalError) as info:
            guard.check(3, x, np.zeros(2))
        assert info.value.reason == "nan"
        assert info.value.iteration == 3
        assert info.value.history  # what the guard saw on the way in

    def test_iterate_guard_blowup(self):
        guard = IterateGuard(GuardOptions(blowup_factor=2.0),
                             bounds=(0.0, 0.0, 100.0, 100.0))
        ok = np.array([50.0])
        guard.check(1, ok, ok)
        far = np.array([1e6])
        with pytest.raises(NumericalError) as info:
            guard.check(2, far, ok)
        assert info.value.reason == "blowup"

    def test_iterate_guard_stall(self):
        guard = IterateGuard(GuardOptions(stall_window=3,
                                          stall_min_overflow=0.5))
        pos = np.zeros(2)
        with pytest.raises(NumericalError) as info:
            for it, ovf in enumerate([1.0, 1.1, 1.2, 1.3, 1.4]):
                guard.check(it, pos, pos, overflow=ovf)
        assert info.value.reason == "stall"
        assert len(info.value.history) >= 3

    def test_disabled_guard_checks_nothing(self):
        guard = IterateGuard(GuardOptions(enabled=False))
        guard.check(0, np.array([np.nan]), np.array([np.inf]))

    def test_movable_mask_ignores_fixed_outliers(self):
        movable = np.array([True, False])
        guard = IterateGuard(GuardOptions(blowup_factor=1.0),
                             bounds=(0.0, 0.0, 10.0, 10.0),
                             movable=movable)
        # the fixed pad at 1e9 must not trip the blowup check
        guard.check(0, np.array([5.0, 1e9]), np.array([5.0, 1e9]))


# ----------------------------------------------------------------------
# degradation ladder
# ----------------------------------------------------------------------

class TestFallbackLadder:
    def test_clean_run_is_not_degraded(self):
        design = build_design("dp_add8")
        outcome, report = place_with_fallback(design.netlist,
                                              design.region)
        assert report.succeeded == "structure"
        assert not report.degraded
        assert outcome.violations == 0

    def test_injected_nan_steps_down_one_rung(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "solver_nan")
        faults.reset()
        design = build_design("dp_add8")
        tracer = Tracer()
        outcome, report = place_with_fallback(design.netlist,
                                              design.region,
                                              tracer=tracer)
        assert report.degraded
        assert report.succeeded == "structure-relaxed"
        assert report.attempts[0].error_kind == "numerical"
        assert outcome.violations == 0
        assert tracer.count("fallback.degraded") == 1
        assert tracer.count("errors.numerical") == 1
        rung_events = [e for e in tracer.events if e["name"] == "rung"]
        assert [e["ok"] for e in rung_events] == [False, True]

    def test_persistent_nan_reaches_row_scan(self, monkeypatch):
        # every solve poisoned: only the solver-free bottom rung survives
        monkeypatch.setenv(faults.ENV_VAR, "solver_nan:*")
        faults.reset()
        design = build_design("dp_add8")
        outcome, report = place_with_fallback(design.netlist,
                                              design.region)
        assert report.succeeded == "row-scan"
        assert outcome.placer == "row-scan"
        assert outcome.violations == 0  # legal even on the bottom rung
        failed = [a.rung for a in report.attempts if not a.ok]
        assert failed == list(LADDERS["structure"][:-1])

    def test_baseline_ladder_skips_structure_rungs(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "solver_nan:*")
        faults.reset()
        design = build_design("dp_add8")
        outcome, report = place_with_fallback(
            design.netlist, design.region, placer="baseline")
        assert [a.rung for a in report.attempts] == \
            list(LADDERS["baseline"])
        assert report.succeeded == "row-scan"

    def test_report_round_trips_through_dict(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "solver_nan")
        faults.reset()
        design = build_design("dp_add8")
        _outcome, report = place_with_fallback(design.netlist,
                                               design.region)
        back = DegradationReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert back.degraded == report.degraded
        assert back.succeeded == report.succeeded
        assert [a.rung for a in back.attempts] == \
            [a.rung for a in report.attempts]


# ----------------------------------------------------------------------
# parse hardening
# ----------------------------------------------------------------------

class TestParseHardening:
    def write_bundle(self, tmp_path, **overrides):
        files = {
            "d.aux": "RowBasedPlacement : d.nodes d.nets d.pl d.scl\n",
            "d.nodes": "UCLA nodes 1.0\na 4 8\nb 4 8\n",
            "d.nets": ("UCLA nets 1.0\nNetDegree : 2 n0\n"
                       "  a I : 0 0\n  b O : 0 0\n"),
            "d.pl": "UCLA pl 1.0\na 0 0 : N\nb 4 0 : N\n",
            "d.scl": ("UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n"
                      "  Coordinate : 0\n  Height : 8\n  Sitewidth : 1\n"
                      "  SubrowOrigin : 0 NumSites : 64\nEnd\n"),
        }
        files.update(overrides)
        for name, content in files.items():
            if content is not None:
                (tmp_path / name).write_text(content)
        return tmp_path / "d.aux"

    def test_missing_aux(self, tmp_path):
        from repro.bookshelf import read_bookshelf
        with pytest.raises(ParseError) as info:
            read_bookshelf(tmp_path / "nope.aux")
        assert "does not exist" in str(info.value)

    def test_manifest_missing_components_one_message(self, tmp_path):
        from repro.bookshelf import read_bookshelf
        aux = self.write_bundle(
            tmp_path, **{"d.aux": "RowBasedPlacement : d.nodes\n"})
        with pytest.raises(ParseError) as info:
            read_bookshelf(aux)
        message = str(info.value)
        assert ".nets" in message and ".pl" in message \
            and ".scl" in message

    def test_listed_file_absent_on_disk(self, tmp_path):
        from repro.bookshelf import read_bookshelf
        aux = self.write_bundle(tmp_path)
        (tmp_path / "d.nodes").unlink()
        with pytest.raises(ParseError) as info:
            read_bookshelf(aux)
        assert "d.nodes" in str(info.value)

    def test_bad_node_line_has_path_and_line(self, tmp_path):
        from repro.bookshelf import read_bookshelf
        aux = self.write_bundle(
            tmp_path, **{"d.nodes": "UCLA nodes 1.0\na 4 8\nb 4 eight\n"})
        with pytest.raises(ParseError) as info:
            read_bookshelf(aux)
        assert info.value.line == 3
        assert str(info.value.path).endswith("d.nodes")

    def test_pin_before_netdegree(self, tmp_path):
        from repro.bookshelf import read_bookshelf
        aux = self.write_bundle(
            tmp_path, **{"d.nets": "UCLA nets 1.0\n  a I : 0 0\n"})
        with pytest.raises(ParseError) as info:
            read_bookshelf(aux)
        assert info.value.line == 2

    def test_net_referencing_unknown_node(self, tmp_path):
        from repro.bookshelf import read_bookshelf
        aux = self.write_bundle(
            tmp_path, **{"d.nets": ("UCLA nets 1.0\nNetDegree : 2 n0\n"
                                    "  a I : 0 0\n  ghost O : 0 0\n")})
        with pytest.raises(ParseError) as info:
            read_bookshelf(aux)
        assert "ghost" in str(info.value)

    def test_scl_with_no_rows(self, tmp_path):
        from repro.bookshelf import read_bookshelf
        aux = self.write_bundle(tmp_path, **{"d.scl": "UCLA scl 1.0\n"})
        with pytest.raises(ParseError) as info:
            read_bookshelf(aux)
        assert "no CoreRow" in str(info.value)


# ----------------------------------------------------------------------
# cache corruption
# ----------------------------------------------------------------------

class TestCacheCorruption:
    def _key_and_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.put("ab" + "0" * 62, {"outcome": {"hpwl_gp": 1.0}})
        return "ab" + "0" * 62, cache

    def test_truncated_entry_is_a_miss_and_evicted(self, tmp_path):
        key, cache = self._key_and_cache(tmp_path)
        path = cache.path(key)
        path.write_text(path.read_text()[:20])
        tracer = Tracer()
        assert cache.get(key, tracer=tracer) is None
        assert tracer.count("cache.corrupt") == 1
        assert tracer.count("errors.cache") == 1
        assert not path.exists()  # evicted, next put recomputes

    def test_digest_mismatch_is_a_miss(self, tmp_path):
        key, cache = self._key_and_cache(tmp_path)
        path = cache.path(key)
        record = json.loads(path.read_text())
        record["payload"]["outcome"]["hpwl_gp"] = 999.0  # tampered
        path.write_text(json.dumps(record))
        assert cache.get(key) is None

    def test_load_verified_raises_for_diagnostics(self, tmp_path):
        key, cache = self._key_and_cache(tmp_path)
        cache.path(key).write_text("{not json")
        with pytest.raises(CacheCorruptionError):
            cache.load_verified(key)
        # the permissive reader never propagates the exception
        assert cache.get(key) is None

    def test_fault_injected_corruption(self, tmp_path, monkeypatch):
        key, cache = self._key_and_cache(tmp_path)
        monkeypatch.setenv(faults.ENV_VAR, "cache_corrupt")
        faults.reset()
        assert cache.get(key) is None  # injected truncation -> miss

    def test_missing_entry_is_plain_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        assert cache.get("cd" + "1" * 62) is None

    def test_round_trip_survives(self, tmp_path):
        key, cache = self._key_and_cache(tmp_path)
        assert cache.get(key) == {"outcome": {"hpwl_gp": 1.0}}


# ----------------------------------------------------------------------
# job hook
# ----------------------------------------------------------------------

class TestJobHook:
    def test_hook_beats_and_cancels(self):
        beats = []
        cancelled = [False]
        hook = JobHook(cancel=lambda: cancelled[0],
                       heartbeat=lambda: beats.append(1))
        hook(0)
        hook.before("legalize")
        assert len(beats) == 2
        cancelled[0] = True
        with pytest.raises(JobCancelledError, match="iteration 3"):
            hook(3)
        with pytest.raises(JobCancelledError, match="before detailed"):
            hook.before("detailed")
        assert len(beats) == 4


# ----------------------------------------------------------------------
# executor integration: retry, cancel, degradation threading
# ----------------------------------------------------------------------

class TestExecutorRecovery:
    def test_degraded_result_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "solver_nan")
        faults.reset()
        cache = ArtifactCache(tmp_path / "cache")
        job = PlacementJob(design="dp_add8", placer="structure")
        result = execute_job(job, cache=cache)
        assert result.ok and result.degraded
        assert result.degradation["succeeded"] == "structure-relaxed"
        assert result.key not in cache
        # the fault is spent: a rerun succeeds at full quality and caches
        clean = execute_job(job, cache=cache)
        assert not clean.degraded
        assert clean.key in cache

    def test_degradation_survives_artifact_round_trip(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "solver_nan")
        faults.reset()
        from repro.runtime import JobResult
        job = PlacementJob(design="dp_add8", placer="structure")
        result = execute_job(job)
        back = JobResult.from_artifact(job, result.to_artifact())
        assert back.degraded
        assert back.row()["rung"] == "structure-relaxed"

    def test_retry_is_exact(self, monkeypatch):
        # a one-shot injected NaN kills the first attempt mid-GP; the
        # serial retry starts cold and lands on the positions of an
        # uninterrupted run
        monkeypatch.setenv(faults.ENV_VAR, "solver_nan:1:8")
        faults.reset()
        job = PlacementJob(design="dp_add8", placer="structure")
        executor = BatchExecutor(0, fallback=False, retries=1)
        tracer = Tracer()
        [result] = executor.run([job], tracer=tracer)
        assert result.ok
        assert result.attempts == 2
        assert tracer.count("errors.numerical") == 1

        faults.reset()
        monkeypatch.delenv(faults.ENV_VAR)
        cold = execute_job(job, fallback=False)
        assert result.positions == cold.positions
        assert result.counters["gp.iterations"] \
            == cold.counters["gp.iterations"]
        assert result.violations == 0

    def test_cancel_lands_on_a_lower_rung(self, monkeypatch):
        # the structure rung dies on the injected NaN before its first
        # iteration; the cancel that is set from then on must stop the
        # structure-relaxed rung instead of letting it finish
        monkeypatch.setenv(faults.ENV_VAR, "solver_nan:1")
        faults.reset()
        polls = []

        def cancel() -> bool:
            fired = faults._occurrences.get("solver_nan", 0) >= 1
            polls.append(fired)
            return fired

        job = PlacementJob(design="dp_add8", placer="structure")
        with pytest.raises(JobCancelledError):
            execute_job(job, cancel=cancel)
        assert polls[0] is False  # the pre-start poll let the job run

    @pytest.mark.parametrize("late, stage", [(1, "legalize"),
                                             (2, "detailed")])
    def test_cancel_after_gp_is_seen_at_a_stage_boundary(self, late, stage):
        # a clean job polls once before start and once per GP
        # iteration, then once before legalization and once before
        # detailed placement; a cancel that turns true after GP's last
        # poll ends the job instead of letting it finish
        job = PlacementJob(design="dp_mix32", placer="structure")
        polls = []
        cancel_from = [None]

        def cancel() -> bool:
            polls.append(1)
            return cancel_from[0] is not None \
                and len(polls) >= cancel_from[0]

        clean = execute_job(job, cancel=cancel)
        gp_polls = 1 + clean.counters["gp.iterations"]
        assert len(polls) == gp_polls + 2

        polls.clear()
        cancel_from[0] = gp_polls + late
        with pytest.raises(JobCancelledError, match=f"before {stage}"):
            execute_job(job, cancel=cancel)
        assert len(polls) == gp_polls + late

    def test_terminal_failure_reports_kind(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "solver_nan:*")
        faults.reset()
        job = PlacementJob(design="dp_add8", placer="structure")
        executor = BatchExecutor(0, fallback=False, retries=1)
        [result] = executor.run([job])
        assert result.status == "error"
        assert result.error_kind == "numerical"
        assert result.attempts == 2
        assert result.row()["error_kind"] == "numerical"

    def test_ladder_failure_attaches_report(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "solver_nan:*")
        faults.reset()
        design = build_design("dp_add8")
        with pytest.raises(NumericalError) as info:
            place_with_fallback(design.netlist, design.region,
                                rungs=("structure", "baseline"))
        degradation = info.value.payload["degradation"]
        assert degradation["succeeded"] is None
        assert len(degradation["attempts"]) == 2
