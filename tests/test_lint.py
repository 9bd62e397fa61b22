"""Tests for repro.lint: per-rule fixtures (positives and negatives),
suppressions, baseline mechanics, JSON output, CLI wiring, and the
shipped-tree-is-clean gate."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import Baseline, lint_paths
from repro.lint import main as lint_main
from repro.lint.registry import all_rules, get_rule

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_lint(tmp_path, source, rel="repro/place/mod.py", **kwargs):
    """Lint one fixture file placed at a repro-relative path."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_paths([path], **kwargs)


def rule_hits(tmp_path, source, rule, rel="repro/place/mod.py"):
    result = run_lint(tmp_path, source, rel=rel, select=[rule])
    return [f for f in result.fresh if f.rule == rule]


class TestDeterminismRules:
    def test_det01_global_random_call(self, tmp_path):
        hits = rule_hits(tmp_path, """\
            import random
            jitter = random.random()
            """, "DET01")
        assert len(hits) == 1
        assert "global random state" in hits[0].message

    def test_det01_unseeded_constructor(self, tmp_path):
        src = """\
            import random
            rng = random.Random()
            """
        assert rule_hits(tmp_path, src, "DET01")

    def test_det01_unseeded_default_rng(self, tmp_path):
        src = """\
            import numpy as np
            rng = np.random.default_rng()
            """
        assert rule_hits(tmp_path, src, "DET01")

    def test_det01_legacy_np_global(self, tmp_path):
        src = """\
            import numpy as np
            noise = np.random.rand(4)
            """
        assert rule_hits(tmp_path, src, "DET01")

    def test_det01_seeded_is_clean(self, tmp_path):
        src = """\
            import random
            import numpy as np
            rng = random.Random(42)
            gen = np.random.default_rng(seed)
            """
        assert not rule_hits(tmp_path, src, "DET01")

    def test_det02_set_iteration(self, tmp_path):
        src = """\
            for cell in {1, 2, 3}:
                print(cell)
            """
        assert rule_hits(tmp_path, src, "DET02")

    def test_det02_set_method_iteration(self, tmp_path):
        src = """\
            names = [n for n in left.intersection(right)]
            """
        assert rule_hits(tmp_path, src, "DET02")

    def test_det02_sorted_set_is_clean(self, tmp_path):
        src = """\
            for cell in sorted({1, 2, 3}):
                print(cell)
            for name in sorted(left & right):
                print(name)
            """
        assert not rule_hits(tmp_path, src, "DET02")

    def test_det03_clock_outside_telemetry(self, tmp_path):
        src = """\
            import time
            start = time.perf_counter()
            """
        assert rule_hits(tmp_path, src, "DET03")

    def test_det03_clock_allowed_in_telemetry(self, tmp_path):
        src = """\
            import time
            start = time.perf_counter()
            """
        assert not rule_hits(tmp_path, src, "DET03",
                             rel="repro/runtime/telemetry.py")

    def test_det04_id_sort_key(self, tmp_path):
        src = """\
            cells.sort(key=id)
            ordered = sorted(nets, key=lambda n: id(n))
            """
        assert len(rule_hits(tmp_path, src, "DET04")) == 2

    def test_det04_stable_key_is_clean(self, tmp_path):
        src = """\
            ordered = sorted(nets, key=lambda n: n.name)
            """
        assert not rule_hits(tmp_path, src, "DET04")


class TestNumericalRules:
    UNGUARDED = """\
        from scipy.sparse.linalg import spsolve
        x = spsolve(A, b)
        """

    def test_num01_raw_spsolve_in_place(self, tmp_path):
        hits = rule_hits(tmp_path, self.UNGUARDED, "NUM01")
        assert len(hits) == 1
        assert "GuardedSolve" in hits[0].message

    def test_num01_aliased_import(self, tmp_path):
        src = """\
            import scipy.sparse.linalg as spla
            x = spla.spsolve(A, b)
            """
        assert rule_hits(tmp_path, src, "NUM01")

    def test_num01_scoped_to_engines(self, tmp_path):
        assert not rule_hits(tmp_path, self.UNGUARDED, "NUM01",
                             rel="repro/gen/mod.py")

    def test_num01_suppression_sanctions_site(self, tmp_path):
        src = """\
            from scipy.sparse.linalg import spsolve
            # canonical guarded path. repro-lint: disable=NUM01
            x = spsolve(A, b)
            """
        assert not rule_hits(tmp_path, src, "NUM01")

    def test_num02_float_equality(self, tmp_path):
        src = """\
            if ratio == 1.5:
                pass
            """
        assert rule_hits(tmp_path, src, "NUM02")

    def test_num02_sentinel_weight_zero_is_clean(self, tmp_path):
        src = """\
            if net.weight == 0.0:
                pass
            """
        assert not rule_hits(tmp_path, src, "NUM02")

    def test_num03_swallowing_except(self, tmp_path):
        src = """\
            try:
                solve()
            except Exception:
                pass
            """
        assert rule_hits(tmp_path, src, "NUM03")

    def test_num03_bare_except(self, tmp_path):
        src = """\
            try:
                solve()
            except:
                pass
            """
        assert rule_hits(tmp_path, src, "NUM03")

    def test_num03_reraise_is_clean(self, tmp_path):
        src = """\
            try:
                solve()
            except Exception as exc:
                raise NumericalError(str(exc)) from exc
            """
        assert not rule_hits(tmp_path, src, "NUM03")

    def test_num03_narrow_except_is_clean(self, tmp_path):
        src = """\
            try:
                solve()
            except ValueError:
                pass
            """
        assert not rule_hits(tmp_path, src, "NUM03")


class TestTaxonomyRules:
    def test_err01_bare_value_error(self, tmp_path):
        src = """\
            def configure(knob):
                raise ValueError(f"bad knob {knob}")
            """
        hits = rule_hits(tmp_path, src, "ERR01")
        assert len(hits) == 1

    def test_err01_bare_runtime_error(self, tmp_path):
        src = """\
            raise RuntimeError("unexpected")
            """
        assert rule_hits(tmp_path, src, "ERR01")

    def test_err01_taxonomy_raise_is_clean(self, tmp_path):
        src = """\
            from repro.errors import OptionsError
            raise OptionsError("bad knob", option="knob")
            """
        assert not rule_hits(tmp_path, src, "ERR01")

    def test_err02_extra_required_positional(self, tmp_path):
        src = """\
            class ReproError(Exception):
                pass

            class BadError(ReproError):
                def __init__(self, message, context):
                    super().__init__(message)
            """
        hits = rule_hits(tmp_path, src, "ERR02")
        assert len(hits) == 1
        assert "BadError" in hits[0].message

    def test_err02_transitive_subclass(self, tmp_path):
        src = """\
            class ReproError(Exception):
                pass

            class MidError(ReproError):
                pass

            class LeafError(MidError):
                def __init__(self, message, extra):
                    super().__init__(message)
            """
        assert rule_hits(tmp_path, src, "ERR02")

    def test_err02_keyword_only_defaults_are_clean(self, tmp_path):
        src = """\
            class ReproError(Exception):
                pass

            class GoodError(ReproError):
                def __init__(self, message, *, detail=None, **payload):
                    super().__init__(message)
            """
        assert not rule_hits(tmp_path, src, "ERR02")


class TestTelemetryRules:
    def test_tel01_phase_outside_with(self, tmp_path):
        src = """\
            tracer.phase("global_place")
            """
        assert rule_hits(tmp_path, src, "TEL01")

    def test_tel01_with_statement_is_clean(self, tmp_path):
        src = """\
            with tracer.phase("global_place") as ph:
                ph.split()
            """
        assert not rule_hits(tmp_path, src, "TEL01")

    def test_tel02_raw_phase_handle(self, tmp_path):
        src = """\
            from repro.runtime.telemetry import PhaseHandle
            handle = PhaseHandle(tracer, "x")
            """
        assert rule_hits(tmp_path, src, "TEL02")

    def test_tel02_allowed_in_telemetry_module(self, tmp_path):
        src = """\
            handle = PhaseHandle(tracer, "x")
            """
        assert not rule_hits(tmp_path, src, "TEL02",
                             rel="repro/runtime/telemetry.py")

    def test_tel03_handler_without_span(self, tmp_path):
        src = """\
            class Daemon:
                async def _handle_submit(self, message):
                    return {"ok": True}
            """
        assert rule_hits(tmp_path, src, "TEL03",
                         rel="repro/serve/daemon.py")

    def test_tel03_handler_with_span_is_clean(self, tmp_path):
        src = """\
            class Daemon:
                async def _handle_submit(self, message):
                    with self.tracer.phase("serve.submit"):
                        return {"ok": True}
            """
        assert not rule_hits(tmp_path, src, "TEL03",
                             rel="repro/serve/daemon.py")

    def test_tel03_sync_handler_also_checked(self, tmp_path):
        src = """\
            def _handle_stats(message):
                return {}
            """
        assert rule_hits(tmp_path, src, "TEL03",
                         rel="repro/serve/workers.py")

    def test_tel03_scoped_to_serve_layer(self, tmp_path):
        src = """\
            def _handle_anything(message):
                return {}
            """
        assert not rule_hits(tmp_path, src, "TEL03",
                             rel="repro/runtime/executor.py")

    def test_tel03_non_handler_functions_exempt(self, tmp_path):
        src = """\
            def dispatch(message):
                return {}
            """
        assert not rule_hits(tmp_path, src, "TEL03",
                             rel="repro/serve/daemon.py")


class TestTypingRule:
    def test_typ01_missing_annotations(self, tmp_path):
        src = """\
            def solve(matrix, rhs):
                return rhs
            """
        hits = rule_hits(tmp_path, src, "TYP01")
        assert len(hits) == 1

    def test_typ01_annotated_is_clean(self, tmp_path):
        src = """\
            def solve(matrix: object, rhs: object) -> object:
                return rhs
            """
        assert not rule_hits(tmp_path, src, "TYP01")

    def test_typ01_private_helpers_exempt(self, tmp_path):
        src = """\
            def _helper(x):
                return x
            """
        assert not rule_hits(tmp_path, src, "TYP01")


class TestSuppressions:
    SRC = """\
        import random
        jitter = random.random()  # repro-lint: disable=DET01
        """

    def test_same_line_suppression(self, tmp_path):
        assert not rule_hits(tmp_path, self.SRC, "DET01")

    def test_comment_line_above(self, tmp_path):
        src = """\
            import random
            # legacy entropy source. repro-lint: disable=DET01
            jitter = random.random()
            """
        assert not rule_hits(tmp_path, src, "DET01")

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        src = """\
            import random
            jitter = random.random()  # repro-lint: disable=NUM01
            """
        assert rule_hits(tmp_path, src, "DET01")

    def test_multiple_rules_one_directive(self, tmp_path):
        src = """\
            import random
            import time
            # repro-lint: disable=DET01,DET03
            x = random.random() + time.time()
            """
        result = run_lint(tmp_path, src, select=["DET01", "DET03"])
        assert not result.fresh


class TestBaseline:
    SRC = """\
        import random
        jitter = random.random()
        """

    def test_baseline_absorbs_known_findings(self, tmp_path):
        first = run_lint(tmp_path, self.SRC, select=["DET01"])
        assert first.fresh
        baseline = Baseline.from_findings(first.findings)
        second = run_lint(tmp_path, self.SRC, select=["DET01"],
                          baseline=baseline)
        assert second.findings and not second.fresh
        assert second.ok

    def test_baseline_survives_line_drift(self, tmp_path):
        first = run_lint(tmp_path, self.SRC, select=["DET01"])
        baseline = Baseline.from_findings(first.findings)
        shifted = "# header comment\n\n" + textwrap.dedent(self.SRC)
        second = run_lint(tmp_path, shifted, select=["DET01"],
                          baseline=baseline)
        assert not second.fresh

    def test_new_finding_escapes_baseline(self, tmp_path):
        first = run_lint(tmp_path, self.SRC, select=["DET01"])
        baseline = Baseline.from_findings(first.findings)
        grown = textwrap.dedent(self.SRC) + "other = random.randint(0, 9)\n"
        second = run_lint(tmp_path, grown, select=["DET01"],
                          baseline=baseline)
        assert len(second.fresh) == 1
        assert "randint" in second.fresh[0].line_text

    def test_round_trip(self, tmp_path):
        first = run_lint(tmp_path, self.SRC, select=["DET01"])
        baseline = Baseline.from_findings(first.findings)
        path = tmp_path / "lint-baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.entries == baseline.entries
        data = json.loads(path.read_text())
        assert data["version"] == Baseline.VERSION


class TestRunnerAndCli:
    def test_json_output_shape(self, tmp_path, capsys):
        target = tmp_path / "repro" / "place" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\nx = random.random()\n")
        code = lint_main(["--json", "--no-baseline", str(target)])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        # schema v3: v2's cache and jobs keys are gone
        assert data["version"] == 3
        assert data["ok"] is False
        assert data["counts"] == {"DET01": 1}
        assert set(data) == {"version", "files", "findings", "baselined",
                             "counts", "errors", "ok"}
        finding = data["findings"][0]
        assert set(finding) == {"rule", "path", "line", "col", "message",
                                "line_text"}

    def test_rules_listing(self, capsys):
        assert lint_main(["--rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out

    def test_explain(self, capsys):
        assert lint_main(["--explain", "NUM01"]) == 0
        out = capsys.readouterr().out
        assert "Invariant" in out and "GuardedSolve" in out

    def test_explain_unknown_rule(self, capsys):
        assert lint_main(["--explain", "ZZZ99"]) == 1

    def test_update_baseline_writes_file(self, tmp_path, capsys):
        target = tmp_path / "repro" / "place" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\nx = random.random()\n")
        baseline_path = tmp_path / "lint-baseline.json"
        assert lint_main(["--update-baseline", "--baseline",
                          str(baseline_path), str(target)]) == 0
        entries = json.loads(baseline_path.read_text())["findings"]
        assert len(entries) == 1 and entries[0]["rule"] == "DET01"

    def test_syntax_error_reported_not_crash(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        assert lint_main(["--no-baseline", str(bad)]) == 1
        assert "analysis failed" in capsys.readouterr().out

    def test_cli_subcommand_forwards(self, capsys):
        from repro.cli import main as cli_main
        assert cli_main(["lint", "--rules"]) == 0
        assert "DET01" in capsys.readouterr().out

    def test_registry_lookup(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == sorted(ids)
        assert get_rule("DET01") is not None
        assert get_rule("ZZZ99") is None


class TestShippedTreeClean:
    def test_src_repro_is_clean_vs_baseline(self):
        baseline_path = REPO_ROOT / "lint-baseline.json"
        baseline = Baseline.load(baseline_path)
        result = lint_paths([REPO_ROOT / "src" / "repro"],
                            baseline=baseline)
        assert not result.errors, result.errors
        assert result.ok, "\n".join(f.render() for f in result.fresh)

    def test_baseline_is_empty(self):
        # the strongest statement: nothing is grandfathered
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        assert baseline.entries == []

    def test_injected_violation_is_caught(self, tmp_path):
        """A seeded defect in a copy of a shipped module is detected."""
        original = (REPO_ROOT / "src" / "repro" / "place"
                    / "quadratic.py").read_text()
        copy = tmp_path / "repro" / "place" / "quadratic.py"
        copy.parent.mkdir(parents=True)
        copy.write_text(original
                        + "\nimport random\n_J = random.random()\n")
        result = lint_paths([copy])
        assert any(f.rule == "DET01" for f in result.fresh)


class TestLifecycleRules:
    def test_lif01_shm_leak_on_exception_path(self, tmp_path):
        hits = rule_hits(tmp_path, """\
            from multiprocessing import shared_memory

            def export(blob: bytes):
                shm = shared_memory.SharedMemory(
                    name="x", create=True, size=len(blob))
                shm.buf[:len(blob)] = blob
                shm.close()
                shm.unlink()
            """, "LIF01")
        assert len(hits) == 1
        assert "exception path" in hits[0].message

    def test_lif01_leak_on_early_return(self, tmp_path):
        hits = rule_hits(tmp_path, """\
            from multiprocessing import shared_memory

            def export(flag):
                shm = shared_memory.SharedMemory(name="x")
                if flag:
                    return None
                shm.close()
            """, "LIF01")
        assert len(hits) == 1

    def test_lif01_try_except_cleanup_is_clean(self, tmp_path):
        src = """\
            from multiprocessing import shared_memory

            def export(blob: bytes):
                shm = shared_memory.SharedMemory(
                    name="x", create=True, size=len(blob))
                try:
                    shm.buf[:len(blob)] = blob
                except BaseException:
                    shm.close()
                    shm.unlink()
                    raise
                shm.close()
            """
        assert not rule_hits(tmp_path, src, "LIF01")

    def test_lif01_try_finally_is_clean(self, tmp_path):
        src = """\
            from multiprocessing import shared_memory

            def export(blob: bytes):
                shm = shared_memory.SharedMemory(name="x")
                try:
                    shm.buf[:4] = blob
                finally:
                    shm.close()
            """
        assert not rule_hits(tmp_path, src, "LIF01")

    def test_lif01_ownership_handoff_is_clean(self, tmp_path):
        src = """\
            from multiprocessing import shared_memory

            def export(store, blob: bytes):
                shm = shared_memory.SharedMemory(name="x")
                store.adopt(shm)
                risky_work(blob)
            """
        assert not rule_hits(tmp_path, src, "LIF01")

    def test_lif02_unpaired_arena_acquire(self, tmp_path):
        hits = rule_hits(tmp_path, """\
            def pin(arenas, design):
                arenas.acquire(design)
            """, "LIF02")
        assert len(hits) == 1
        assert "on_terminal" in hits[0].message

    def test_lif02_paired_module_is_clean(self, tmp_path):
        src = """\
            def pin(arenas, design):
                arenas.acquire(design)

            def unpin(arenas, design):
                arenas.release(design)
            """
        assert not rule_hits(tmp_path, src, "LIF02")

    def test_lif03_unclosed_handle_on_exception(self, tmp_path):
        hits = rule_hits(tmp_path, """\
            def slurp(path):
                fh = open(path)
                data = fh.read()
                fh.close()
                return data
            """, "LIF03")
        assert len(hits) == 1

    def test_lif03_with_scoped_is_clean(self, tmp_path):
        src = """\
            def slurp(path):
                with open(path) as fh:
                    return fh.read()
            """
        assert not rule_hits(tmp_path, src, "LIF03")

    def test_lif03_self_attribute_store_is_clean(self, tmp_path):
        # class-managed lifecycle: the owner's close() releases it
        src = """\
            class Journal:
                def start(self, path):
                    self._fh = path.open("a")
            """
        assert not rule_hits(tmp_path, src, "LIF03")


class TestConcurrencyRules:
    def test_con01_lock_leak_on_exception(self, tmp_path):
        hits = rule_hits(tmp_path, """\
            def update(lock, risky):
                lock.acquire()
                risky()
                lock.release()
            """, "CON01")
        assert len(hits) == 1
        assert "exception path" in hits[0].message

    def test_con01_try_finally_is_clean(self, tmp_path):
        src = """\
            def update(lock, risky):
                lock.acquire()
                try:
                    risky()
                finally:
                    lock.release()
            """
        assert not rule_hits(tmp_path, src, "CON01")

    def test_con01_with_statement_is_clean(self, tmp_path):
        src = """\
            def update(lock, risky):
                with lock:
                    risky()
            """
        assert not rule_hits(tmp_path, src, "CON01")

    def test_con01_local_primitive_without_locky_name(self, tmp_path):
        hits = rule_hits(tmp_path, """\
            import threading

            def update(risky):
                gate = threading.Lock()
                gate.acquire()
                risky()
            """, "CON01")
        assert len(hits) == 1

    def test_con02_unguarded_write_flagged(self, tmp_path):
        hits = rule_hits(tmp_path, """\
            class Registry:
                def add(self, item):
                    with self._lock:
                        self._items = self._items + [item]

                def reset(self):
                    self._items = []
            """, "CON02")
        assert len(hits) == 1
        assert "self._lock" in hits[0].message

    def test_con02_init_writes_exempt(self, tmp_path):
        src = """\
            class Registry:
                def __init__(self):
                    self._items = []

                def add(self, item):
                    with self._lock:
                        self._items = self._items + [item]
            """
        assert not rule_hits(tmp_path, src, "CON02")

    def test_con03_lambda_shipment(self, tmp_path):
        hits = rule_hits(tmp_path, """\
            def fan_out(pool):
                pool.submit(lambda: 1)
            """, "CON03")
        assert len(hits) == 1

    def test_con03_primitive_shipment(self, tmp_path):
        hits = rule_hits(tmp_path, """\
            import threading

            def fan_out(pool, worker):
                lk = threading.Lock()
                pool.submit(worker, lk)
            """, "CON03")
        assert len(hits) == 1
        assert "pickle" in hits[0].message

    def test_con03_nested_function_shipment(self, tmp_path):
        hits = rule_hits(tmp_path, """\
            def fan_out(pool):
                def inner(x):
                    return x
                pool.submit(inner, 3)
            """, "CON03")
        assert len(hits) == 1

    def test_con03_picklable_descriptor_is_clean(self, tmp_path):
        src = """\
            def fan_out(pool, worker, job, spec):
                pool.submit(worker, job, spec, "segment-name")
            """
        assert not rule_hits(tmp_path, src, "CON03")


class TestEventLoopRules:
    REL = "repro/serve/handlers.py"

    def test_asy01_blocking_sleep_in_handler(self, tmp_path):
        hits = rule_hits(tmp_path, """\
            import time

            async def handle(req):
                time.sleep(0.5)
            """, "ASY01", rel=self.REL)
        assert len(hits) == 1
        assert "asyncio" in hits[0].message

    def test_asy01_outside_serve_is_clean(self, tmp_path):
        src = """\
            import time

            async def handle(req):
                time.sleep(0.5)
            """
        assert not rule_hits(tmp_path, src, "ASY01",
                             rel="repro/place/mod.py")

    def test_asy01_async_sleep_is_clean(self, tmp_path):
        src = """\
            import asyncio

            async def handle(req):
                await asyncio.sleep(0.5)
            """
        assert not rule_hits(tmp_path, src, "ASY01", rel=self.REL)

    def test_asy02_sync_file_io_in_handler(self, tmp_path):
        hits = rule_hits(tmp_path, """\
            async def handle(path):
                return path.read_text()
            """, "ASY02", rel=self.REL)
        assert len(hits) == 1

    def test_asy02_to_thread_hop_is_clean(self, tmp_path):
        src = """\
            import asyncio

            async def handle(path):
                return await asyncio.to_thread(path.read_text)
            """
        assert not rule_hits(tmp_path, src, "ASY02", rel=self.REL)

    def test_asy03_transitively_blocking_helper(self, tmp_path):
        hits = rule_hits(tmp_path, """\
            import time

            def _retry():
                _backoff()

            def _backoff():
                time.sleep(1.0)

            async def handle(req):
                _retry()
            """, "ASY03", rel=self.REL)
        assert len(hits) == 1
        assert "_retry" in hits[0].message

    def test_asy03_to_thread_reference_is_clean(self, tmp_path):
        src = """\
            import asyncio
            import time

            def _backoff():
                time.sleep(1.0)

            async def handle(req):
                await asyncio.to_thread(_backoff)
            """
        assert not rule_hits(tmp_path, src, "ASY03", rel=self.REL)

    def test_asy03_executor_run_entry_point(self, tmp_path):
        hits = rule_hits(tmp_path, """\
            def _run_batch(executor, jobs):
                return executor.run(jobs)

            async def handle(executor, jobs):
                return _run_batch(executor, jobs)
            """, "ASY03", rel=self.REL)
        assert len(hits) == 1
