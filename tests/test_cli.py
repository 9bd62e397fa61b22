"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestSuiteCommand:
    def test_lists_suites(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "dac2012" in out
        assert "dp_alu16" in out


class TestGenCommand:
    def test_writes_bookshelf(self, tmp_path, capsys):
        assert main(["gen", "--design", "dp_add8",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "dp_add8.aux").exists()
        assert (tmp_path / "dp_add8.nodes").exists()
        out = capsys.readouterr().out
        assert "dp_add8" in out


class TestExtractCommand:
    def test_reports_arrays_and_score(self, capsys):
        assert main(["extract", "--design", "dp_add8"]) == 0
        out = capsys.readouterr().out
        assert "extracted" in out
        assert "vs ground truth" in out

    def test_extract_from_bookshelf(self, tmp_path, capsys):
        main(["gen", "--design", "dp_add8", "--out", str(tmp_path)])
        capsys.readouterr()
        assert main(["extract",
                     "--aux", str(tmp_path / "dp_add8.aux")]) == 0
        out = capsys.readouterr().out
        assert "extracted" in out


class TestPlaceCommand:
    def test_place_both(self, capsys, tmp_path):
        assert main(["place", "--design", "dp_add8", "--placer", "both",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "structure-aware" in out
        assert (tmp_path / "dp_add8_baseline.aux").exists()
        assert (tmp_path / "dp_add8_structure-aware.aux").exists()

    def test_place_single(self, capsys):
        assert main(["place", "--design", "dp_add8",
                     "--placer", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "structure-aware" not in out


class TestEvalCommand:
    def test_eval_runs(self, capsys):
        assert main(["eval", "--design", "dp_add8"]) == 0
        out = capsys.readouterr().out
        assert "placement quality" in out


class TestVersionFlag:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        from repro import __version__
        assert __version__ in capsys.readouterr().out


class TestPlaceFlags:
    def test_json_output(self, capsys):
        assert main(["place", "--design", "dp_add8",
                     "--placer", "baseline", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["design"] == "dp_add8"
        assert rows[0]["legal"] is True

    def test_seed_flag_runs(self, capsys):
        assert main(["place", "--design", "dp_add8",
                     "--placer", "baseline", "--seed", "3", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["seed"] == 3


class TestRunCommand:
    def test_run_smoke_suite(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        trace = tmp_path / "trace.jsonl"
        assert main(["run", "--designs", "dp_add8",
                     "--placer", "baseline",
                     "--cache-dir", str(cache_dir),
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "dp_add8" in out
        assert "placed=1" in out
        assert trace.exists()
        # warm rerun hits the durable cache: zero placements
        assert main(["run", "--designs", "dp_add8",
                     "--placer", "baseline",
                     "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "placed=0" in out
        assert "cache_hits=1" in out

    def test_run_json_output(self, capsys, tmp_path):
        assert main(["run", "--designs", "dp_add8",
                     "--placer", "baseline", "--no-cache",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["cached"] is False
        assert payload["counters"]["executor.jobs"] == 1
        assert payload["cache"] is None  # --no-cache

    def test_run_json_cache_stats(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        for _ in range(2):
            assert main(["run", "--designs", "dp_add8",
                         "--placer", "baseline",
                         "--cache-dir", str(cache_dir), "--json"]) == 0
            out = capsys.readouterr().out
        payload = json.loads(out)
        cache = payload["cache"]
        assert cache["entries"] == 1
        assert cache["hits"] == 1  # warm rerun served from the cache
        assert cache["bytes"] > 0


class TestArgErrors:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_placer_choice(self):
        with pytest.raises(SystemExit):
            main(["place", "--placer", "nope"])


class TestExitCodes:
    """The documented exit-code contract (README "Exit codes")."""

    @pytest.fixture(autouse=True)
    def _clean_faults(self, monkeypatch):
        from repro.robust import faults
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        faults.reset()
        yield
        faults.reset()

    def test_parse_failure_exits_3(self, tmp_path, capsys):
        code = main(["place", "--aux", str(tmp_path / "missing.aux")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_numerical_failure_exits_5(self, monkeypatch, capsys):
        from repro.robust import faults
        monkeypatch.setenv(faults.ENV_VAR, "solver_nan:*")
        faults.reset()
        code = main(["place", "--design", "dp_add8",
                     "--placer", "structure", "--no-fallback"])
        assert code == 5
        assert "non-finite" in capsys.readouterr().err

    def test_fallback_absorbs_injected_failure(self, monkeypatch,
                                               capsys):
        from repro.robust import faults
        monkeypatch.setenv(faults.ENV_VAR, "solver_nan")
        faults.reset()
        code = main(["place", "--design", "dp_add8",
                     "--placer", "structure", "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["legal"] is True
        assert rows[0]["rung"] == "structure-relaxed"

    @pytest.mark.parametrize("flags, option", [
        (["--cluster-ratio", "nan"], "cluster_ratio"),
        (["--cluster-ratio", "1.5"], "cluster_ratio"),
        (["--cluster-ratio", "0"], "cluster_ratio"),
        (["--cluster-ratio", "-1"], "cluster_ratio"),
        (["--levels", "-3"], "max_levels"),
    ])
    def test_bad_multilevel_options_exit_1(self, flags, option, capsys):
        code = main(["place", "--design", "dp_add8", "--placer",
                     "structure", "--multilevel", *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [options] multilevel ")
        assert option in err
        assert "Traceback" not in err

    def test_multilevel_without_electro_exits_1(self, capsys):
        # the V-cycle places every level with electro, so under the
        # default quadratic engine the CLI refuses before any work
        code = main(["place", "--design", "dp_add8", "--placer",
                     "structure", "--multilevel"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [options] multilevel needs the "
                              "electro engine")
        assert "Traceback" not in err

    @pytest.mark.parametrize("weight", ["nan", "inf", "-1"])
    def test_bad_structure_weight_exits_1(self, weight, capsys):
        # NaN/inf would drop the job to the baseline rung unnoticed,
        # and a negative weight repels the cells it should align
        code = main(["place", "--design", "dp_add8", "--placer",
                     "structure", "--structure-weight", weight])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [options] structure_weight must "
                              "be a finite number >= 0")
        assert "Traceback" not in err

    def test_strict_validation_exits_4(self, tmp_path, capsys):
        # a dangling net: survivable by default, fatal under --strict
        (tmp_path / "d.aux").write_text(
            "RowBasedPlacement : d.nodes d.nets d.pl d.scl\n")
        (tmp_path / "d.nodes").write_text(
            "UCLA nodes 1.0\na 4 8\nb 4 8\n")
        (tmp_path / "d.nets").write_text(
            "UCLA nets 1.0\nNetDegree : 1 lonely\n  a I : 0 0\n")
        (tmp_path / "d.pl").write_text(
            "UCLA pl 1.0\na 0 0 : N\nb 4 0 : N\n")
        (tmp_path / "d.scl").write_text(
            "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n"
            "  Coordinate : 0\n  Height : 8\n  Sitewidth : 1\n"
            "  SubrowOrigin : 0 NumSites : 64\nEnd\n")
        aux = str(tmp_path / "d.aux")
        assert main(["eval", "--aux", aux]) == 0
        capsys.readouterr()
        code = main(["eval", "--aux", aux, "--strict"])
        assert code == 4
        assert "validation" in capsys.readouterr().err

    def test_run_batch_failure_uses_taxonomy_code(self, monkeypatch,
                                                  capsys):
        from repro.robust import faults
        monkeypatch.setenv(faults.ENV_VAR, "solver_nan:*")
        faults.reset()
        code = main(["run", "--designs", "dp_add8",
                     "--placer", "structure", "--no-cache",
                     "--no-checkpoint", "--no-fallback",
                     "--retries", "0"])
        assert code == 5
        assert "error:" in capsys.readouterr().err

    def test_run_with_checkpoints_and_fallback_recovers(
            self, monkeypatch, capsys, tmp_path):
        from repro.robust import faults
        monkeypatch.setenv(faults.ENV_VAR, "solver_nan")
        faults.reset()
        code = main(["run", "--designs", "dp_add8",
                     "--placer", "structure", "--no-cache",
                     "--checkpoint-dir", str(tmp_path / "ckpt"),
                     "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows[0]["legal"] is True
        assert rows[0]["rung"] == "structure-relaxed"

    def test_unknown_suite_exits_1_without_traceback(self, capsys):
        code = main(["run", "--suite", "no_such_suite", "--no-cache",
                     "--no-checkpoint"])
        assert code == 1
        err = capsys.readouterr().err
        assert "[options]" in err and "no_such_suite" in err
        assert "Traceback" not in err
