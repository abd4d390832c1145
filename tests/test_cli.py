import csv
import hashlib
import json
import math

import pytest

from zetamoments import campaign, moments, zeros
from zetamoments.cli import EXIT_COMPUTATION, EXIT_OK, EXIT_VALIDATION, build_parser, main

SUBCOMMANDS = ("sweep", "moments", "shifted", "largeval", "gonek",
               "meansquare", "audit", "continuous", "diff")


@pytest.fixture(scope="module")
def cli_cache(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "z100.csv")
    assert main(["sweep", "--tmax", "100", "--cache", path]) == EXIT_OK
    return path


@pytest.fixture(scope="module")
def cli_cache_1000(tmp_path_factory, cache1000):
    path = str(tmp_path_factory.mktemp("cli") / "z1000.csv")
    zeros.save(cache1000, path)
    return path


class TestSweepCommand:
    def test_writes_29_record_cache(self, cli_cache, capsys):
        cache = zeros.load(cli_cache)
        assert len(cache) == 29

    def test_prints_count(self, tmp_path, capsys):
        path = str(tmp_path / "z.csv")
        assert main(["sweep", "--tmax", "30", "--cache", path]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == 3
        assert out["cache"] == path


class TestValidationErrors:
    def test_empty_cache_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        body = "zcache v1 tmax=50.0 n=0 tol=1e-10\n"
        digest = hashlib.sha256(body.encode()).hexdigest()
        path.write_text(body + f"#sha256={digest}\n")
        code = main(["moments", "--cache", str(path), "--k", "1", "--ell", "1"])
        assert code == EXIT_VALIDATION
        assert "empty cache" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["sweep", "--tmax", "100", "--no-such-flag", "x"]) == \
            EXIT_VALIDATION

    def test_missing_cache_file(self, capsys):
        code = main(["gonek", "--cache", "/does/not/exist.csv", "--x", "2"])
        assert code == EXIT_VALIDATION
        assert "not found" in capsys.readouterr().err

    def test_audit_missing_cache_file(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["audit", "--tmax", "200", "--cache",
                     str(tmp_path / "does-not-exist.csv"), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "not found" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _count_loads(monkeypatch) -> list:
        real, calls = zeros.load, []

        def counted(path):
            calls.append(path)
            return real(path)

        # campaign holds its own reference to zeros.load
        monkeypatch.setattr(zeros, "load", counted)
        monkeypatch.setattr(campaign, "load", counted)
        return calls

    def test_audit_corrupt_cache_read_once(self, cli_cache, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.csv"
        with open(cli_cache) as fh:
            bad.write_text(fh.read().replace("14.134", "14.135", 1))
        calls = self._count_loads(monkeypatch)
        out = tmp_path / "rep.json"
        code = main(["audit", "--tmax", "100", "--cache", str(bad), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "sha256 mismatch" in capsys.readouterr().err
        assert not out.exists()
        assert calls == [str(bad)]

    def test_audit_reads_cache_once(self, cli_cache, tmp_path, monkeypatch, capsys):
        calls = self._count_loads(monkeypatch)
        out = tmp_path / "rep.json"
        code = main(["audit", "--tmax", "100", "--cache", cli_cache, "--k", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()
        assert calls == [cli_cache]

    @pytest.mark.parametrize("argv, named", [
        *(pytest.param([*command, flag, "nan"], "alpha", id=f"command{i}-{flag}")
          for i, command in enumerate((["shifted", "--k", "1"], ["meansquare", "--x", "5"]))
          for flag in ("--alpha-re", "--alpha-im")),
        pytest.param(["moments", "--k", "nan"], "k must be positive and finite",
                     id="moments---k-nan"),
        pytest.param(["shifted", "--k", "nan"], "k must be positive and finite",
                     id="shifted---k-nan"),
        pytest.param(["shifted", "--k", "inf"], "k must be positive and finite",
                     id="shifted---k-inf"),
        pytest.param(["largeval", "--k", "nan"], "k_hint must be finite",
                     id="largeval---k-nan"),
        pytest.param(["largeval", "--k", "inf"], "k_hint must be finite",
                     id="largeval---k-inf"),
        pytest.param(["gonek", "--x", "nan"], "needs 1 < x < inf", id="gonek---x-nan"),
        pytest.param(["gonek", "--x", "inf"], "needs 1 < x < inf", id="gonek---x-inf"),
        pytest.param(["meansquare", "--x", "nan"], "--x must be finite",
                     id="meansquare---x-nan"),
        pytest.param(["meansquare", "--x", "inf"], "--x must be finite",
                     id="meansquare---x-inf"),
        pytest.param(["audit", "--tmax", "nan"], "t_max must lie in", id="audit---tmax-nan"),
        pytest.param(["audit", "--tmax", "100", "--k", "nan"],
                     "every k must be positive and finite", id="audit---k-nan"),
        pytest.param(["continuous", "--tmax", "100", "--k", "nan"],
                     "k must be positive and finite", id="continuous---k-nan"),
        pytest.param(["continuous", "--tmax", "inf"], "t_max must exceed 1 and be finite",
                     id="continuous---tmax-inf"),
        pytest.param(["moments", "--k", "200"], "overflows a double", id="moments---k-200"),
        pytest.param(["continuous", "--k", "1e3", "--tmax", "50"], "overflows a double",
                     id="continuous---k-1e3"),
        pytest.param(["continuous", "--k", "50", "--tmax", "2"], "overflows a double",
                     id="continuous---tmax-2"),
        pytest.param(["largeval", "--k", "1e300"], "V grid of 7.73e+300 values",
                     id="largeval---k-1e300"),
        pytest.param(["largeval", "--vmin", "3", "--vmax", "8", "--vstep", "1e-9"],
                     "V grid of 5e+09 values", id="largeval---vstep-1e-9"),
    ])
    def test_non_finite_shift(self, argv, named, cli_cache_1000, capsys):
        """A non-finite shift, k, T or x exits 1, naming it, and writes
        nothing; so do a power sum that overflows and an over-long V grid,
        without a numpy warning, before the grid is built."""
        cache = [] if argv[0] == "continuous" else ["--cache", cli_cache_1000]
        code = main(argv + cache)
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, field", [
        pytest.param(["moments", "--k", "19"], "ratio_to_conjecture", id="moments---k-19"),
        pytest.param(["shifted", "--k", "27"], "ratio_to_conjecture", id="shifted---k-27"),
        pytest.param(["continuous", "--k", "27", "--tmax", "1000"], "ratio_to_log_power",
                     id="continuous---k-27"),
    ])
    def test_large_k_with_a_finite_sum_answers(self, argv, field, cli_cache_1000, capsys):
        # (log 1000)^k(k+2) overflows a double at k = 19; the ratio is formed in logs
        cache = [] if argv[0] == "continuous" else ["--cache", cli_cache_1000]
        assert main(argv + cache) == EXIT_OK
        assert math.isfinite(json.loads(capsys.readouterr().out)[0][field])

    def test_cache_header_without_tmax(self, tmp_path, capsys):
        path = tmp_path / "notmax.csv"
        body = "zcache v1 n=0 tol=1e-10 t=50.0\n"
        digest = hashlib.sha256(body.encode()).hexdigest()
        path.write_text(body + f"#sha256={digest}\n")
        code = main(["moments", "--cache", str(path), "--k", "1", "--ell", "1"])
        assert code == EXIT_VALIDATION
        assert "header" in capsys.readouterr().err

    def test_threads_flag_removed(self, tmp_path, capsys):
        assert main(["sweep", "--tmax", "30", "--cache", str(tmp_path / "z.csv"),
                     "--threads", "2"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_refine_tol(self, tol, tmp_path, capsys):
        path = tmp_path / "z.csv"
        code = main(["sweep", "--tmax", "100", "--refine-tol", tol, "--cache", str(path)])
        assert code == EXIT_VALIDATION
        assert "refine_tol" in capsys.readouterr().err
        assert not path.exists()

    def test_computation_error_exit_code(self, monkeypatch, tmp_path, capsys):
        import zetamoments.cli as cli_mod

        def boom(*a, **k):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_mod.zeros, "sweep", boom)
        code = main(["sweep", "--tmax", "50", "--cache", str(tmp_path / "x.csv")])
        assert code == EXIT_COMPUTATION

    def test_refinement_shortfall_exit_code(self, tmp_path, capsys):
        path = tmp_path / "z.csv"
        code = main(["sweep", "--tmax", "2000", "--refine-tol", "1e-12",
                     "--cache", str(path)])
        assert code == EXIT_COMPUTATION
        err = capsys.readouterr().err
        assert "RefinementShortfallError" in err
        assert "above refine_tol = 1e-12" in err
        assert not path.exists()


class TestMomentsCommands:
    def test_moments_json(self, cli_cache, capsys):
        assert main(["moments", "--cache", cli_cache, "--k", "1",
                     "--ell", "1"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["k"] == 1
        assert rows[0]["raw_sum"] > 0.0

    def test_round_trip_matches_library_bit_for_bit(self, cli_cache, capsys):
        assert main(["moments", "--cache", cli_cache, "--k", "1",
                     "--ell", "1"]) == EXIT_OK
        cli_row = json.loads(capsys.readouterr().out)[0]
        rep = moments.compute_Jk(zeros.load(cli_cache), 1.0, 1)
        assert cli_row["raw_sum"] == rep.raw_sum
        assert cli_row["normalized"] == rep.normalized

    def test_shifted_csv_output(self, cli_cache, tmp_path, capsys):
        out = str(tmp_path / "shifted.csv")
        assert main(["shifted", "--cache", cli_cache, "--k", "1",
                     "--alpha-re", "0.2", "--out", out]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and float(rows[0]["raw_sum"]) > 0.0

    def test_meansquare(self, cli_cache, capsys):
        assert main(["meansquare", "--cache", cli_cache, "--x", "10"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["ratio"] <= 5.0

    def test_continuous(self, capsys):
        assert main(["continuous", "--k", "1", "--tmax", "200",
                     "--step", "0.01"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["value"] > 0.0


    @pytest.mark.parametrize("step", ["0", "-0.01", "nan"])
    def test_continuous_bad_step_rejected(self, step, capsys):
        assert main(["continuous", "--k", "1", "--tmax", "200",
                     f"--step={step}"]) == EXIT_VALIDATION
        assert "step" in capsys.readouterr().err


class TestLargevalCommand:
    def test_histogram_counts_nonincreasing(self, cli_cache, capsys):
        code = main(["largeval", "--cache", cli_cache, "--alpha-re", "0.001",
                     "--alpha-im", "0", "--vmin", "0.5", "--vmax", "8",
                     "--vstep", "0.5"])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        counts = [r["count"] for r in rows]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize("vstep", ["0", "-0.5", "nan", "inf"])
    def test_bad_vstep_rejected(self, cli_cache, vstep, capsys):
        code = main(["largeval", "--cache", cli_cache, "--vmin", "0.5",
                     "--vmax", "8", f"--vstep={vstep}"])
        assert code == EXIT_VALIDATION
        assert "--vstep" in capsys.readouterr().err

    def test_grid_steps_from_vmin(self, cli_cache, capsys):
        assert main(["largeval", "--cache", cli_cache, "--vmin", "3",
                     "--vmax", "4", "--vstep", "0.1"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [r["V"] for r in rows] == [3.0 + i * 0.1 for i in range(11)]

    def test_gonek(self, cli_cache, capsys):
        assert main(["gonek", "--cache", cli_cache, "--x", "2.5"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["nearest_pp_distance"] == 0.5


class TestAuditAndDiff:
    def test_audit_and_diff_round_trip(self, tmp_path, capsys):
        cache = str(tmp_path / "z300.csv")
        assert main(["sweep", "--tmax", "300", "--cache", cache]) == EXIT_OK
        capsys.readouterr()
        rep_a = str(tmp_path / "a.json")
        rep_b = str(tmp_path / "b.json")
        base = ["audit", "--tmax", "300", "--cache", cache, "--k", "1",
                "--seed", "7"]
        assert main(base + ["--out", rep_a]) == EXIT_OK
        assert main(base + ["--out", rep_b]) == EXIT_OK
        assert open(rep_a).read() == open(rep_b).read()
        assert main(["diff", rep_a, rep_b]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["flagged"] == []

    def test_diff_report_with_failed_audit(self, tmp_path, capsys):
        config = campaign.CampaignConfig(t_max=300.0, k_list=())
        rep = str(tmp_path / "failed.json")
        campaign.write_report(rep, config, [
            campaign.AuditOutcome("failed_audit", math.nan, 0.0, 0, "error: x")])
        assert main(["diff", rep, rep]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["flagged"] == ["failed_audit"]

    def test_diff_corrupted_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["diff", str(bad), str(bad)]) == EXIT_VALIDATION

    @pytest.mark.parametrize("text", ['[]', '{"schema": "audit.v1", "campaign": {}}'])
    def test_diff_malformed_report(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["diff", str(bad), str(bad)]) == EXIT_VALIDATION
        assert "bad.json" in capsys.readouterr().err


class TestHelp:
    @pytest.mark.parametrize("cmd", SUBCOMMANDS)
    def test_every_flag_documented(self, cmd, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([cmd, "--help"])
        text = capsys.readouterr().out
        expected_flags = {
            "sweep": ["--tmax", "--cache", "--refine-tol"],
            "moments": ["--k", "--ell", "--cache", "--out"],
            "shifted": ["--k", "--alpha-re", "--alpha-im", "--cache", "--out"],
            "largeval": ["--vmin", "--vmax", "--vstep", "--alpha-re",
                         "--alpha-im", "--cache", "--out", "--k"],
            "gonek": ["--x", "--cache", "--out"],
            "meansquare": ["--x", "--alpha-re", "--alpha-im", "--cache", "--out"],
            "audit": ["--tmax", "--k", "--ell", "--lambda", "--seed",
                      "--cache", "--out"],
            "continuous": ["--k", "--tmax", "--step", "--out"],
            "diff": ["report_a", "report_b"],
        }[cmd]
        for flag in expected_flags:
            assert flag in text
        assert "default" in text.lower() or cmd == "diff"
