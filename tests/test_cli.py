import csv
import hashlib
import json

import pytest

from zetamoments import moments, zeros
from zetamoments.cli import EXIT_COMPUTATION, EXIT_OK, EXIT_VALIDATION, build_parser, main

SUBCOMMANDS = ("sweep", "moments", "shifted", "largeval", "gonek",
               "meansquare", "audit", "continuous", "diff")


@pytest.fixture(scope="module")
def cli_cache(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "z100.csv")
    assert main(["sweep", "--tmax", "100", "--cache", path]) == EXIT_OK
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

    def test_threads_flag_removed(self, tmp_path, capsys):
        assert main(["sweep", "--tmax", "30", "--cache", str(tmp_path / "z.csv"),
                     "--threads", "2"]) == EXIT_VALIDATION

    def test_computation_error_exit_code(self, monkeypatch, tmp_path, capsys):
        import zetamoments.cli as cli_mod

        def boom(*a, **k):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_mod.zeros, "sweep", boom)
        code = main(["sweep", "--tmax", "50", "--cache", str(tmp_path / "x.csv")])
        assert code == EXIT_COMPUTATION


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


class TestLargevalCommand:
    def test_histogram_counts_nonincreasing(self, cli_cache, capsys):
        code = main(["largeval", "--cache", cli_cache, "--alpha-re", "0.001",
                     "--alpha-im", "0", "--vmin", "0.5", "--vmax", "8",
                     "--vstep", "0.5"])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        counts = [r["count"] for r in rows]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

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

    def test_diff_corrupted_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["diff", str(bad), str(bad)]) == EXIT_VALIDATION


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
