"""Tests for the adassure CLI."""

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.trace.io import columns_to_npz_bytes
from repro.trace.schema import TraceColumns, TraceMeta

from conftest import make_record

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scenario == "s_curve"
        assert args.attack == "none"

    def test_invalid_attack_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--attack", "nope"])

    @pytest.mark.parametrize("argv", [
        ["worker", "--grid-file", "spec.json"],
        ["experiment", "e1", "--executor", "serial"],
        ["experiment", "e1", "--dist-workers", "2"],
    ])
    def test_removed_fleet_options_are_parse_errors(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pure_pursuit" in out
        assert "A16" in out

    def test_run_nominal(self, capsys):
        code = main(["run", "--scenario", "straight", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ADAssure check report" in out
        assert "root-cause ranking" in out

    def test_run_unknown_scenario(self, capsys):
        assert main(["run", "--scenario", "mars"]) == 2

    def test_run_attack_save_and_check(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        code = main([
            "run", "--scenario", "straight", "--attack", "gps_bias",
            "--onset", "10", "--save", str(trace_path),
        ])
        assert code == 0
        assert trace_path.exists()
        capsys.readouterr()
        assert main(["check", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "gps_bias" in out  # diagnosis names the injected cause

    def test_check_refuses_a_file_whose_steps_go_back(self, tmp_path,
                                                      capsys):
        path = tmp_path / "bad.npz"
        path.write_bytes(columns_to_npz_bytes(
            TraceMeta(), TraceColumns.from_records(
                [make_record(5), make_record(3), make_record(3)])))
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "got step 3 after step 5" in err[0]

    def test_closed_pipe_fails_quietly(self):
        env = dict(os.environ,
                   PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "faults", "list"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # the reader leaves before the first write
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) != 0
        assert "Traceback" not in err and "BrokenPipeError" not in err, err

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "e99"]) == 2

    def test_experiment_e7_quick(self, capsys):
        # e7 is the cheapest experiment: one simulation + monitor sweeps.
        assert main(["experiment", "e7", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out

    def test_diff_command(self, tmp_path, capsys):
        ref = tmp_path / "ref.jsonl"
        cand = tmp_path / "cand.jsonl"
        main(["run", "--scenario", "straight", "--save", str(ref)])
        main(["run", "--scenario", "straight", "--attack", "gps_bias",
              "--onset", "10", "--save", str(cand)])
        capsys.readouterr()
        assert main(["diff", str(ref), str(cand)]) == 0
        out = capsys.readouterr().out
        assert "divergence timeline" in out
        assert "gps" in out

    def test_calibrate_command(self, tmp_path, capsys):
        trace = tmp_path / "nominal.jsonl"
        main(["run", "--scenario", "straight", "--save", str(trace)])
        spec_path = tmp_path / "spec.json"
        capsys.readouterr()
        assert main(["calibrate", str(trace), "--output",
                     str(spec_path)]) == 0
        assert spec_path.exists()
        out = capsys.readouterr().out
        assert "calibration over 1 nominal trace" in out


class TestCacheStats:
    def test_cache_stats_report_manifest_lease_conflicts(
            self, tmp_path, monkeypatch, capsys):
        from repro.experiments.cache import CheckpointManifest, RunCache

        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("ADASSURE_CACHE", raising=False)
        cache = RunCache()
        grid = [("s_curve", "pure_pursuit", "gps_bias", 1.0, 1, 5.0, 12.0)]
        first = CheckpointManifest.for_grid(cache, grid)
        second = CheckpointManifest.for_grid(cache, grid)
        assert second.lease_conflict
        first.release()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "conflicts  : 1 lease event(s)" in out
        assert "leases     :" not in out
        assert "shards     :" not in out
