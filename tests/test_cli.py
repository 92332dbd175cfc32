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

    def test_experiment_executor_choices(self):
        args = build_parser().parse_args(
            ["experiment", "e1", "--executor", "distributed",
             "--dist-workers", "3"])
        assert args.executor == "distributed"
        assert args.dist_workers == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["experiment", "e1", "--executor", "teleport"])

    def test_worker_requires_grid_file(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])
        args = build_parser().parse_args(
            ["worker", "--grid-file", "spec.json", "--worker-id", "w0",
             "--max-shards", "2", "--lease-ttl", "5"])
        assert args.grid_file == "spec.json"
        assert args.worker_id == "w0"
        assert args.max_shards == 2
        assert args.lease_ttl == 5.0


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


class TestWorkerCommand:
    @pytest.fixture()
    def fresh_cache(self, tmp_path, monkeypatch):
        from repro.experiments.runner import clear_cache

        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("ADASSURE_CACHE", raising=False)
        clear_cache()
        yield tmp_path
        clear_cache()

    def test_worker_runs_campaign_and_reports_json(self, fresh_cache,
                                                   capsys):
        import json

        from repro.experiments.cache import RunCache
        from repro.experiments.distributed import GridSpec

        spec = GridSpec.build(
            scenarios=("s_curve",), controllers=("pure_pursuit",),
            attacks=("gps_bias",), seeds=(1, 7), intensity=1.0,
            onset=5.0, duration=6.0, shard_points=1)
        path = spec.save(RunCache())
        assert main(["worker", "--grid-file", str(path),
                     "--worker-id", "cli-test"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["worker_id"] == "cli-test"
        assert report["shards_claimed"] == 2
        assert report["points_executed"] == 2
        assert RunCache().stats()["entries"] == 2

    def test_worker_missing_spec_is_actionable(self, fresh_cache, capsys):
        assert main(["worker", "--grid-file", "/nope/missing.json"]) == 2
        assert "cannot read grid spec" in capsys.readouterr().err

    def test_cache_stats_report_lease_health(self, fresh_cache, capsys):
        import json
        import time

        from repro.experiments.cache import RunCache
        from repro.experiments.distributed import GridSpec, ShardBoard

        spec = GridSpec.build(
            scenarios=("s_curve",), controllers=("pure_pursuit",),
            attacks=("gps_bias",), seeds=(1,), intensity=1.0,
            onset=5.0, duration=6.0, shard_points=1)
        board = ShardBoard(RunCache(), spec)
        board.ensure()
        board.lease_path(0).write_text(json.dumps(
            {"owner": "corpse", "heartbeat": time.time() - 99999.0}))
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "leases     : 0 active, 1 stale" in out
        assert "shards     : 1 board(s), 0 orphaned" in out
        assert "conflicts  : 0 lease event(s)" in out
