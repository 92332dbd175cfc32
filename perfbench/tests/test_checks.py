"""Each output check fails when the output is deliberately altered."""

import dataclasses
import json

import pytest

from perfbench import checks, run, workloads


def _campaign_stdout(e3_value="0.42", e7_value="12.5"):
    lines = []
    for i in range(1, 15):
        kind = "Figure" if i in (3, 6, 7, 9) else "Table"
        lines.append(f"{kind} {i} (E{i}): experiment {i}")
        lines.append("=" * 20)
        value = {3: e3_value, 7: e7_value}.get(i, str(i))
        lines.append(f"row | {value}")
        lines.append("")
    lines.append("-- campaign stats (28 grid call(s)) --")
    lines.append("grid points : 121  (executed 70, memo hits 51)")
    lines.append("wall time   : 28.16s")
    return "\n".join(lines) + "\n"


def test_campaign_digest_detects_an_altered_table():
    pinned = checks.campaign_digest(_campaign_stdout())
    altered = checks.campaign_digest(_campaign_stdout(e3_value="0.43"))
    with pytest.raises(checks.CheckFailed):
        checks.check_equal("table digest", altered, pinned)


def test_campaign_digest_ignores_e7_and_stats():
    pinned = checks.campaign_digest(_campaign_stdout())
    stdout = _campaign_stdout(e7_value="99.9").replace("28.16s", "31.02s")
    assert checks.campaign_digest(stdout) == pinned


def test_campaign_digest_fails_on_a_missing_table():
    stdout = _campaign_stdout().replace("Table 13 (E13)", "Table 13 (E99)")
    with pytest.raises(checks.CheckFailed, match="E13"):
        checks.campaign_digest(stdout)


def test_campaign_counts_read_quarantine():
    stdout = _campaign_stdout()
    assert checks.campaign_counts(stdout) == (121, 0)
    stdout += "quarantined : 2 point(s)\n"
    assert checks.campaign_counts(stdout) == (121, 2)
    with pytest.raises(checks.CheckFailed):
        checks.campaign_counts("no stats here")


@dataclasses.dataclass
class _Window:
    start: float
    end: float


@dataclasses.dataclass
class _Report:
    fired: tuple = ("A1",)
    violated: tuple = ("A1", "A3")
    necessary: bool = True
    background: tuple = ()
    window: _Window = dataclasses.field(
        default_factory=lambda: _Window(20.0, 24.0))
    channels: tuple = ("gps_drift",)
    magnitude: float = 0.25
    margin_deltas: dict = dataclasses.field(
        default_factory=lambda: {"A1": (-2.21, 0.55)})
    probes: int = 13
    minimal_verified: bool = True


def test_explain_projection_digest_detects_an_altered_field():
    pinned = checks.digest(checks.report_projection(_Report()))
    assert checks.digest(checks.report_projection(_Report())) == pinned
    for change in ({"magnitude": 0.1875}, {"window": _Window(20.0, 28.0)},
                   {"margin_deltas": {"A1": (-2.21, 0.56)}}):
        altered = checks.digest(
            checks.report_projection(dataclasses.replace(_Report(), **change)))
        with pytest.raises(checks.CheckFailed):
            checks.check_equal("projection digest", altered, pinned)


def test_every_seed_of_the_pools_is_pinned():
    pins = checks.expected()
    assert {str(s) for s in workloads.EXPLAIN_SEEDS} <= set(pins["explain"])
    assert {str(s) for s in workloads.CAMPAIGN_SEEDS} <= set(pins["campaign"])


def test_serve_verdict_check_detects_altered_or_missing_verdicts():
    want = checks.wire_form({"n_records": 400, "any_fired": True,
                             "report": {"violations": [(1.0, "A1")]},
                             "top_cause": "gps_bias"})
    checks.check_verdict("s1", json.loads(json.dumps(want)), want)
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict("s1", {**want, "top_cause": "imu_bias"}, want)
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict("s1", None, want)


def test_a_failed_check_fails_the_run(tmp_path, monkeypatch, capsys):
    root = tmp_path / "checkout"
    (root / "src" / "repro").mkdir(parents=True)
    (root / "src" / "repro" / "__init__.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "cold_s", "unit": "s"}], "per_layer": []}))
    monkeypatch.chdir(root)

    def altered(ctx):
        raise checks.CheckFailed("table digest differs")

    monkeypatch.setitem(workloads.WORKLOADS, "campaign", altered)
    assert run.main(["--workload", "campaign", "--seed", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert not (root / ".perfbench-work").exists() or not any(
        (root / ".perfbench-work").iterdir())


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "serve"]) == 2
