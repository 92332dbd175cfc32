"""``--stats`` accounting: no phase goes uncounted, no engine misreported.

A cold explanation batch-simulates its speculative probe lanes through
``ProbeEngine.prefetch``; that time belongs to ``simulate``, and the
record's wall time must cover every phase it reports.  Its lanes share
their pre-onset prefix, so the batched line reports fewer lane-steps
simulated than requested.

A campaign's engine line counts the executes that simulated, per
engine: no one call's choice stands for the whole campaign.
"""

from __future__ import annotations

import pytest

from collections import OrderedDict

import repro.sim.batch.engine as batch_engine
from repro.experiments.counterfactual import explain
from repro.experiments.runner import clear_cache, run_grid
from repro.experiments.stats import STATS


@pytest.fixture()
def fresh_store(tmp_path, monkeypatch):
    monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("ADASSURE_CACHE", raising=False)
    monkeypatch.delenv("ADASSURE_SIM", raising=False)
    clear_cache()
    yield tmp_path
    clear_cache()


def _explain():
    return explain("s_curve", "pure_pursuit", attack="gps_bias", onset=8.0,
                   seed=7, duration=20.0, resolution=2.0, budget=8)


def test_cold_explanation_counts_batch_simulation_and_wall(fresh_store):
    STATS.reset()
    assert _explain().violated
    stats = STATS.last
    assert stats.batch_points > 0  # the prefetch path actually ran
    assert stats.phase_time["simulate"] > 0.0
    assert stats.wall_time >= (stats.phase_time["simulate"]
                               + stats.phase_time["check"])
    assert "wall time   : 0.00s" not in STATS.render()


def test_cold_explanation_counts_lane_steps(fresh_store, monkeypatch):
    # An empty prefix memo, so no snapshot from an earlier test resumes.
    monkeypatch.setattr(batch_engine, "_PREFIX_MEMO", OrderedDict())
    STATS.reset()
    _explain()
    stats = STATS.last
    assert stats.batch_points == 33
    # 33 lanes x 400 steps requested.  One slot runs the shared prefix
    # until the first probe window opens; each lane runs on from its own
    # onset, and the clean lanes ride the slot to the end.
    assert stats.lane_steps_requested == 13200
    assert stats.lane_steps_simulated == 7040
    assert ("33 point(s) in 1 group(s), 0 fallback(s); "
            "7040 of 13200 lane-step(s) simulated") in STATS.render()


def test_warm_explanation_simulates_nothing(fresh_store):
    _explain()
    clear_cache()
    STATS.reset()
    _explain()
    stats = STATS.last
    assert stats.executed == 0
    assert stats.lane_steps_requested == stats.lane_steps_simulated == 0
    assert stats.phase_time["simulate"] == 0.0
    assert stats.wall_time > 0.0


def _grid(attacks):
    return run_grid(scenarios=("s_curve",), controllers=("pure_pursuit",),
                    attacks=attacks, seeds=(1,), onset=2.0, duration=5.0)


def test_campaign_engine_line_counts_executes_per_engine(fresh_store):
    STATS.reset()
    _grid(("none", "gps_bias"))  # two misses: batched
    _grid(("gps_drift",))        # one miss: serial
    assert STATS.total.engine_executes == {"batch": 1, "serial": 1}
    assert STATS.total.sim_engine == "mixed"
    assert ("engine      : batch in 1 execute(s), serial in 1 execute(s)"
            in STATS.render())


def test_warm_campaign_engine_line_says_nothing_was_simulated(fresh_store):
    _grid(("none", "gps_bias"))
    STATS.reset()
    _grid(("none", "gps_bias"))
    assert STATS.total.executed == 0
    assert STATS.total.engine_executes == {}
    assert ("engine      : none  (no execute had misses to simulate)"
            in STATS.render())


def test_single_simulating_execute_keeps_its_reason(fresh_store):
    STATS.reset()
    _grid(("none", "gps_bias"))
    _grid(("none", "gps_bias"))  # warm: adds no engine
    assert "engine      : batch  (auto: 2 pending run(s))" in STATS.render()
