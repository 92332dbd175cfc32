"""``--stats`` accounting for explanations: no phase goes uncounted.

A cold explanation batch-simulates its speculative probe lanes through
``ProbeEngine.prefetch``; that time belongs to ``simulate``, and the
record's wall time must cover every phase it reports.  Its lanes share
their pre-onset prefix, so the batched line reports fewer lane-steps
simulated than requested.
"""

from __future__ import annotations

import pytest

from collections import OrderedDict

import repro.sim.batch.engine as batch_engine
from repro.experiments.counterfactual import explain
from repro.experiments.runner import clear_cache
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
