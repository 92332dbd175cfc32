"""``--stats`` accounting for explanations: no phase goes uncounted.

A cold explanation batch-simulates its speculative probe lanes through
``ProbeEngine.prefetch``; that time belongs to ``simulate``, and the
record's wall time must cover every phase it reports.
"""

from __future__ import annotations

import pytest

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


def test_warm_explanation_simulates_nothing(fresh_store):
    _explain()
    clear_cache()
    STATS.reset()
    _explain()
    stats = STATS.last
    assert stats.executed == 0
    assert stats.phase_time["simulate"] == 0.0
    assert stats.wall_time > 0.0
