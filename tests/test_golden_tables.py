"""Golden tables: E8, E9 and E14 at the quick config, byte for byte.

``tests/golden/*_quick.txt`` were rendered before E8/E9 switched to
projecting cached full-catalog reports and E14's crash became a stored
entry; any drift in what those experiments measure shows up here.  A
second, memo-cold pass must render the same bytes from the disk store
alone, simulating nothing (E14's ``gps_nan`` crash included).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.e8_ablation import build_assertion_ablation
from repro.experiments.e9_refinement import build_refinement_loop
from repro.experiments.e14_degradation import build_degradation_table
from repro.experiments.runner import clear_cache
from repro.experiments.stats import STATS

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, build", [
    ("e8", build_assertion_ablation),
    ("e9", build_refinement_loop),
    ("e14", build_degradation_table),
])
def test_quick_table_matches_golden(name, build):
    expected = (GOLDEN / f"{name}_quick.txt").read_text(encoding="utf-8")
    config = ExperimentConfig.quick()
    assert build(config).render() + "\n" == expected

    clear_cache()  # memo only: the second pass reads the disk store
    STATS.reset()
    assert build(config).render() + "\n" == expected
    assert STATS.total.executed == 0
