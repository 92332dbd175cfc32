"""Golden tables: every quick experiment table but E7, byte for byte.

``tests/golden/*_quick.txt`` pin what each experiment measures end to
end (E7 is left out: it times the monitor on the wall clock).  E8, E9
and E14 were rendered before E8/E9 switched to projecting cached
full-catalog reports and E14's crash became a stored entry; E1-E6 and
E10-E13 before their runs were folded into one run description and one
execute path.  A second, memo-cold pass must render the same bytes from
the disk store alone, simulating nothing (E14's ``gps_nan`` crash
included).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.e1_detection import build_detection_matrix
from repro.experiments.e2_latency import build_latency_table
from repro.experiments.e3_traces import build_anomaly_traces
from repro.experiments.e4_diagnosis import build_diagnosis_accuracy
from repro.experiments.e5_robustness import build_controller_robustness
from repro.experiments.e6_sweep import build_intensity_sweep
from repro.experiments.e8_ablation import build_assertion_ablation
from repro.experiments.e9_refinement import build_refinement_loop
from repro.experiments.e10_mitigation import build_mitigation_table
from repro.experiments.e11_multi_attack import build_multi_attack_table
from repro.experiments.e12_acc import build_acc_debugging
from repro.experiments.e13_defects import build_defect_debugging
from repro.experiments.e14_degradation import build_degradation_table
from repro.experiments.runner import clear_cache
from repro.experiments.stats import STATS

GOLDEN = Path(__file__).parent / "golden"


def _render(output) -> str:
    tables = output if isinstance(output, list) else [output]
    return "\n\n".join(table.render() for table in tables) + "\n"


@pytest.mark.parametrize("name, build", [
    ("e1", build_detection_matrix),
    ("e2", build_latency_table),
    ("e3", build_anomaly_traces),
    ("e4", build_diagnosis_accuracy),
    ("e5", build_controller_robustness),
    ("e6", build_intensity_sweep),
    ("e8", build_assertion_ablation),
    ("e9", build_refinement_loop),
    ("e10", build_mitigation_table),
    ("e11", build_multi_attack_table),
    ("e12", build_acc_debugging),
    ("e13", build_defect_debugging),
    ("e14", build_degradation_table),
])
def test_quick_table_matches_golden(name, build):
    expected = (GOLDEN / f"{name}_quick.txt").read_text(encoding="utf-8")
    config = ExperimentConfig.quick()
    assert _render(build(config)) == expected

    clear_cache()  # memo only: the second pass reads the disk store
    STATS.reset()
    assert _render(build(config)) == expected
    assert STATS.total.executed == 0
