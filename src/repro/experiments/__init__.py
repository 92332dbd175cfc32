"""Experiment harness: regenerates every table/figure of the evaluation.

Each ``e<N>_*`` module rebuilds one reconstructed paper artifact (see
DESIGN.md's per-experiment index and EXPERIMENTS.md for measured outputs).
All experiments accept an :class:`~repro.experiments.config.ExperimentConfig`
so the benchmark suite can run them in a reduced *quick* mode while the CLI
reproduces the full-size tables.
"""

from repro.experiments.backend import (
    CacheResultStore,
    ResultStore,
    Run,
    ScoredResultStore,
    build_grid,
    execute,
)
from repro.experiments.cache import RunCache, cache_key
from repro.experiments.config import ExperimentConfig
from repro.experiments.counterfactual import (
    CausalReport,
    Intervention,
    ProbeEngine,
    SeparationGap,
    Subject,
    counterfactual_tiebreak,
    explain,
    resolve_cache_key,
)
from repro.experiments.runner import (
    GridRun,
    clear_cache,
    resolve_executor,
    run_grid,
    set_memo_limit,
)
from repro.experiments.stats import STATS, GridStats
from repro.experiments.tables import Table

from repro.experiments.e1_detection import build_detection_matrix
from repro.experiments.e2_latency import build_latency_table
from repro.experiments.e3_traces import build_anomaly_traces
from repro.experiments.e4_diagnosis import build_diagnosis_accuracy
from repro.experiments.e5_robustness import build_controller_robustness
from repro.experiments.e6_sweep import build_intensity_sweep
from repro.experiments.e7_overhead import build_monitor_overhead
from repro.experiments.e8_ablation import build_assertion_ablation
from repro.experiments.e9_refinement import build_refinement_loop
from repro.experiments.e10_mitigation import build_mitigation_table
from repro.experiments.e11_multi_attack import build_multi_attack_table
from repro.experiments.e12_acc import build_acc_debugging
from repro.experiments.e13_defects import build_defect_debugging
from repro.experiments.e14_degradation import build_degradation_table

__all__ = [
    "ExperimentConfig",
    "Table",
    "run_grid",
    "GridRun",
    "RunCache",
    "cache_key",
    "clear_cache",
    "resolve_executor",
    "set_memo_limit",
    "ResultStore",
    "CacheResultStore",
    "ScoredResultStore",
    "Run",
    "execute",
    "build_grid",
    "GridStats",
    "STATS",
    "CausalReport",
    "Intervention",
    "ProbeEngine",
    "SeparationGap",
    "Subject",
    "counterfactual_tiebreak",
    "explain",
    "resolve_cache_key",
    "build_detection_matrix",
    "build_latency_table",
    "build_anomaly_traces",
    "build_diagnosis_accuracy",
    "build_controller_robustness",
    "build_intensity_sweep",
    "build_monitor_overhead",
    "build_assertion_ablation",
    "build_refinement_loop",
    "build_mitigation_table",
    "build_multi_attack_table",
    "build_acc_debugging",
    "build_defect_debugging",
    "build_degradation_table",
]

ALL_EXPERIMENTS = {
    "e1": build_detection_matrix,
    "e2": build_latency_table,
    "e3": build_anomaly_traces,
    "e4": build_diagnosis_accuracy,
    "e5": build_controller_robustness,
    "e6": build_intensity_sweep,
    "e7": build_monitor_overhead,
    "e8": build_assertion_ablation,
    "e9": build_refinement_loop,
    "e10": build_mitigation_table,
    "e11": build_multi_attack_table,
    "e12": build_acc_debugging,
    "e13": build_defect_debugging,
    "e14": build_degradation_table,
}
"""Experiment id -> builder, for the CLI and the benchmark suite.

``e1``-``e9`` reproduce the reconstructed paper evaluation; ``e10``-``e14``
are extensions (mitigation, concurrent attacks, ACC, controller defects,
fault-degradation) documented in EXPERIMENTS.md.
"""
