"""Experiment harness: regenerates every table/figure of the evaluation.

Each ``e<N>_*`` module rebuilds one reconstructed paper artifact (see
DESIGN.md's per-experiment index and EXPERIMENTS.md for measured outputs).
All experiments accept an :class:`~repro.experiments.config.ExperimentConfig`
so the benchmark suite can run them in a reduced *quick* mode while the CLI
reproduces the full-size tables.
"""

import sys
from collections.abc import Iterator, Mapping

from repro._lazy import lazy_exports

__all__ = [
    "ExperimentConfig",
    "Table",
    "run_grid",
    "GridRun",
    "RunCache",
    "cache_key",
    "clear_cache",
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

# Experiment id -> (defining module, builder name): the one table both
# the lazy exports and ALL_EXPERIMENTS read.
_BUILDERS = {
    "e1": (".e1_detection", "build_detection_matrix"),
    "e2": (".e2_latency", "build_latency_table"),
    "e3": (".e3_traces", "build_anomaly_traces"),
    "e4": (".e4_diagnosis", "build_diagnosis_accuracy"),
    "e5": (".e5_robustness", "build_controller_robustness"),
    "e6": (".e6_sweep", "build_intensity_sweep"),
    "e7": (".e7_overhead", "build_monitor_overhead"),
    "e8": (".e8_ablation", "build_assertion_ablation"),
    "e9": (".e9_refinement", "build_refinement_loop"),
    "e10": (".e10_mitigation", "build_mitigation_table"),
    "e11": (".e11_multi_attack", "build_multi_attack_table"),
    "e12": (".e12_acc", "build_acc_debugging"),
    "e13": (".e13_defects", "build_defect_debugging"),
    "e14": (".e14_degradation", "build_degradation_table"),
}

__getattr__ = lazy_exports(__name__, {
    ".backend": (
        "CacheResultStore", "ResultStore", "Run", "ScoredResultStore",
        "build_grid", "execute",
    ),
    ".cache": ("RunCache", "cache_key"),
    ".config": ("ExperimentConfig",),
    ".counterfactual": (
        "CausalReport", "Intervention", "ProbeEngine", "SeparationGap",
        "Subject", "counterfactual_tiebreak", "explain", "resolve_cache_key",
    ),
    ".runner": (
        "GridRun", "clear_cache", "run_grid", "set_memo_limit",
    ),
    ".stats": ("STATS", "GridStats"),
    ".tables": ("Table",),
    **{module: (name,) for module, name in _BUILDERS.values()},
})


class _Builders(Mapping):
    """Experiment id -> builder; a builder's module loads on lookup, so
    listing or validating ids imports no experiment."""

    def __getitem__(self, exp_id: str):
        return getattr(sys.modules[__name__], _BUILDERS[exp_id][1])

    def __contains__(self, exp_id) -> bool:
        return exp_id in _BUILDERS

    def __iter__(self) -> Iterator[str]:
        return iter(_BUILDERS)

    def __len__(self) -> int:
        return len(_BUILDERS)


ALL_EXPERIMENTS: Mapping = _Builders()
"""Experiment id -> builder, for the CLI and the benchmark suite.

``e1``-``e9`` reproduce the reconstructed paper evaluation; ``e10``-``e14``
are extensions (mitigation, concurrent attacks, ACC, controller defects,
fault-degradation) documented in EXPERIMENTS.md.
"""
