"""ADAssure reproduction: assertion-based debugging for AD control algorithms.

The package reproduces *ADAssure: Debugging Methodology for Autonomous
Driving Control Algorithms* (Roberts et al., DATE 2024 ASD initiative).
See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reconstructed evaluation.

Quickstart::

    from repro import run_scenario, standard_scenarios, standard_attack
    from repro.core import default_catalog, check_trace, diagnose

    scenario = standard_scenarios(seed=7)["s_curve"]
    result = run_scenario(scenario, controller="pure_pursuit",
                          campaign=standard_attack("gps_drift"))
    report = check_trace(result.trace, default_catalog())
    ranking = diagnose(report)
    print(ranking.top().cause)
"""

from repro._lazy import lazy_exports

# 1.2: columnar trace backend + vectorized assertion checking; the run
# cache moves to the binary trace format (cache layout v2 — older
# entries live under a separate root and are simply not found).
# 1.4: scheduler/executor/result-store split (cache keys and checkpoint
# manifests embed this version).
# 1.7: binary trace format 2 (cache layout v3, protocol 2).
# 1.8: hinted route projection wraps its window across a closed route's
# seam instead of scanning every segment (a simulation semantics change,
# so cached 1.7 runs are misses).
__version__ = "1.8.0"

__all__ = [
    "run_scenario",
    "standard_scenarios",
    "acc_scenario",
    "Scenario",
    "RunResult",
    "standard_attack",
    "combined_attack",
    "make_attack",
    "AttackCampaign",
    "standard_fault",
    "combined_fault",
    "make_fault",
    "FaultCampaign",
    "Trace",
    "compute_metrics",
    "diff_traces",
    "__version__",
]

__getattr__ = lazy_exports(__name__, {
    ".attacks.campaign": (
        "AttackCampaign", "combined_attack", "make_attack", "standard_attack",
    ),
    ".faults.campaign": (
        "FaultCampaign", "combined_fault", "make_fault", "standard_fault",
    ),
    ".sim.engine": ("RunResult", "run_scenario"),
    ".sim.scenario": ("Scenario", "acc_scenario", "standard_scenarios"),
    ".trace.diff": ("diff_traces",),
    ".trace.metrics": ("compute_metrics",),
    ".trace.schema": ("Trace",),
})
