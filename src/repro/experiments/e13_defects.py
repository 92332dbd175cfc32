"""E13 (extension) — debugging controller implementation defects.

The other half of "debugging AD control algorithms": not attacks but
shipped regressions.  Each classic controller bug (gain error, sign flip,
stale input, deadband, saturation) is injected into the Pure Pursuit
tracker; the catalog checks the run and the *defect* knowledge base ranks
the regression classes.

Expected shape: every defect detected with a distinct dominant signature
(A11 for gain, behavioural collapse for sign flip, A20 for deadband), and
high top-1 identification within the regression hypothesis set.  The
deadband row documents a methodology success story: the original catalog
missed it, and A20 was authored in response (see catalog docstring).
"""

from __future__ import annotations

import functools

from repro.control.defects import DEFECT_CLASSES, make_defect
from repro.core.diagnosis import diagnose
from repro.core.knowledge import defect_knowledge_base
from repro.experiments.config import ExperimentConfig
from repro.experiments.plan import ProbePlan
from repro.experiments.tables import Table
from repro.sim.engine import LaneSpec, lane_spec
from repro.sim.scenario import standard_scenarios

__all__ = ["build_defect_debugging", "DEFECT_PARAMS"]

DEFECT_PARAMS: dict[str, dict] = {
    "ctrl_gain_error": {"factor": 7.0},
    "ctrl_sign_flip": {},
    "ctrl_stale_input": {"delay_steps": 16},
    "ctrl_deadband": {"threshold": 0.12},
    "ctrl_saturation": {"limit": 0.02},
}
"""Injected magnitudes (chosen as realistic regression sizes)."""

_SCENARIO = "s_curve"


def _spec(defect_name: str | None, seed: int) -> LaneSpec:
    """Pure Pursuit with ``defect_name`` injected (``None``: the healthy
    tracker).  Full scenario duration always: truncating the run would
    fire the A15 liveness check for the wrong reason (goal unreachable in
    time)."""
    scenario = standard_scenarios(seed=seed)[_SCENARIO]
    defect = (None if defect_name is None
              else make_defect(defect_name, **DEFECT_PARAMS[defect_name]))
    return lane_spec(scenario, "pure_pursuit", defect=defect)


def build_defect_debugging(config: ExperimentConfig | None = None) -> Table:
    """Defect detection + identification table.

    The defect x seed sweep is declared up front to a
    :class:`~repro.experiments.plan.ProbePlan` — defective controllers
    are not vectorizable, so these run as per-lane *object* lanes inside
    the lockstep batch, still one simulation pass per compatible group —
    and commits through the shared params-keyed cache, so repeated
    campaigns re-simulate nothing.
    """
    config = config or ExperimentConfig.full()
    kb = defect_knowledge_base()
    table = Table(
        title="Table 9 (E13, extension): controller-defect debugging "
              f"(scenario={_SCENARIO}, controller=pure_pursuit, "
              f"{len(config.seeds)} seed(s))",
        columns=["defect", "max|cte| [m]", "detected", "top-1 correct",
                 "dominant assertions"],
    )

    plan = ProbePlan()
    sweep: dict[tuple, object] = {}
    for defect_name in [None] + list(DEFECT_CLASSES):
        for seed in config.seeds:
            sweep[(defect_name, seed)] = plan.plan_scored(
                {"kind": "defect", "defect": defect_name or "none",
                 "defect_params": DEFECT_PARAMS.get(defect_name, {}),
                 "scenario": _SCENARIO, "seed": seed},
                functools.partial(_spec, defect_name, seed),
                group=(_SCENARIO, None),
            )

    for defect_name in [None] + list(DEFECT_CLASSES):
        detected = correct = 0
        damages = []
        fired_union: set[str] = set()
        for seed in config.seeds:
            result, report = sweep[(defect_name, seed)].result()
            ranking = diagnose(report, kb)
            truth = defect_name or "none"
            if truth == "none":
                detected += report.any_fired
            else:
                detected += report.any_fired
            correct += ranking.top().cause == truth
            damages.append(result.metrics.max_abs_cte)
            fired_union.update(report.fired_ids)
        n = len(config.seeds)
        table.add_row(
            defect_name or "none",
            max(damages),
            f"{detected}/{n}" + (" (FPs)" if defect_name is None else ""),
            f"{correct}/{n}",
            ",".join(sorted(fired_union)) or "-",
        )
    table.add_note("diagnosis runs against the regression hypothesis set "
                   "(defect_knowledge_base), the developer's debugging "
                   "context; A20 was authored to close the deadband gap.")
    return table


def main() -> None:
    print(build_defect_debugging().render())


if __name__ == "__main__":
    main()
