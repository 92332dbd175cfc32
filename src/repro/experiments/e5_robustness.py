"""E5 / Table 4 — controller robustness comparison under attack.

Runs every lateral controller against every attack class and reports the
behavioural damage (max |cte|, divergence, goal outcome) plus how many
assertions fired.  Expected shape: damage varies by controller for
actuation/latency attacks, but sensor attacks hit all controllers through
the shared estimator — the methodology's argument for debugging the whole
loop rather than the control law in isolation.
"""

from __future__ import annotations

import statistics

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_grid
from repro.experiments.tables import Table

__all__ = ["build_controller_robustness"]


def build_controller_robustness(
        config: ExperimentConfig | None = None) -> Table:
    """Controller x attack behavioural damage and assertion coverage."""
    config = config or ExperimentConfig.full()
    scenario = config.trace_scenarios[-1] if config.trace_scenarios else "s_curve"
    runs = run_grid(
        scenarios=(scenario,),
        controllers=config.controllers,
        attacks=("none",) + tuple(config.attacks),
        seeds=(config.seeds[0],),
        onset=config.attack_onset,
        duration=config.duration,
    )

    table = Table(
        title=f"Table 4 (E5): controller robustness under attack "
              f"(scenario={scenario}, seed={config.seeds[0]})",
        columns=["attack", "controller", "max |cte| [m]", "rms cte [m]",
                 "goal", "diverged", "# fired", "detected"],
    )

    for attack in ("none",) + tuple(config.attacks):
        for controller in config.controllers:
            matching = [
                r for r in runs
                if r.attack == attack and r.controller == controller
            ]
            assert len(matching) == 1
            run = matching[0]
            m = run.result.metrics
            onset = run.result.trace.attack_onset()
            detected = (
                run.report.any_fired if onset is None
                else run.report.detection_latency(onset) is not None
            )
            table.add_row(
                attack,
                controller,
                m.max_abs_cte,
                m.rms_cte,
                m.goal_reached,
                run.result.outcome.diverged,
                len(run.report.fired_ids),
                detected,
            )

    # Aggregate: per-controller damage across all attacks.
    table.add_note("per-controller mean of max|cte| across attacks: " + ", ".join(
        f"{ctrl}="
        f"{statistics.mean(r.result.metrics.max_abs_cte for r in runs if r.controller == ctrl and r.attack != 'none'):.2f} m"
        for ctrl in config.controllers
    ))
    return table


def main() -> None:
    print(build_controller_robustness().render())


if __name__ == "__main__":
    main()
