"""E10 (extension) — innovation-gated EKF as the mitigation ADAssure motivates.

The diagnosis experiments show spoofing is visible in the EKF innovations
long before behavioural harm; the natural hardening is to *gate* the
filter: reject any measurement whose NIS exceeds a chi-square threshold.
This experiment quantifies the defense: behavioural damage with and
without gating, per GPS attack class.

Expected shape: gating slashes damage for the attacks whose fixes are
individually implausible (bias/jump, noise, freeze — the filter coasts on
dead reckoning), while the slow drift still defeats the gate (each fix is
individually plausible) — confirming that runtime monitors and the A4-style
dead-reckoning assertion remain necessary.
"""

from __future__ import annotations

import functools
import statistics

from repro.attacks.campaign import standard_attack
from repro.control.estimator import EkfConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.plan import ProbePlan
from repro.experiments.tables import Table
from repro.sim.engine import lane_spec
from repro.sim.scenario import standard_scenarios

__all__ = ["build_mitigation_table"]

_GATE = 13.8  # chi-square, 2 dof, p ~ 0.001
_ATTACKS = ("gps_bias", "gps_drift", "gps_freeze", "gps_noise")


def build_mitigation_table(config: ExperimentConfig | None = None) -> Table:
    """Damage with vs. without the innovation gate, per GPS attack.

    The whole sweep is declared up front to a
    :class:`~repro.experiments.plan.ProbePlan` — all (attack, seed,
    gate) configurations share one scenario/duration compatibility
    group, so a cold campaign drains as batch-engine lane groups, and
    everything commits through the shared params-keyed cache so
    repeated campaigns re-simulate nothing.
    """
    config = config or ExperimentConfig.full()
    table = Table(
        title="Table 6 (E10, extension): innovation-gated EKF mitigation "
              f"(scenario={config.scenario}, gate NIS={_GATE})",
        columns=["attack", "max|cte| ungated [m]", "max|cte| gated [m]",
                 "damage ratio", "gated goal/progress ok"],
    )

    plan = ProbePlan()
    sweep: dict[tuple, tuple] = {}
    for attack in ("none",) + _ATTACKS:
        for seed in config.seeds:
            scenario = standard_scenarios(
                seed=seed, duration=config.duration)[config.scenario]
            params = {
                "kind": "mitigation", "scenario": config.scenario,
                "controller": "pure_pursuit", "attack": attack,
                "seed": seed, "onset": config.attack_onset,
                "duration": config.duration, "gate": None,
            }

            # Each spec builds its own campaign: the ungated and gated
            # runs of one seed can land in the same batch group, and
            # attack objects carry RNG streams / replay state that a
            # lane must not share with its neighbour.
            def spec(scenario=scenario, attack=attack, gate=None):
                return lane_spec(
                    scenario, campaign=standard_attack(
                        attack, onset=config.attack_onset),
                    ekf_config=None if gate is None else EkfConfig(
                        gate_nis=gate))

            sweep[(attack, seed)] = (
                plan.plan_scored(params, spec),
                plan.plan_scored(dict(params, gate=_GATE),
                                 functools.partial(spec, gate=_GATE)),
            )

    for attack in ("none",) + _ATTACKS:
        ungated, gated, ok = [], [], 0
        for seed in config.seeds:
            base_run, gated_run = sweep[(attack, seed)]
            base, _ = base_run.result()
            hardened, _ = gated_run.result()
            ungated.append(base.metrics.max_abs_cte)
            gated.append(hardened.metrics.max_abs_cte)
            ok += hardened.metrics.goal_reached
        mean_ungated = statistics.mean(ungated)
        mean_gated = statistics.mean(gated)
        ratio = mean_gated / mean_ungated if mean_ungated > 0 else 1.0
        table.add_row(
            attack, mean_ungated, mean_gated, f"{ratio:.2f}",
            f"{ok}/{len(config.seeds)}",
        )
    table.add_note("damage ratio < 1 means the gate helped; the slow drift "
                   "is expected to defeat the gate (each fix is plausible).")
    return table


def main() -> None:
    print(build_mitigation_table().render())


if __name__ == "__main__":
    main()
