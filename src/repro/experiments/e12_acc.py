"""E12 (extension) — debugging the ACC car-following stack.

Applies the full ADAssure loop to the longitudinal/radar half of the
vehicle: the constant-time-gap ACC follows a slowing lead while radar
spoofing (scale / ghost / blinding) corrupts its only input.  Reports the
safety outcome (minimum gap and headway), detection, and diagnosis per
attack.

Expected shape: the radar self-consistency assertions (A18/A19) catch the
spoofs at onset; blinding is only visible behaviourally (A17) once the
lead actually brakes — and the naive hold-last-track ACC implementation
drives the gap to (near) zero, which is exactly the kind of
implementation defect the methodology is built to expose.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.campaign import standard_attack
from repro.core.diagnosis import diagnose
from repro.experiments.config import ExperimentConfig
from repro.experiments.plan import ProbePlan
from repro.experiments.tables import Table
from repro.sim.engine import lane_spec
from repro.sim.scenario import acc_scenario

__all__ = ["build_acc_debugging", "RADAR_ATTACKS"]

RADAR_ATTACKS: tuple[str, ...] = ("radar_scale", "radar_ghost", "radar_blind")


def build_acc_debugging(config: ExperimentConfig | None = None) -> Table:
    """Radar-attack outcomes on the car-following scenario.

    The attack x seed sweep is declared up front to a
    :class:`~repro.experiments.plan.ProbePlan` (all runs share the
    ``acc_follow`` compatibility group, so a cold campaign drains as
    batch-engine lane groups) and commits through the shared
    params-keyed cache, so repeated campaigns re-simulate nothing.
    """
    config = config or ExperimentConfig.full()
    table = Table(
        title="Table 8 (E12, extension): ACC debugging under radar attacks "
              f"(acc_follow scenario, {len(config.seeds)} seed(s))",
        columns=["attack", "min gap [m]", "min headway [s]", "near collision",
                 "detected", "median latency [s]", "top-1 correct"],
    )

    plan = ProbePlan()
    sweep: dict[tuple, object] = {}
    for attack in ("none",) + RADAR_ATTACKS:
        for seed in config.seeds:
            scenario = acc_scenario(seed=seed)

            def spec(scenario=scenario, attack=attack):
                return lane_spec(scenario, campaign=standard_attack(
                    attack, onset=config.attack_onset))

            sweep[(attack, seed)] = plan.plan_scored(
                {"kind": "acc", "attack": attack, "seed": seed,
                 "onset": config.attack_onset},
                spec, group=("acc_follow", None),
            )

    for attack in ("none",) + RADAR_ATTACKS:
        min_gaps, headways, latencies = [], [], []
        near_collision = detected = correct = 0
        for seed in config.seeds:
            result, report = sweep[(attack, seed)].result()
            trace = result.trace
            gap = trace.column("gap_true")
            v = trace.column("true_v")
            moving = v > 2.0
            headway = np.min(gap[moving] / v[moving]) if moving.any() else np.inf
            min_gaps.append(float(np.min(gap)))
            headways.append(float(headway))
            near_collision += float(np.min(gap)) < 2.0

            if attack == "none":
                detected += report.any_fired
                correct += diagnose(report).top().cause == "none"
            else:
                lat = report.detection_latency(config.attack_onset)
                if lat is not None:
                    detected += 1
                    latencies.append(lat)
                correct += diagnose(report).top().cause == attack
        n = len(config.seeds)
        table.add_row(
            attack,
            min(min_gaps),
            min(headways),
            f"{near_collision}/{n}",
            f"{detected}/{n}" if attack != "none" else f"{detected}/{n} (FPs)",
            f"{float(np.median(latencies)):.1f}" if latencies else "-",
            f"{correct}/{n}",
        )
    table.add_note("near collision = ground-truth gap below 2 m; the "
                   "hold-last-track ACC under blinding is the implementation "
                   "defect the methodology surfaces.")
    return table


def main() -> None:
    print(build_acc_debugging().render())


if __name__ == "__main__":
    main()
