"""E6 / Figure 3 — attack-intensity sweep: detectability vs. harm.

Sweeps the attack magnitude knob and reports, per intensity: detection
rate, median detection latency, and the behavioural damage (max |cte|).
Expected crossover: consistency assertions detect attacks at intensities
well below the point where the vehicle's behaviour is materially harmed —
the core argument for redundancy-based assertions.
"""

from __future__ import annotations

import statistics

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_grid
from repro.experiments.tables import Table

__all__ = ["build_intensity_sweep"]

_HARM_CTE = 1.5  # meters: materially off-lane


def build_intensity_sweep(config: ExperimentConfig | None = None) -> Table:
    """Detection rate and damage vs. attack intensity."""
    config = config or ExperimentConfig.full()
    table = Table(
        title=f"Figure 3 (E6): intensity sweep (scenario={config.scenario}, "
              "controller=pure_pursuit)",
        columns=["attack", "intensity", "detect rate", "median latency [s]",
                 "mean max|cte| [m]", "harmed rate"],
    )

    for attack in config.sweep_attacks:
        for intensity in config.sweep_intensities:
            runs = run_grid(
                scenarios=(config.scenario,),
                controllers=("pure_pursuit",),
                attacks=(attack,),
                seeds=config.seeds,
                intensity=intensity,
                onset=config.attack_onset,
                duration=config.duration,
            )
            latencies = []
            detected = harmed = 0
            damages = []
            for run in runs:
                onset = run.result.trace.attack_onset()
                lat = (run.report.detection_latency(onset)
                       if onset is not None else None)
                if lat is not None:
                    detected += 1
                    latencies.append(lat)
                damage = run.result.metrics.max_abs_cte
                damages.append(damage)
                if damage > _HARM_CTE:
                    harmed += 1
            n = len(runs)
            table.add_row(
                attack,
                intensity,
                f"{detected}/{n}",
                f"{statistics.median(latencies):.1f}" if latencies else "-",
                statistics.mean(damages),
                f"{harmed}/{n}",
            )
    table.add_note(f"harmed = max|cte| exceeds {_HARM_CTE} m; the detection "
                   "threshold should sit at lower intensity than the harm "
                   "threshold.")
    return table


def main() -> None:
    print(build_intensity_sweep().render())


if __name__ == "__main__":
    main()
