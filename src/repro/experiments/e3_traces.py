"""E3 / Figure 2 — anomaly time series: nominal vs. GPS-spoofed runs.

Regenerates the paper-style figure as a downsampled text series: ground
truth cross-track error over time, per controller, with and without the
GPS drift attack.  The qualitative shape to reproduce: the attacked curve
departs from the nominal band shortly after onset and keeps growing, for
every controller — the estimator, not the controller, is the weak point.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.ascii_plot import sparkline
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_grid
from repro.experiments.tables import Table

__all__ = ["build_anomaly_traces"]

_SAMPLE_EVERY_S = 2.0
_ATTACK = "gps_drift"


def build_anomaly_traces(
        config: ExperimentConfig | None = None) -> list[Table]:
    """One table per scenario: |cte|(t) series, nominal vs. attacked."""
    config = config or ExperimentConfig.full()
    tables = []
    for scenario in config.trace_scenarios:
        runs = run_grid(
            scenarios=(scenario,),
            controllers=config.controllers,
            attacks=("none", _ATTACK),
            seeds=(config.seeds[0],),
            onset=config.attack_onset,
            duration=config.duration,
        )
        columns = ["t [s]"]
        for controller in config.controllers:
            columns += [f"{controller} nom", f"{controller} atk"]
        table = Table(
            title=f"Figure 2 (E3): |cross-track error| over time, nominal vs "
                  f"{_ATTACK} (scenario={scenario}, onset t="
                  f"{config.attack_onset:.0f}s)",
            columns=columns,
        )

        series: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
        t_max = 0.0
        for run in runs:
            t = run.result.trace.times()
            cte = np.abs(run.result.trace.column("cte_true"))
            series[(run.controller, run.attack)] = (t, cte)
            t_max = max(t_max, float(t[-1]))

        sample_times = np.arange(0.0, t_max + 1e-9, _SAMPLE_EVERY_S)
        for ts in sample_times:
            row: list[object] = [f"{ts:.0f}"]
            for controller in config.controllers:
                for attack in ("none", _ATTACK):
                    t, cte = series[(controller, attack)]
                    idx = int(np.searchsorted(t, ts))
                    if idx >= len(t):
                        row.append("-")
                    else:
                        row.append(f"{cte[idx]:.2f}")
            table.add_row(*row)
        table.add_note("values are |cte| in meters sampled every "
                       f"{_SAMPLE_EVERY_S:.0f} s; '-' = run already ended.")
        # Compact figure view: one sparkline per run, shared scale.
        all_cte = [cte for (_, cte) in series.values()]
        hi = max(float(np.max(c)) for c in all_cte)
        for controller in config.controllers:
            for attack in ("none", _ATTACK):
                __, cte = series[(controller, attack)]
                label = f"{controller} {'nominal ' if attack == 'none' else 'attacked'}"
                table.add_note(
                    f"{label:<24} |cte| 0..{hi:.1f} m  "
                    f"{sparkline(cte[::20], lo=0.0, hi=hi)}"
                )
        tables.append(table)
    return tables


def main() -> None:
    for table in build_anomaly_traces():
        print(table.render())
        print()


if __name__ == "__main__":
    main()
