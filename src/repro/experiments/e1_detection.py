"""E1 / Table 1 — assertion catalog detection matrix.

For each standard attack class, which assertions fire?  The paper's
headline qualitative claim: every attack class is caught by at least one
assertion, and the consistency family localizes the lying channel while
the behaviour family only reports that *something* went wrong.
"""

from __future__ import annotations

from repro.core.catalog import CATALOG_IDS
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_grid
from repro.experiments.tables import Table

__all__ = ["build_detection_matrix"]


def build_detection_matrix(config: ExperimentConfig | None = None) -> Table:
    """Attack-class (rows) x assertion (columns) firing matrix.

    A cell shows the fraction of seeds in which the assertion fired after
    attack onset ('.' = never, 'X' = always).
    """
    config = config or ExperimentConfig.full()
    runs = run_grid(
        scenarios=(config.scenario,),
        controllers=("pure_pursuit",),
        attacks=("none",) + tuple(config.attacks),
        seeds=config.seeds,
        onset=config.attack_onset,
        duration=config.duration,
    )

    table = Table(
        title="Table 1 (E1): detection matrix — which assertions fire per attack "
              f"(scenario={config.scenario}, controller=pure_pursuit, "
              f"{len(config.seeds)} seed(s))",
        columns=["attack", "detected"] + list(CATALOG_IDS),
    )
    by_attack: dict[str, list] = {}
    for run in runs:
        by_attack.setdefault(run.attack, []).append(run)

    for attack in ("none",) + tuple(config.attacks):
        group = by_attack[attack]
        detected = 0
        fire_counts = {aid: 0 for aid in CATALOG_IDS}
        for run in group:
            onset = run.result.trace.attack_onset()
            if attack == "none":
                if run.report.any_fired:
                    detected += 1
                for aid in run.report.fired_ids:
                    fire_counts[aid] += 1
            else:
                if onset is not None and run.report.detection_latency(onset) is not None:
                    detected += 1
                for aid in CATALOG_IDS:
                    if onset is not None and (
                        run.report.detection_latency(onset, aid) is not None
                    ):
                        fire_counts[aid] += 1
        n = len(group)
        cells = []
        for aid in CATALOG_IDS:
            frac = fire_counts[aid] / n
            cells.append("X" if frac == 1.0 else "." if frac == 0.0 else f"{frac:.1f}")
        table.add_row(attack, f"{detected}/{n}", *cells)

    table.add_note("X = fired for every seed, . = never fired; "
                   "fractions are per-seed firing rates after attack onset.")
    table.add_note("'none' row shows false positives over the full run.")
    return table


def main() -> None:
    print(build_detection_matrix().render())


if __name__ == "__main__":
    main()
