"""E8 / Table 5 — assertion-set ablation for diagnosis accuracy.

Re-diagnoses the same attacked traces with growing subsets of the catalog
(behaviour-only, +GPS consistency, +inertial/innovation, full).  Expected
shape: behaviour-only assertions *detect* most attacks but barely
*diagnose* them (every attack looks like "the car left the lane");
each consistency family added disambiguates the attacks on its channel.
"""

from __future__ import annotations

from repro.core.catalog import CATALOG_STAGES
from repro.core.diagnosis import diagnose
from repro.core.knowledge import default_knowledge_base
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_grid
from repro.experiments.tables import Table

__all__ = ["build_assertion_ablation"]


def build_assertion_ablation(config: ExperimentConfig | None = None) -> Table:
    """Diagnosis accuracy per cumulative catalog stage."""
    config = config or ExperimentConfig.full()
    runs = run_grid(
        scenarios=(config.scenario,),
        controllers=("pure_pursuit",),
        attacks=tuple(config.attacks),
        seeds=config.seeds,
        onset=config.attack_onset,
        duration=config.duration,
    )
    kb = default_knowledge_base()

    table = Table(
        title="Table 5 (E8): assertion-set ablation "
              f"(scenario={config.scenario}, {len(runs)} attacked runs)",
        columns=["assertion set", "# assertions", "detected", "top-1", "top-2"],
    )

    active_ids: list[str] = []
    active_stages: list[str] = []
    for stage_name, ids in CATALOG_STAGES.items():
        active_ids.extend(ids)
        active_stages.append(stage_name)
        subset = tuple(active_ids)
        sub_kb = kb.restricted(frozenset(subset))
        detected = top1 = top2 = 0
        for run in runs:
            # The grid run's full-catalog report, projected onto the
            # stage: identical to re-checking with the subset.
            report = run.report.restricted(subset)
            onset = run.result.trace.attack_onset()
            det = (onset is not None
                   and report.detection_latency(onset) is not None)
            detected += det
            if not det:
                continue
            result = diagnose(report, sub_kb)
            rank = result.rank_of(run.attack)
            if rank == 1:
                top1 += 1
            if rank is not None and rank <= 2:
                top2 += 1
        n = len(runs)
        table.add_row(
            "+".join(active_stages),
            len(subset),
            f"{detected}/{n}",
            f"{top1}/{n}",
            f"{top2}/{n}",
        )
    table.add_note("stages are cumulative; diagnosis uses the knowledge base "
                   "restricted to the evaluated assertions.")
    return table


def main() -> None:
    print(build_assertion_ablation().render())


if __name__ == "__main__":
    main()
