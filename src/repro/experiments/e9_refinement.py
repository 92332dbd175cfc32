"""E9 / Figure 5 — the methodology refinement loop converges.

Runs the staged catalog over an anomaly corpus (every attack class, several
seeds) and reports, per refinement iteration, how many anomalies remain
undetected or undiagnosed.  Expected shape: a monotone decrease — each
stage of assertions authored in response to gaps closes them.
"""

from __future__ import annotations

from repro.core.methodology import AnomalyCase, RefinementLoop
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_grid
from repro.experiments.tables import Table

__all__ = ["build_gap_proposals", "build_refinement_loop"]


def build_refinement_loop(config: ExperimentConfig | None = None,
                          propose_gaps: bool = False):
    """Gap counts per methodology iteration (staged catalog growth).

    With ``propose_gaps=True``, returns ``[loop_table, proposals_table]``:
    the second table runs the counterfactual separation-gap detector over
    the cases that stay ambiguous after the final iteration, automating
    the "author a separating assertion" step the loop otherwise leaves to
    a human (see :func:`build_gap_proposals`).
    """
    config = config or ExperimentConfig.full()
    runs = run_grid(
        scenarios=(config.scenario,),
        controllers=("pure_pursuit",),
        attacks=tuple(config.attacks),
        seeds=config.seeds,
        onset=config.attack_onset,
        duration=config.duration,
    )
    corpus = [AnomalyCase(trace=r.result.trace, true_cause=r.attack,
                          report=r.report)
              for r in runs]
    iterations = RefinementLoop(corpus).run()

    table = Table(
        title="Figure 5 (E9): methodology refinement loop "
              f"({len(corpus)} anomaly cases, scenario={config.scenario})",
        columns=["iteration", "stage added", "# assertions", "undetected",
                 "undiagnosed", "diagnosed", "ambiguous"],
    )
    for i, iteration in enumerate(iterations, start=1):
        ambiguous = sum(1 for g in iteration.gaps if g.ambiguous)
        table.add_row(
            i,
            iteration.stage_names[-1],
            len(iteration.assertion_ids),
            iteration.undetected,
            iteration.undiagnosed,
            f"{iteration.diagnosed}/{iteration.total}",
            ambiguous,
        )
    table.add_note("undiagnosed = undetected OR wrongly ranked root cause; "
                   "stages accumulate left to right.")
    if not propose_gaps:
        return table
    proposals = build_gap_proposals(config, runs, iterations[-1])
    return [table, proposals]


def build_gap_proposals(config: ExperimentConfig, runs,
                        final_iteration) -> Table:
    """E9 addendum: counterfactual separation gaps after the last stage.

    For every case still ambiguous under the full catalog, the
    counterfactual tie-breaker re-simulates the confused cause pair; when
    even the simulated signatures fail to separate
    (:class:`~repro.experiments.counterfactual.SeparationGap`), the case
    is a genuine catalog gap and the proposed separating assertions are
    the refinement loop's next authoring targets.
    """
    from repro.experiments.counterfactual import counterfactual_tiebreak

    table = Table(
        title="E9 addendum: counterfactual separation of remaining "
              "ambiguous cases",
        columns=["true cause", "confused with", "re-ranked top",
                 "separable", "proposed separating assertions"],
    )
    # runs and final_iteration.gaps are corpus-aligned (one gap per case).
    for run, gap_info in zip(runs, final_iteration.gaps):
        if not gap_info.ambiguous:
            continue
        diagnosis, gap = counterfactual_tiebreak(
            run, onset=config.attack_onset, duration=config.duration)
        table.add_row(
            gap_info.true_cause,
            gap_info.top_cause,
            diagnosis.top().cause,
            "no — GAP" if gap is not None else "yes",
            ", ".join(gap.proposed) if gap is not None else "-",
        )
    if not table.rows:
        table.add_note("no case stayed ambiguous after the final stage")
    table.add_note("a non-separable pair means the catalog lacks a "
                   "distinguishing assertion even under re-simulation; "
                   "proposals feed the next refinement iteration.")
    return table


def main() -> None:
    print(build_refinement_loop().render())


if __name__ == "__main__":
    main()
