"""E4 / Table 3 — root-cause diagnosis accuracy.

For every attacked run, the diagnosis engine ranks candidate causes from
the assertion evidence; this table scores top-1 and top-2 accuracy against
the injected ground truth, per attack class.  Expected shape: high top-1
overall, with residual confusion concentrated in attack pairs that share
channel signatures.

With ``counterfactual=True``, ambiguous rankings (top cause not
confidently separated from the runner-up) are re-tested by simulating
each head candidate as a hypothesis and preferring the one whose actual
signature matches the observed evidence
(:func:`~repro.experiments.counterfactual.counterfactual_tiebreak`) —
the causal layer acting as E4's tie-breaker.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_grid
from repro.experiments.tables import Table

__all__ = ["build_diagnosis_accuracy"]


def build_diagnosis_accuracy(config: ExperimentConfig | None = None,
                             counterfactual: bool = False,
                             probe_budget: int = 8) -> Table:
    """Per-attack top-1/top-2 diagnosis accuracy plus common confusion."""
    config = config or ExperimentConfig.full()
    scenarios = (config.scenario,) + tuple(config.trace_scenarios[:1])
    runs = run_grid(
        scenarios=scenarios,
        controllers=("pure_pursuit",),
        attacks=tuple(config.attacks),
        seeds=config.seeds,
        onset=config.attack_onset,
        duration=config.duration,
    )

    tiebreaks = 0
    diagnoses = {}
    for run in runs:
        diagnosis = run.diagnosis
        if counterfactual and diagnosis.ambiguous:
            from repro.experiments.counterfactual import (
                counterfactual_tiebreak,
            )
            diagnosis, _gap = counterfactual_tiebreak(
                run, onset=config.attack_onset, duration=config.duration,
                budget=probe_budget)
            tiebreaks += 1
        diagnoses[id(run)] = diagnosis

    table = Table(
        title="Table 3 (E4): root-cause diagnosis accuracy "
              f"(scenarios={'/'.join(scenarios)}, controller=pure_pursuit, "
              f"{len(config.seeds)} seed(s))",
        columns=["attack", "runs", "top-1", "top-2", "mean posterior",
                 "most common confusion"],
    )

    by_attack: dict[str, list] = {}
    for run in runs:
        by_attack.setdefault(run.attack, []).append(run)

    total_runs = total_top1 = total_top2 = 0
    for attack in config.attacks:
        group = by_attack[attack]
        top1 = top2 = 0
        posteriors = []
        confusions: list[str] = []
        for run in group:
            diagnosis = diagnoses[id(run)]
            rank = diagnosis.rank_of(attack)
            if rank == 1:
                top1 += 1
            else:
                confusions.append(diagnosis.top().cause)
            if rank is not None and rank <= 2:
                top2 += 1
            for d in diagnosis.ranking:
                if d.cause == attack:
                    posteriors.append(d.posterior)
                    break
        n = len(group)
        total_runs += n
        total_top1 += top1
        total_top2 += top2
        confusion = (
            max(set(confusions), key=confusions.count) if confusions else "-"
        )
        table.add_row(
            attack, n, f"{top1}/{n}", f"{top2}/{n}",
            f"{sum(posteriors) / len(posteriors):.2f}" if posteriors else "-",
            confusion,
        )
    table.add_row(
        "TOTAL", total_runs,
        f"{total_top1}/{total_runs} ({100.0 * total_top1 / total_runs:.0f}%)",
        f"{total_top2}/{total_runs} ({100.0 * total_top2 / total_runs:.0f}%)",
        "-", "-",
    )
    if counterfactual:
        table.add_note(
            f"counterfactual tie-break applied to {tiebreaks} ambiguous "
            "run(s) (see docs/counterfactual.md)")
    return table


def main() -> None:
    print(build_diagnosis_accuracy().render())


if __name__ == "__main__":
    main()
