"""E2 / Table 2 — detection latency per attack class.

Time from attack onset to the first assertion violation, overall and for
the fastest consistency vs. fastest behaviour assertion.  Expected shape:
cross-channel consistency assertions detect well before the behavioural
outcome assertions, because they do not wait for the vehicle to deviate.
"""

from __future__ import annotations

import statistics

from repro.core.catalog import CATALOG_IDS, make_assertion
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_grid
from repro.experiments.tables import Table

__all__ = ["build_latency_table"]

_CATEGORY_OF = {aid: make_assertion(aid).category for aid in CATALOG_IDS}


def build_latency_table(config: ExperimentConfig | None = None) -> Table:
    """Per-attack detection latency (median over seeds), split by family."""
    config = config or ExperimentConfig.full()
    runs = run_grid(
        scenarios=(config.scenario,),
        controllers=("pure_pursuit",),
        attacks=tuple(config.attacks),
        seeds=config.seeds,
        onset=config.attack_onset,
        duration=config.duration,
    )

    table = Table(
        title="Table 2 (E2): detection latency from attack onset "
              f"(scenario={config.scenario}, controller=pure_pursuit)",
        columns=["attack", "overall [s]", "consistency [s]", "behaviour [s]",
                 "first assertion"],
    )

    by_attack: dict[str, list] = {}
    for run in runs:
        by_attack.setdefault(run.attack, []).append(run)

    for attack in config.attacks:
        group = by_attack[attack]
        overall, consistency, behaviour, firsts = [], [], [], []
        for run in group:
            onset = run.result.trace.attack_onset()
            if onset is None:
                continue
            lat = run.report.detection_latency(onset)
            if lat is not None:
                overall.append(lat)
            fam_lat = {"consistency": [], "behaviour": []}
            first_aid, first_t = None, None
            for aid in CATALOG_IDS:
                l_a = run.report.detection_latency(onset, aid)
                if l_a is None:
                    continue
                category = _CATEGORY_OF[aid]
                if category == "consistency":
                    fam_lat["consistency"].append(l_a)
                elif category in ("behaviour", "liveness"):
                    fam_lat["behaviour"].append(l_a)
                if first_t is None or l_a < first_t:
                    first_aid, first_t = aid, l_a
            if fam_lat["consistency"]:
                consistency.append(min(fam_lat["consistency"]))
            if fam_lat["behaviour"]:
                behaviour.append(min(fam_lat["behaviour"]))
            if first_aid is not None:
                firsts.append(first_aid)

        def med(values: list) -> str:
            return f"{statistics.median(values):.1f}" if values else "-"

        first_mode = max(set(firsts), key=firsts.count) if firsts else "-"
        table.add_row(attack, med(overall), med(consistency), med(behaviour),
                      first_mode)

    table.add_note("'-' = the family never fired for that attack; "
                   "medians over seeds.")
    return table


def main() -> None:
    print(build_latency_table().render())


if __name__ == "__main__":
    main()
