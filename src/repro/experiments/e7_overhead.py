"""E7 / Figure 4 — online monitoring overhead.

Measures the wall-clock cost of feeding the online monitor per simulation
step as a function of how many assertions are active.  Expected shape:
cost grows ~linearly in the number of assertions and stays a small
fraction of a 50 ms control period — the methodology is cheap enough to
leave enabled on the bench vehicle.
"""

from __future__ import annotations

import time

from repro.core.catalog import CATALOG_IDS, default_catalog
from repro.core.monitor import OnlineMonitor
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_grid
from repro.experiments.tables import Table

__all__ = ["build_monitor_overhead"]

_SUBSET_SIZES = (1, 2, 4, 8, 12, len(CATALOG_IDS))


def build_monitor_overhead(config: ExperimentConfig | None = None) -> Table:
    """Monitor cost per step vs. number of active assertions."""
    config = config or ExperimentConfig.full()
    # One representative trace, reused for every subset size.
    run = run_grid(
        scenarios=(config.scenario,),
        controllers=("pure_pursuit",),
        attacks=("gps_drift",),
        seeds=(config.seeds[0],),
        onset=config.attack_onset,
        duration=config.duration,
    )[0]
    records = list(run.result.trace)
    dt_ms = run.result.trace.dt * 1e3

    table = Table(
        title="Figure 4 (E7): online monitor overhead per simulation step "
              f"(trace: {len(records)} steps of {dt_ms:.0f} ms)",
        columns=["# assertions", "us/step", "% of control period",
                 "steps/sec"],
    )

    for size in _SUBSET_SIZES:
        ids = CATALOG_IDS[:size]
        assertions = default_catalog(ids)
        monitor = OnlineMonitor(assertions)
        t0 = time.perf_counter()
        monitor.feed_all(records)
        monitor.finish()
        elapsed = time.perf_counter() - t0
        per_step_us = 1e6 * elapsed / len(records)
        table.add_row(
            size,
            f"{per_step_us:.0f}",
            f"{100.0 * (per_step_us / 1e3) / dt_ms:.2f}",
            f"{len(records) / elapsed:.0f}",
        )
    table.add_note("single-threaded CPython; the control period is "
                   f"{dt_ms:.0f} ms (20 Hz loop).")
    return table


def main() -> None:
    print(build_monitor_overhead().render())


if __name__ == "__main__":
    main()
