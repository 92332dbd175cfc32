"""Campaign instrumentation: phase timings and cache accounting.

Every execute site (a :func:`~repro.experiments.runner.run_grid` call, a
planner drain, a ``run_scored`` call, an explanation) reports one
:class:`GridStats`; the module-level :class:`StatsCollector` accumulates
them across an entire CLI invocation so ``adassure experiment all
--stats`` can print a single campaign summary and dump it
machine-readably (``--stats-json``).

Phases are the three stages every run goes through:

* ``simulate`` — the closed-loop run (dominates; this is what the cache
  and the batch engine exist to amortize),
* ``check``    — assertion catalog over the trace,
* ``diagnose`` — root-cause ranking from the report (grid points only).
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["PHASES", "GridStats", "StatsCollector", "STATS"]

PHASES = ("simulate", "check", "diagnose")


@dataclass(slots=True)
class GridStats:
    """Everything one ``run_grid`` call measured about itself."""

    grid_points: int = 0
    executed: int = 0
    """Points actually simulated (grid_points - all cache hits)."""
    memo_hits: int = 0
    disk_hits: int = 0
    disk_errors: int = 0
    retries: int = 0
    """Point re-executions after a failure."""
    quarantined: list = field(default_factory=list)
    """Points that kept failing after every retry: ``(point, error)``."""
    sim_engine: str = "serial"
    """Simulation engine the uncached points went through (in a merged
    total: the one engine every simulating execute used, or
    ``"mixed"``)."""
    batch_groups: int = 0
    """Compatible groups stepped in lockstep by the batch engine."""
    batch_points: int = 0
    """Points simulated inside those batched groups."""
    batch_fallbacks: int = 0
    """Groups the batch engine rejected back to the serial oracle."""
    sim_engine_reason: str = ""
    """Why that engine was chosen: explicit, env, or the auto heuristic
    (in a merged total: only when a single execute simulated)."""
    engine_executes: dict = field(default_factory=dict)
    """Executes that simulated anything, per engine they used."""
    planned: int = 0
    """Off-grid runs declared to a :class:`~repro.experiments.plan.ProbePlan`."""
    plan_batched: int = 0
    """Planned runs simulated inside batch-engine lane groups."""
    plan_fallbacks: int = 0
    """Planned groups the batch engine rejected back to serial execution."""
    speculative_issued: int = 0
    """Probe lanes simulated ahead of need by speculative prefetch."""
    speculative_wasted: int = 0
    """Speculative lanes the search never consumed (issued - used)."""
    dare_memo_hits: int = 0
    """Cross-call LQR DARE gain lookups served from the module memo."""
    dare_memo_solves: int = 0
    """DARE solves the module memo could not avoid."""
    lane_steps_requested: int = 0
    """Lane-steps the batch engine was asked for (lanes x steps)."""
    lane_steps_simulated: int = 0
    """Lane-steps it actually stepped: a shared pre-onset prefix is
    simulated once per prefix class, and a memoized one not at all."""
    lease_conflicts: int = 0
    """Checkpoint manifests that went read-only because another live
    campaign holds the grid's lease (the work still ran; only the
    shared ledger was left to its owner)."""
    wall_time: float = 0.0
    phase_time: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    """Per-phase busy seconds."""

    @property
    def busy_time(self) -> float:
        return sum(self.phase_time.values())

    @property
    def cache_hit_rate(self) -> float:
        if self.grid_points == 0:
            return 0.0
        return (self.memo_hits + self.disk_hits) / self.grid_points

    def add_batch_counters(self, before: dict, after: dict) -> None:
        """Add the delta of two :func:`repro.sim.batch.engine.batch_counters`
        snapshots (DARE memo reuse, lane-steps) taken around batch calls."""
        self.dare_memo_hits += after["hits"] - before["hits"]
        self.dare_memo_solves += after["solves"] - before["solves"]
        self.lane_steps_requested += (after["lane_steps_requested"]
                                      - before["lane_steps_requested"])
        self.lane_steps_simulated += (after["lane_steps_simulated"]
                                      - before["lane_steps_simulated"])

    def merge(self, other: "GridStats") -> None:
        self.grid_points += other.grid_points
        self.executed += other.executed
        self.memo_hits += other.memo_hits
        self.disk_hits += other.disk_hits
        self.disk_errors += other.disk_errors
        self.retries += other.retries
        self.quarantined.extend(other.quarantined)
        if other.engine_executes:
            for engine, n in other.engine_executes.items():
                self.engine_executes[engine] = (
                    self.engine_executes.get(engine, 0) + n)
            engines = list(self.engine_executes)
            self.sim_engine = engines[0] if len(engines) == 1 else "mixed"
            single = sum(self.engine_executes.values()) == 1
            self.sim_engine_reason = other.sim_engine_reason if single else ""
        self.batch_groups += other.batch_groups
        self.batch_points += other.batch_points
        self.batch_fallbacks += other.batch_fallbacks
        self.planned += other.planned
        self.plan_batched += other.plan_batched
        self.plan_fallbacks += other.plan_fallbacks
        self.speculative_issued += other.speculative_issued
        self.speculative_wasted += other.speculative_wasted
        self.dare_memo_hits += other.dare_memo_hits
        self.dare_memo_solves += other.dare_memo_solves
        self.lane_steps_requested += other.lane_steps_requested
        self.lane_steps_simulated += other.lane_steps_simulated
        self.lease_conflicts += other.lease_conflicts
        self.wall_time += other.wall_time
        for phase in PHASES:
            self.phase_time[phase] += other.phase_time.get(phase, 0.0)

    def as_dict(self) -> dict:
        return {
            "grid_points": self.grid_points,
            "executed": self.executed,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "disk_errors": self.disk_errors,
            "retries": self.retries,
            "quarantined": [
                {"point": list(point), "error": error}
                for point, error in self.quarantined
            ],
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "sim_engine": self.sim_engine,
            "batch_groups": self.batch_groups,
            "batch_points": self.batch_points,
            "batch_fallbacks": self.batch_fallbacks,
            "sim_engine_reason": self.sim_engine_reason,
            "engine_executes": dict(self.engine_executes),
            "planned": self.planned,
            "plan_batched": self.plan_batched,
            "plan_fallbacks": self.plan_fallbacks,
            "speculative_issued": self.speculative_issued,
            "speculative_wasted": self.speculative_wasted,
            "dare_memo_hits": self.dare_memo_hits,
            "dare_memo_solves": self.dare_memo_solves,
            "lane_steps_requested": self.lane_steps_requested,
            "lane_steps_simulated": self.lane_steps_simulated,
            "lease_conflicts": self.lease_conflicts,
            "wall_time_s": round(self.wall_time, 4),
            "busy_time_s": round(self.busy_time, 4),
            "phase_time_s": {p: round(t, 4)
                             for p, t in self.phase_time.items()},
        }

    def render(self, title: str = "grid runner stats") -> str:
        lines = [
            f"-- {title} --",
            f"grid points : {self.grid_points}  "
            f"(executed {self.executed}, memo hits {self.memo_hits}, "
            f"disk hits {self.disk_hits}, disk errors {self.disk_errors})",
            f"cache hit   : {100.0 * self.cache_hit_rate:.1f}%",
            f"engine      : {self._engine_summary()}",
            f"wall time   : {self.wall_time:.2f}s  "
            f"(busy {self.busy_time:.2f}s)",
        ]
        for phase in PHASES:
            lines.append(f"  {phase:<9}: {self.phase_time[phase]:.2f}s")
        if self.batch_groups or self.batch_fallbacks:
            lines.append(
                f"batched     : {self.batch_points} point(s) in "
                f"{self.batch_groups} group(s), "
                f"{self.batch_fallbacks} fallback(s); "
                f"{self.lane_steps_simulated} of "
                f"{self.lane_steps_requested} lane-step(s) simulated"
            )
        if self.planned or self.plan_fallbacks:
            lines.append(
                f"planned     : {self.planned} run(s) declared, "
                f"{self.plan_batched} batched, "
                f"{self.plan_fallbacks} group fallback(s)"
            )
        if self.speculative_issued or self.speculative_wasted:
            lines.append(
                f"speculative : {self.speculative_issued} lane(s) issued, "
                f"{self.speculative_wasted} wasted"
            )
        if self.dare_memo_hits or self.dare_memo_solves:
            lines.append(
                f"dare memo   : {self.dare_memo_hits} hit(s), "
                f"{self.dare_memo_solves} solve(s)"
            )
        if self.retries:
            lines.append(f"recovered   : {self.retries} retrie(s)")
        if self.lease_conflicts:
            lines.append(
                f"lease       : {self.lease_conflicts} manifest(s) "
                "read-only (another live campaign owns the ledger)"
            )
        if self.quarantined:
            lines.append(f"quarantined : {len(self.quarantined)} point(s)")
            for point, error in self.quarantined:
                lines.append(f"  {point}: {error}")
        return "\n".join(lines)

    def _engine_summary(self) -> str:
        """The engine line: the one simulating execute's engine and why,
        else executes per engine."""
        counts = self.engine_executes
        if not counts:
            return "none  (no execute had misses to simulate)"
        if sum(counts.values()) == 1 and self.sim_engine_reason:
            return f"{self.sim_engine}  ({self.sim_engine_reason})"
        return ", ".join(f"{engine} in {n} execute(s)"
                         for engine, n in sorted(counts.items()))


class StatsCollector:
    """Accumulates :class:`GridStats` across many ``run_grid`` calls."""

    def __init__(self) -> None:
        self.total = GridStats()
        self.grids = 0
        self.last: GridStats | None = None

    def record(self, stats: GridStats) -> None:
        self.total.merge(stats)
        self.grids += 1
        self.last = stats

    def reset(self) -> None:
        self.__init__()

    def as_dict(self) -> dict:
        return {"grids": self.grids, **self.total.as_dict()}

    def render(self) -> str:
        return self.total.render(
            title=f"campaign stats ({self.grids} grid call(s))"
        )

    def write_json(self, path: str | Path, extra: dict | None = None) -> Path:
        path = Path(path)
        payload = {"host": _host_info(), "campaign": self.as_dict()}
        if extra:
            payload.update(extra)
        path.write_text(json.dumps(payload, indent=2) + "\n",
                        encoding="utf-8")
        return path


STATS = StatsCollector()
"""Process-wide collector the runner reports into."""


def _host_info() -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
