"""Deferred-execution planner for off-grid runs: declare, batch, drain.

:func:`~repro.experiments.runner.run_scored` executes one off-grid
configuration at a time — correct, cached, and exactly the wrong shape
for the lockstep batch engine, which wants *groups* of compatible lanes.
This module turns every off-grid simulation site into a declarative
plan:

* experiments **declare** their whole configuration sweep up front
  (:meth:`ProbePlan.plan_scored` returns a lazy :class:`PlannedRun`
  handle per configuration);
* the plan **groups** pending runs by the batch compatibility key
  ``(scenario name, duration)`` — the same axes
  :func:`~repro.sim.batch.engine._check_compat` requires to agree —
  and **executes** each group through
  :func:`~repro.sim.batch.run_batch`, chunked at
  ``ADASSURE_BATCH_LANES`` lanes;
* any group the engine rejects falls back to per-run serial
  simulation — whole-group, so a single incompatible lane cannot
  poison its neighbours' results;
* every result **commits** through the params-keyed
  :class:`~repro.experiments.backend.ScoredResultStore` — the same
  memo + content-addressed disk-cache path ``run_scored`` uses, so a
  planned run and a serial ``run_scored`` of the same params are the
  same cache entry, and re-running a drained sweep simulates nothing.

Determinism contract: the batch engine is bit-identical to the serial
oracle (``tests/test_sim_batch_equivalence.py``), each experiment's lane
builder mirrors its serial ``simulate`` closure exactly, and cache keys
are the params dicts themselves — so draining through the planner
produces dict-equal experiment tables versus the serial path
(``tests/test_probe_batching.py`` pins this).

``--stats`` accounting: one :class:`~repro.experiments.stats.GridStats`
record per drain, with ``planned``/``plan_batched``/``plan_fallbacks``
counters next to the usual memo/disk/executed split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.core.checker import check_trace
from repro.core.verdicts import CheckReport
from repro.experiments.stats import STATS, GridStats
from repro.sim.engine import RunResult

__all__ = ["PlannedRun", "ProbePlan", "scenario_lane"]


def scenario_lane(scenario, controller: str = "pure_pursuit",
                  campaign=None, ekf_config=None, faults=None,
                  follower=None):
    """A batch :class:`~repro.sim.batch.LaneSpec` mirroring
    :func:`~repro.sim.engine.run_scenario`'s follower construction
    (scenario cruise profile, ACC iff the scenario has a lead).

    Pass ``follower`` to override the construction entirely — the E13
    defect harness wraps its lateral controller before the follower is
    built, and the lane must reproduce that object graph exactly.
    """
    from repro.control.acc import AccController
    from repro.control.base import make_lateral_controller
    from repro.control.follower import SpeedProfile, WaypointFollower
    from repro.sim.batch import LaneSpec
    if follower is None:
        follower = WaypointFollower(
            make_lateral_controller(controller),
            profile=SpeedProfile(cruise_speed=scenario.cruise_speed),
            acc=AccController() if scenario.lead is not None else None,
        )
    return LaneSpec(scenario=scenario, follower=follower,
                    campaign=campaign, ekf_config=ekf_config,
                    faults=faults)


@dataclass(slots=True)
class PlannedRun:
    """Lazy handle on one declared off-grid run.

    :meth:`result` drains the owning plan on first use; afterwards it is
    a plain accessor.  The pair is exactly what ``run_scored`` would
    have returned for the same params.
    """

    params: dict
    simulate: Callable[[], RunResult]
    lane: Callable[[], object] | None
    group: tuple
    _plan: "ProbePlan"
    _pair: tuple[RunResult, CheckReport] | None = None

    @property
    def done(self) -> bool:
        return self._pair is not None

    def result(self) -> tuple[RunResult, CheckReport]:
        if self._pair is None:
            self._plan.drain()
        assert self._pair is not None
        return self._pair


class ProbePlan:
    """Collects declared off-grid runs and drains them as batch groups.

    One plan per sweep: declare every configuration with
    :meth:`plan_scored`, then read results off the handles (the first
    read triggers :meth:`drain`).  Runs declared after a drain join the
    next drain — the plan is reusable, not one-shot.
    """

    def __init__(self, sim_engine: str | None = None,
                 lanes: int | None = None):
        from repro.experiments.runner import _batch_lanes, scored_store
        self._sim_engine_arg = sim_engine
        self.sim_engine: str | None = None
        """Engine of the most recent drain (chosen per drain, since auto
        selection depends on how many runs are actually pending)."""
        self.lanes = int(lanes) if lanes else _batch_lanes()
        self.store = scored_store()
        self._pending: list[PlannedRun] = []

    # -- declaration ----------------------------------------------------
    def plan_scored(self, params: dict, simulate: Callable[[], RunResult],
                    lane: Callable[[], object] | None = None,
                    group: tuple | None = None) -> PlannedRun:
        """Declare one run; same contract as
        :func:`~repro.experiments.runner.run_scored` plus batching.

        Args:
            params: JSON-serializable dict uniquely determining the run
                (the cache key — must cover every knob the closures
                close over).
            simulate: zero-argument serial closure — the oracle; runs on
                serial engines and whole-group fallback.
            lane: zero-argument closure building the equivalent batch
                :class:`~repro.sim.batch.LaneSpec` (see
                :func:`scenario_lane`).  ``None`` forces this run onto
                the serial path.
            group: batch compatibility key override; defaults to
                ``(params["scenario"], params["duration"])``.
        """
        if group is None:
            group = (params.get("scenario"), params.get("duration"))
        run = PlannedRun(params=params, simulate=simulate, lane=lane,
                         group=group, _plan=self)
        self._pending.append(run)
        return run

    @property
    def pending(self) -> int:
        return len(self._pending)

    # -- execution ------------------------------------------------------
    def drain(self) -> GridStats:
        """Execute every declared-but-unfinished run and commit results.

        Cache hits resolve first (memo → disk); the misses group by
        compatibility key and go through the batch engine in
        ``self.lanes``-wide chunks, each rejected chunk falling back to
        per-run serial simulation as a whole.  Records one
        :class:`~repro.experiments.stats.GridStats` into
        :data:`~repro.experiments.stats.STATS` per drain.
        """
        from repro.experiments.runner import choose_sim_engine
        todo, self._pending = self._pending, []
        wall_start = time.perf_counter()
        stats = GridStats(workers=1, grid_points=len(todo))
        self.sim_engine, stats.sim_engine_reason = choose_sim_engine(
            self._sim_engine_arg, len(todo))
        stats.sim_engine = self.sim_engine
        stats.planned = len(todo)

        from repro.sim.batch.engine import batch_counters
        counters0 = batch_counters()

        misses: dict[tuple, list[PlannedRun]] = {}
        for run in todo:
            hit = self.store.resolve(run.params)
            if hit is not None:
                run._pair, source = hit
                if source == "memo":
                    stats.memo_hits += 1
                else:
                    stats.disk_hits += 1
                continue
            key = run.group if (run.lane is not None
                                and self.sim_engine == "batch") else None
            misses.setdefault(key, []).append(run)

        for key, runs in misses.items():
            if key is None:
                for run in runs:
                    self._run_serial(run, stats)
                continue
            for start in range(0, len(runs), self.lanes):
                chunk = runs[start:start + self.lanes]
                if len(chunk) < 2 or not self._run_batch(chunk, stats):
                    if len(chunk) >= 2:
                        stats.plan_fallbacks += 1
                    for run in chunk:
                        self._run_serial(run, stats)

        stats.add_batch_counters(counters0, batch_counters())
        if self.store.cache is not None:
            stats.disk_errors = self.store.cache.counters.errors
        stats.wall_time = time.perf_counter() - wall_start
        STATS.record(stats)
        return stats

    def _run_batch(self, chunk: list[PlannedRun], stats: GridStats) -> bool:
        from repro.sim.batch import run_batch
        try:
            specs = [run.lane() for run in chunk]
            t0 = time.perf_counter()
            results = run_batch(specs)
        except Exception:
            return False
        sim_share = (time.perf_counter() - t0) / len(chunk)
        for run, result in zip(chunk, results):
            t1 = time.perf_counter()
            report = check_trace(result.trace)
            t2 = time.perf_counter()
            self.store.commit(run.params, (result, report))
            run._pair = (result, report)
            stats.phase_time["simulate"] += sim_share
            stats.phase_time["check"] += t2 - t1
        stats.executed += len(chunk)
        stats.plan_batched += len(chunk)
        stats.batch_groups += 1
        stats.batch_points += len(chunk)
        return True

    def _run_serial(self, run: PlannedRun, stats: GridStats) -> None:
        t0 = time.perf_counter()
        result = run.simulate()
        t1 = time.perf_counter()
        report = check_trace(result.trace)
        t2 = time.perf_counter()
        self.store.commit(run.params, (result, report))
        run._pair = (result, report)
        stats.executed += 1
        stats.phase_time["simulate"] += t1 - t0
        stats.phase_time["check"] += t2 - t1
