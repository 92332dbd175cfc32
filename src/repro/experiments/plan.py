"""Deferred-execution planner for off-grid runs: declare, then drain.

:func:`~repro.experiments.runner.run_scored` executes one off-grid
configuration at a time — correct, cached, and exactly the wrong shape
for the lockstep batch engine, which wants *groups* of compatible lanes.
The planner lets an experiment declare its whole configuration sweep up
front and execute it in one pass:

* experiments **declare** each configuration with
  :meth:`ProbePlan.plan_scored`: its params dict (the cache key) and a
  builder of its :class:`~repro.sim.engine.LaneSpec` (usually
  :func:`~repro.sim.engine.lane_spec`), and get back a lazy
  :class:`PlannedRun` handle;
* the first result read **drains** the plan through
  :func:`~repro.experiments.backend.execute` — the same path grid points
  take: cache hits resolve first, the misses group by the batch
  compatibility key ``(scenario name, duration)`` and step in lockstep
  in ``ADASSURE_BATCH_LANES``-wide chunks, a rejected chunk falls back
  whole to the serial oracle on the same specs, and every result
  commits through the params-keyed
  :class:`~repro.experiments.backend.ScoredResultStore` — so a planned
  run and a ``run_scored`` of the same params are the same cache entry,
  and re-running a drained sweep simulates nothing.

Determinism contract: the batch engine is bit-identical to the serial
oracle (``tests/test_sim_batch_equivalence.py``), both run the same
spec, and cache keys are the params dicts themselves — so draining
through the planner produces dict-equal experiment tables versus the
serial path (``tests/test_probe_batching.py`` pins this).

``--stats`` accounting: one :class:`~repro.experiments.stats.GridStats`
record per drain, with ``planned``/``plan_batched``/``plan_fallbacks``
counters next to the usual memo/disk/executed split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.verdicts import CheckReport
from repro.experiments.backend import Run, batch_lanes, execute
from repro.experiments.stats import STATS, GridStats
from repro.sim.engine import RunResult

__all__ = ["PlannedRun", "ProbePlan"]


@dataclass(slots=True, eq=False)
class PlannedRun(Run):
    """Lazy handle on one declared off-grid run.

    :meth:`result` drains the owning plan on first use; afterwards it is
    a plain accessor.  The pair is exactly what ``run_scored`` would
    have returned for the same params (and a failed run raises what
    ``run_scored`` would have raised).
    """

    plan: "ProbePlan | None" = None

    def result(self) -> tuple[RunResult, CheckReport]:
        if not self.done:
            self.plan.drain()
        if self.error is not None:
            raise self.error
        return self.value


class ProbePlan:
    """Collects declared off-grid runs and drains them in one execute.

    One plan per sweep: declare every configuration with
    :meth:`plan_scored`, then read results off the handles (the first
    read triggers :meth:`drain`).  Runs declared after a drain join the
    next drain — the plan is reusable, not one-shot.
    """

    def __init__(self, sim_engine: str | None = None,
                 lanes: int | None = None):
        from repro.experiments.runner import scored_store
        self._sim_engine_arg = sim_engine
        self.sim_engine: str | None = None
        """Engine of the most recent drain (chosen per drain, since auto
        selection depends on how many runs are actually pending)."""
        self.lanes = int(lanes) if lanes else batch_lanes()
        self.store = scored_store()
        self._pending: list[PlannedRun] = []

    # -- declaration ----------------------------------------------------
    def plan_scored(self, params: dict, spec, group: tuple | None = None,
                    *, batch: bool = True) -> PlannedRun:
        """Declare one run; same contract as
        :func:`~repro.experiments.runner.run_scored` plus batching.

        Args:
            params: JSON-serializable dict uniquely determining the run
                (the cache key — must cover every knob ``spec`` closes
                over).
            spec: zero-argument builder of the run's
                :class:`~repro.sim.engine.LaneSpec`; called at most once,
                on a miss.
            group: batch compatibility key override; defaults to
                ``(params["scenario"], params["duration"])``.
            batch: ``False`` keeps this run on the serial oracle.
        """
        if group is None:
            group = (params.get("scenario"), params.get("duration"))
        run = PlannedRun(params, spec, group if batch else None, plan=self)
        self._pending.append(run)
        return run

    @property
    def pending(self) -> int:
        return len(self._pending)

    # -- execution ------------------------------------------------------
    def drain(self) -> GridStats:
        """Execute every declared-but-unfinished run and commit results.

        Records one :class:`~repro.experiments.stats.GridStats` into
        :data:`~repro.experiments.stats.STATS` per drain.  A run that
        fails keeps its error (raised by :meth:`PlannedRun.result`); the
        others still complete.
        """
        todo, self._pending = self._pending, []
        wall_start = time.perf_counter()
        stats = GridStats(grid_points=len(todo), planned=len(todo))
        execute(todo, self.store, stats, engine=self._sim_engine_arg,
                lanes=self.lanes)
        self.sim_engine = stats.sim_engine
        stats.plan_batched = stats.batch_points
        stats.plan_fallbacks = stats.batch_fallbacks
        stats.wall_time = time.perf_counter() - wall_start
        STATS.record(stats)
        return stats
