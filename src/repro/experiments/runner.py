"""Grid runner: scenario x controller x attack x seed, with check+diagnose.

Every experiment funnels through :func:`run_grid` (grid points) or
:func:`run_scored` / :class:`~repro.experiments.plan.ProbePlan`
(off-grid configurations), and all of them through the one execute path,
:func:`~repro.experiments.backend.execute`:

1. an **in-process LRU memo** (bounded, default 512 runs) lets experiments
   that share grid points inside one process (e.g. E1 and E2) reuse
   simulations instantly;
2. a **persistent on-disk cache** (:mod:`repro.experiments.cache`,
   content-addressed by scenario/controller/attack/intensity/seed/onset/
   duration + catalog + code version) survives across processes, so a
   repeated campaign re-simulates nothing — memo + cache + checkpoint
   manifest together form the
   :class:`~repro.experiments.backend.CacheResultStore` every grid point
   commits through;
3. uncached points are described once (:func:`grid_spec`), grouped and
   stepped in lockstep by the batch engine (``--sim-engine batch``, or
   auto whenever two or more points are pending); the rest run on the
   serial oracle, which owns retries and quarantine.

Because every run is fully seeded, every path produces bit-identical
results; the engines only change wall-clock time.  Each call reports
timings and hit counts into :data:`repro.experiments.stats.STATS`.

The grid path is **crash-tolerant**: a campaign of thousands of points
must survive one sick point or one interrupted process.  Concretely,

* failing points are retried with jittered exponential backoff
  (``ADASSURE_POINT_RETRIES``, default 2; total per-point backoff capped
  by ``ADASSURE_RETRY_CAP``) and finally **quarantined** — reported in
  :class:`~repro.experiments.stats.GridStats` (and ``--stats``) instead
  of aborting the campaign;
* completed points are checkpointed to the disk cache *as they finish*,
  with a campaign-level :class:`~repro.experiments.cache.CheckpointManifest`
  ledger, so an interrupted campaign resumes from where it died and
  re-runs only the missing points.
"""

from __future__ import annotations

import functools
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass

from repro.attacks.campaign import standard_attack
from repro.config import env_number
from repro.core.diagnosis import DiagnosisResult
from repro.core.spec import catalog_fingerprint
from repro.core.verdicts import CheckReport
from repro.experiments.backend import (
    CacheResultStore,
    Run,
    ScoredResultStore,
    build_grid,
    choose_sim_engine,
    execute,
)
from repro.experiments.cache import CheckpointManifest, RunCache
from repro.experiments.stats import STATS, GridStats
from repro.sim.engine import LaneSpec, RunResult, lane_spec
from repro.sim.scenario import standard_scenarios

__all__ = [
    "GridRun",
    "grid_run",
    "grid_spec",
    "run_grid",
    "run_scored",
    "scored_store",
    "clear_cache",
    "choose_sim_engine",
    "set_memo_limit",
]

DEFAULT_MEMO_LIMIT = 512
"""Default bound on the in-process memo (``ADASSURE_MEMO_LIMIT`` env)."""

DEFAULT_POINT_RETRIES = 2
"""Default retry budget per failing point (``ADASSURE_POINT_RETRIES``)."""

_RETRY_BACKOFF = 0.25
"""Base of the exponential retry backoff, seconds (doubles per attempt)."""


def _point_retries(retries: int | None) -> int:
    """Per-point retry budget: argument > env > default."""
    if retries is None:
        retries = env_number("ADASSURE_POINT_RETRIES", DEFAULT_POINT_RETRIES)
    return max(int(retries), 0)


@dataclass(slots=True)
class GridRun:
    """One fully scored grid point."""

    scenario: str
    controller: str
    attack: str
    intensity: float
    seed: int
    result: RunResult
    report: CheckReport
    diagnosis: DiagnosisResult

    @property
    def onset_latency(self) -> float | None:
        onset = self.result.trace.attack_onset()
        if onset is None:
            return None
        return self.report.detection_latency(onset)


# ---------------------------------------------------------------------------
# In-process memo: bounded LRU so multi-thousand-point sweeps cannot grow
# memory without limit (each GridRun holds a full trace).
# ---------------------------------------------------------------------------

_MEMO: OrderedDict[tuple, GridRun] = OrderedDict()


def _memo_limit() -> int:
    return max(env_number("ADASSURE_MEMO_LIMIT", DEFAULT_MEMO_LIMIT), 1)


_MEMO_LIMIT = _memo_limit()


def set_memo_limit(limit: int) -> None:
    """Re-bound the in-process memo (evicts oldest entries immediately)."""
    global _MEMO_LIMIT
    if limit < 1:
        raise ValueError("memo limit must be >= 1")
    _MEMO_LIMIT = limit
    while len(_MEMO) > _MEMO_LIMIT:
        _MEMO.popitem(last=False)


def _memo_get(key: tuple) -> GridRun | None:
    run = _MEMO.get(key)
    if run is not None:
        _MEMO.move_to_end(key)
    return run


def _memo_put(key: tuple, run: GridRun) -> None:
    _MEMO[key] = run
    _MEMO.move_to_end(key)
    while len(_MEMO) > _MEMO_LIMIT:
        _MEMO.popitem(last=False)


def clear_cache(disk: bool = False) -> None:
    """Drop memoized runs (tests use this to force fresh simulations).

    Args:
        disk: also wipe the persistent on-disk cache layer.
    """
    _MEMO.clear()
    if disk:
        cache = RunCache.from_env()
        if cache is not None:
            cache.clear()


# ---------------------------------------------------------------------------
# Grid points as runs
# ---------------------------------------------------------------------------

def grid_spec(point: tuple) -> LaneSpec:
    """The one description of a grid point's run."""
    scenario_name, controller, attack, intensity, seed, onset, duration = point
    scenario = standard_scenarios(seed=seed, duration=duration)[scenario_name]
    return lane_spec(scenario, controller, campaign=standard_attack(
        attack, intensity=intensity, onset=onset))


def grid_run(point: tuple) -> Run:
    """A grid point as a :class:`~repro.experiments.backend.Run`, batch
    compatible with every point of its ``(scenario, duration)``."""
    return Run(point, functools.partial(grid_spec, point),
               group=(point[0], point[6]))


def scored_store() -> ScoredResultStore:
    """The process-wide params-keyed result store (memo + disk cache).

    Every off-grid run — the E10-E14 extension configurations and the
    counterfactual probes — resolves and commits through this store, so
    probe cache hits show up in :data:`~repro.experiments.stats.STATS`
    exactly like grid hits do.
    """
    return ScoredResultStore(RunCache.from_env(), _memo_get, _memo_put)


def run_scored(params: dict, spec) -> tuple[RunResult, CheckReport]:
    """Cached execution of one *off-grid* closed-loop run.

    The extension experiments run configurations the cartesian grid
    cannot express — gated estimators, concurrent attack pairs, injected
    controller defects, supervised stacks under sensor faults.  This
    executes one of them on the serial oracle through the same
    :class:`~repro.experiments.backend.ScoredResultStore` layers
    :class:`~repro.experiments.plan.ProbePlan` uses for whole sweeps.

    Args:
        params: JSON-serializable dict that uniquely determines the run;
            it must cover every knob ``spec`` closes over (a stale
            ``params`` means silently wrong cache hits).  Convention:
            include a ``"kind"`` discriminator per experiment family.
        spec: zero-argument builder of the run's
            :class:`~repro.sim.engine.LaneSpec`; only invoked on a miss.

    Returns:
        ``(result, report)`` — the report is the default-catalog
        :func:`~repro.core.checker.check_trace` verdict.  Diagnosis is
        not cached: rankings are knowledge-base dependent and cost
        microseconds to recompute.

    Raises:
        ValueError: the simulation crashed (E14's unprotected stack dies
            on a NaN burst).  The simulator is deterministic, so the
            crash is stored like a result and a warm call re-raises it
            without simulating.  Other exceptions, ValueError subclasses
            included, are never stored.
    """
    wall_start = time.perf_counter()
    stats = GridStats(grid_points=1)
    run = Run(params, spec)
    try:
        execute([run], scored_store(), stats)
    finally:
        stats.wall_time = time.perf_counter() - wall_start
        STATS.record(stats)
    if run.error is not None:
        raise run.error
    return run.value


def run_grid(
    scenarios: tuple[str, ...] | list[str],
    controllers: tuple[str, ...] | list[str],
    attacks: tuple[str, ...] | list[str],
    seeds: tuple[int, ...] | list[int],
    intensity: float = 1.0,
    onset: float = 15.0,
    duration: float | None = None,
    retries: int | None = None,
    sim_engine: str | None = None,
) -> list[GridRun]:
    """Run (and score) the full cartesian grid.

    Results come back in grid order (scenario-major, seed-minor) and are
    identical whichever engine ran them.  Hits are served from the
    in-process memo first, then from the persistent disk cache; freshly
    executed points are merged back into both layers *as they complete*
    (the incremental checkpoint an interrupted campaign resumes from).

    With the batch engine (``sim_engine="batch"``, ``ADASSURE_SIM=batch``
    or auto when two or more points are pending), compatible uncached
    points are stepped in lockstep as arrays (:mod:`repro.sim.batch`);
    results are bit-identical to the serial engine, and any group the
    batch engine rejects falls back whole to the serial oracle.

    A point that still fails after ``retries`` re-executions is
    quarantined — dropped from the returned list and reported via
    :data:`~repro.experiments.stats.STATS` — rather than aborting the
    campaign.  Callers that require the full grid can compare
    ``len(result)`` against their request.
    """
    wall_start = time.perf_counter()
    stats = GridStats()

    grid = build_grid(scenarios, controllers, attacks, seeds,
                      intensity=intensity, onset=onset, duration=duration)
    stats.grid_points = len(grid)

    cache = RunCache.from_env()
    catalog = catalog_fingerprint() if cache is not None else None
    manifest = CheckpointManifest.for_grid(cache, grid)
    if manifest is not None and manifest.lease_conflict:
        # Another live campaign owns this grid's ledger.  The work still
        # runs (the per-point cache stays shared and consistent); only
        # the manifest goes read-only.  Report it — a silently lost
        # ledger is exactly what the lease exists to prevent.
        stats.lease_conflicts += 1
        warnings.warn(
            f"checkpoint manifest {manifest.path.name} is held by another "
            "live campaign; this run proceeds without updating the shared "
            "ledger", RuntimeWarning, stacklevel=2)

    store = CacheResultStore(cache, catalog, manifest, _memo_get, _memo_put)
    # One run per unique point; `runs` pins this grid's results so LRU
    # eviction mid-call is safe.
    runs = [grid_run(point) for point in dict.fromkeys(grid)]
    try:
        failed = execute(runs, store, stats, engine=sim_engine,
                         retries=_point_retries(retries))
        for run in failed:
            error = f"{type(run.error).__name__}: {run.error}"
            stats.quarantined.append((run.key, error))
            store.quarantine(run.key, error)
    finally:
        # The lease must not outlive the campaign: a leaked lease
        # would lock this grid's ledger until the TTL expires.
        store.close()
        stats.wall_time = time.perf_counter() - wall_start
        STATS.record(stats)

    resolved = {run.key: run.value for run in runs if run.error is None}
    return [resolved[point] for point in grid if point in resolved]
