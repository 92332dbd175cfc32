"""Grid runner: scenario x controller x attack x seed, with check+diagnose.

Every experiment funnels through :func:`run_grid` so runs are executed and
scored uniformly.  Since the scheduler/executor/result-store split
(:mod:`repro.experiments.backend`), ``run_grid`` is a thin composition:

1. an **in-process LRU memo** (bounded, default 512 runs) lets experiments
   that share grid points inside one process (e.g. E1 and E2) reuse
   simulations instantly;
2. a **persistent on-disk cache** (:mod:`repro.experiments.cache`,
   content-addressed by scenario/controller/attack/intensity/seed/onset/
   duration + catalog + code version) survives across processes, so a
   repeated campaign re-simulates nothing — memo + cache + checkpoint
   manifest together form the
   :class:`~repro.experiments.backend.CacheResultStore` every executor
   commits through;
3. uncached grid points run through a pluggable **executor chain**:
   the lockstep batch engine
   (:class:`~repro.experiments.backend.BatchExecutor`, ``--sim-engine
   batch``), then either a single-host ``ProcessPoolExecutor`` fan-out
   (:class:`~repro.experiments.backend.PoolExecutor`, ``workers=`` /
   ``ADASSURE_WORKERS``) or the multi-host lease-claimed worker fleet
   (:class:`~repro.experiments.distributed.DistributedExecutor`,
   ``executor="distributed"`` / ``ADASSURE_EXECUTOR``), and finally the
   terminal :class:`~repro.experiments.backend.SerialExecutor`, which
   owns retries and quarantine.

Because every run is fully seeded, every backend produces bit-identical
results; executors only change wall-clock time.  Each ``run_grid`` call
reports timings and hit counts into
:data:`repro.experiments.stats.STATS`.

The chain is **crash-tolerant**: a campaign of thousands of points must
survive one sick point, one dead worker, or one dead *host*.  Concretely,

* every pool point gets a wall-clock budget (``point_timeout=`` /
  ``ADASSURE_POINT_TIMEOUT``; unlimited by default) — an overdue point is
  abandoned to the pool and re-run serially;
* a collapsed pool (``BrokenProcessPool``, e.g. a worker OOM-killed or
  ``os._exit``-ing) is not fatal: the surviving points re-run serially;
* failing points are retried with jittered exponential backoff
  (``ADASSURE_POINT_RETRIES``, default 2; total per-point backoff capped
  by ``ADASSURE_RETRY_CAP``) and finally **quarantined** — reported in
  :class:`~repro.experiments.stats.GridStats` (and ``--stats``) instead
  of aborting the campaign;
* completed points are checkpointed to the disk cache *as they finish*,
  with a campaign-level :class:`~repro.experiments.cache.CheckpointManifest`
  ledger, so an interrupted campaign resumes from where it died and
  re-runs only the missing points;
* distributed workers that die mid-shard lose their lease after the
  heartbeat TTL and the shard is reclaimed — see
  :mod:`repro.experiments.distributed` for the full failure semantics.
"""

from __future__ import annotations

import os
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass

from repro.attacks.campaign import standard_attack
from repro.control.acc import AccController
from repro.control.base import make_lateral_controller
from repro.control.follower import SpeedProfile, WaypointFollower
from repro.core.checker import check_trace
from repro.core.diagnosis import DiagnosisResult, diagnose
from repro.core.spec import catalog_fingerprint
from repro.core.verdicts import CheckReport
from repro.experiments.backend import (
    BatchExecutor,
    CacheResultStore,
    PoolExecutor,
    ScoredResultStore,
    SerialExecutor,
    build_grid,
)
from repro.experiments.cache import CheckpointManifest, RunCache
from repro.experiments.stats import STATS, GridStats
from repro.sim.batch import LaneSpec, run_batch
from repro.sim.engine import RunResult, run_scenario
from repro.sim.scenario import standard_scenarios

__all__ = [
    "GridRun",
    "run_grid",
    "run_scored",
    "scored_store",
    "clear_cache",
    "resolve_executor",
    "choose_sim_engine",
    "resolve_sim_engine",
    "resolve_workers",
    "set_memo_limit",
]

DEFAULT_MEMO_LIMIT = 512
"""Default bound on the in-process memo (``ADASSURE_MEMO_LIMIT`` env)."""

DEFAULT_BATCH_LANES = 64
"""Default lanes per batched simulation group (``ADASSURE_BATCH_LANES``)."""

DEFAULT_POINT_RETRIES = 2
"""Default retry budget per failing point (``ADASSURE_POINT_RETRIES``)."""

_RETRY_BACKOFF = 0.25
"""Base of the exponential retry backoff, seconds (doubles per attempt)."""


def _point_timeout(timeout: float | None) -> float | None:
    """Per-point wall-clock budget: argument > env > unlimited."""
    if timeout is None:
        env = os.environ.get("ADASSURE_POINT_TIMEOUT")
        if env:
            try:
                timeout = float(env)
            except ValueError:
                timeout = None
    if timeout is not None and timeout <= 0:
        return None
    return timeout


def _point_retries(retries: int | None) -> int:
    """Per-point retry budget: argument > env > default."""
    if retries is None:
        env = os.environ.get("ADASSURE_POINT_RETRIES")
        if env:
            try:
                retries = int(env)
            except ValueError:
                retries = None
    if retries is None:
        retries = DEFAULT_POINT_RETRIES
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
    try:
        return max(int(os.environ.get("ADASSURE_MEMO_LIMIT",
                                      DEFAULT_MEMO_LIMIT)), 1)
    except ValueError:
        return DEFAULT_MEMO_LIMIT


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


def resolve_sim_engine(engine: str | None = None) -> str:
    """Effective simulation engine: argument > ``ADASSURE_SIM`` > serial.

    ``"serial"`` steps every grid point through its own
    :class:`~repro.sim.engine.SimulationRunner`; ``"batch"`` groups
    compatible points and steps them in lockstep through
    :func:`repro.sim.batch.run_batch` (bit-identical results, one core).
    """
    if engine is None:
        env = os.environ.get("ADASSURE_SIM", "").strip()
        engine = env or "serial"
    engine = engine.strip().lower()
    if engine not in ("serial", "batch"):
        raise ValueError(
            f"unknown simulation engine {engine!r}; "
            "expected 'serial' or 'batch'")
    return engine


def choose_sim_engine(engine: str | None = None,
                      pending: int = 0) -> tuple[str, str]:
    """Effective engine *and why*: argument > ``ADASSURE_SIM`` > auto.

    Auto selects the lockstep batch engine whenever at least two runs
    are actually pending and NumPy imports (the batch engine is
    array-native); otherwise serial.  ``ADASSURE_SIM=serial`` is the
    opt-out.  Returns ``(engine, reason)`` — the reason lands in
    ``GridStats.sim_engine_reason`` so ``--stats`` shows how the engine
    was picked.  :func:`resolve_sim_engine` keeps the historical
    serial-unless-asked contract for callers that need it (the
    distributed executor ships the engine name to its workers).
    """
    if engine is not None:
        return resolve_sim_engine(engine), "engine argument"
    env = os.environ.get("ADASSURE_SIM", "").strip()
    if env:
        return resolve_sim_engine(env), "ADASSURE_SIM"
    if pending < 2:
        return "serial", f"auto: {pending} pending run(s)"
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy ships with the repo
        return "serial", "auto: numpy unavailable"
    return "batch", f"auto: {pending} pending run(s)"


def _batch_lanes() -> int:
    """Lanes per batch group: ``ADASSURE_BATCH_LANES`` or the default."""
    env = os.environ.get("ADASSURE_BATCH_LANES")
    if env:
        try:
            return max(int(env), 2)
        except ValueError:
            pass
    return DEFAULT_BATCH_LANES


def resolve_workers(workers: int | None = None) -> int:
    """Effective worker count: argument > ``ADASSURE_WORKERS`` > cores-1."""
    if workers is None:
        env = os.environ.get("ADASSURE_WORKERS")
        if env:
            try:
                workers = int(env)
            except ValueError:
                workers = None
    if workers is None:
        workers = (os.cpu_count() or 2) - 1
    return max(int(workers), 1)


def resolve_executor(executor: str | None = None) -> str:
    """Effective campaign executor: argument > ``ADASSURE_EXECUTOR`` > auto.

    * ``"auto"`` — today's single-host behaviour: batch prepass when the
      batch engine is selected, then pool (or serial on one core);
    * ``"serial"`` — force the in-process serial path;
    * ``"pool"`` — force the single-host process pool;
    * ``"distributed"`` — spawn a lease-claimed worker fleet sharing the
      disk cache (:mod:`repro.experiments.distributed`); other hosts can
      join with ``adassure worker``.
    """
    if executor is None:
        env = os.environ.get("ADASSURE_EXECUTOR", "").strip()
        executor = env or "auto"
    executor = executor.strip().lower()
    if executor not in ("auto", "serial", "pool", "distributed"):
        raise ValueError(
            f"unknown executor {executor!r}; expected 'auto', 'serial', "
            "'pool' or 'distributed'")
    return executor


def resolve_dist_workers(dist_workers: int | None = None) -> int:
    """Distributed fleet size: argument > ``ADASSURE_DIST_WORKERS`` > ≥2.

    The default is at least two workers — a one-worker "fleet" is legal
    (still crash-tolerant via lease reclaim on restart) but defeats the
    point of asking for the distributed executor.
    """
    if dist_workers is None:
        env = os.environ.get("ADASSURE_DIST_WORKERS")
        if env:
            try:
                dist_workers = int(env)
            except ValueError:
                dist_workers = None
        if dist_workers is None:
            dist_workers = max(resolve_workers(None), 2)
    return max(int(dist_workers), 1)


# ---------------------------------------------------------------------------
# Point execution (also the ProcessPoolExecutor work unit)
# ---------------------------------------------------------------------------

def _execute_point(point: tuple) -> tuple[tuple, GridRun, dict]:
    """Simulate + check + diagnose one grid point.

    Top-level so it pickles into pool workers; returns the grid key, the
    scored run and per-phase wall times.
    """
    scenario_name, controller, attack, intensity, seed, onset, duration = point
    scenario = standard_scenarios(seed=seed, duration=duration)[scenario_name]
    campaign = (
        standard_attack(attack, intensity=intensity, onset=onset)
        if attack != "none"
        else standard_attack("none")
    )
    t0 = time.perf_counter()
    result = run_scenario(scenario, controller=controller, campaign=campaign)
    t1 = time.perf_counter()
    report = check_trace(result.trace)
    t2 = time.perf_counter()
    diagnosis = diagnose(report)
    t3 = time.perf_counter()
    run = GridRun(
        scenario=scenario_name,
        controller=controller,
        attack=attack,
        intensity=intensity,
        seed=seed,
        result=result,
        report=report,
        diagnosis=diagnosis,
    )
    phases = {"simulate": t1 - t0, "check": t2 - t1, "diagnose": t3 - t2}
    return point, run, phases


def _batch_lane_spec(point: tuple) -> LaneSpec:
    """Build one batch lane exactly the way :func:`_execute_point` would.

    Mirrors the follower construction of
    :func:`~repro.sim.engine.run_scenario` (unsupervised, scenario cruise
    profile, ACC iff the scenario has a lead) so the batched lane is
    bit-identical to the serial grid point.
    """
    scenario_name, controller, attack, intensity, seed, onset, duration = point
    scenario = standard_scenarios(seed=seed, duration=duration)[scenario_name]
    campaign = (
        standard_attack(attack, intensity=intensity, onset=onset)
        if attack != "none"
        else standard_attack("none")
    )
    follower = WaypointFollower(
        make_lateral_controller(controller),
        profile=SpeedProfile(cruise_speed=scenario.cruise_speed),
        acc=AccController() if scenario.lead is not None else None,
    )
    return LaneSpec(scenario=scenario, follower=follower, campaign=campaign)


def _execute_batch(points: list[tuple], merge) -> None:
    """Simulate a compatible group in lockstep, then score each lane.

    The batched simulation produces all lanes at once, so its wall time
    is attributed evenly across the group's points; check/diagnose stay
    per-point.  Raises (e.g. :class:`~repro.sim.batch.BatchCompatError`)
    bubble to the caller, which falls back to the serial/pool path.
    """
    specs = [_batch_lane_spec(point) for point in points]
    t0 = time.perf_counter()
    results = run_batch(specs)
    sim_share = (time.perf_counter() - t0) / len(points)
    for point, result in zip(points, results):
        t1 = time.perf_counter()
        report = check_trace(result.trace)
        t2 = time.perf_counter()
        diagnosis = diagnose(report)
        t3 = time.perf_counter()
        run = GridRun(
            scenario=point[0], controller=point[1], attack=point[2],
            intensity=point[3], seed=point[4],
            result=result, report=report, diagnosis=diagnosis,
        )
        merge(point, run,
              {"simulate": sim_share, "check": t2 - t1, "diagnose": t3 - t2})


def _execute_chunk(points: list[tuple]) -> list[tuple]:
    """Pool work unit: execute a batch of points in one task.

    Failures are captured *per point* — ``(point, None, None, error)``
    instead of ``(point, run, phases, None)`` — so one sick point does
    not discard its chunk-mates' finished work.  Calls
    ``_execute_point`` through the module global so test sabotage
    (monkeypatched into forked workers) still applies.
    """
    out = []
    for point in points:
        try:
            out.append(_execute_point(point) + (None,))
        except Exception as exc:
            out.append((point, None, None, f"{type(exc).__name__}: {exc}"))
    return out


def scored_store() -> ScoredResultStore:
    """The process-wide params-keyed result store (memo + disk cache).

    Every off-grid run — the E10-E13 extension configurations and the
    counterfactual probes — resolves and commits through this store, so
    probe cache hits show up in :data:`~repro.experiments.stats.STATS`
    exactly like grid hits do.
    """
    return ScoredResultStore(RunCache.from_env(), _memo_get, _memo_put)


def run_scored(params: dict, simulate) -> tuple[RunResult, CheckReport]:
    """Cached execution of one *off-grid* closed-loop run.

    The extension experiments (E10-E13) run configurations the cartesian
    grid cannot express — gated estimators, concurrent attack pairs,
    injected controller defects, the car-following scenario.  This routes
    them through the same
    :class:`~repro.experiments.backend.ScoredResultStore` layers as
    :func:`run_grid` uses for grid points.

    Args:
        params: JSON-serializable dict that uniquely determines the run;
            it must cover every knob ``simulate`` closes over (a stale
            ``params`` means silently wrong cache hits).  Convention:
            include a ``"kind"`` discriminator per experiment family.
        simulate: zero-argument callable returning the
            :class:`~repro.sim.engine.RunResult`; only invoked on a miss.

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
    stats = GridStats(workers=1, grid_points=1)
    store = scored_store()
    hit = store.resolve(params) or store.resolve_failure(params)
    if hit is not None:
        value, source = hit
        if source == "memo":
            stats.memo_hits = 1
        else:
            stats.disk_hits = 1
        stats.wall_time = time.perf_counter() - wall_start
        STATS.record(stats)
        if isinstance(value, str):  # a stored crash message
            raise ValueError(value)
        return value

    stats.executed = 1
    try:
        t0 = time.perf_counter()
        try:
            result = simulate()
        except ValueError as exc:
            if type(exc) is ValueError:
                store.commit_failure(params, str(exc))
            raise
        finally:
            stats.phase_time["simulate"] = time.perf_counter() - t0
        t1 = time.perf_counter()
        report = check_trace(result.trace)
        stats.phase_time["check"] = time.perf_counter() - t1
        store.commit(params, (result, report))
    finally:
        if store.cache is not None:
            stats.disk_errors = store.cache.counters.errors
        stats.wall_time = time.perf_counter() - wall_start
        STATS.record(stats)
    return result, report


def run_grid(
    scenarios: tuple[str, ...] | list[str],
    controllers: tuple[str, ...] | list[str],
    attacks: tuple[str, ...] | list[str],
    seeds: tuple[int, ...] | list[int],
    intensity: float = 1.0,
    onset: float = 15.0,
    duration: float | None = None,
    workers: int | None = None,
    point_timeout: float | None = None,
    retries: int | None = None,
    sim_engine: str | None = None,
    executor: str | None = None,
    dist_workers: int | None = None,
    shard_points: int | None = None,
) -> list[GridRun]:
    """Run (and score) the full cartesian grid.

    Results come back in grid order (scenario-major, seed-minor) and are
    identical regardless of ``workers`` or ``executor`` — the backends
    only change how the uncached points are executed.  Hits are served
    from the in-process memo first, then from the persistent disk cache;
    freshly executed points are merged back into both layers *as they
    complete* (the incremental checkpoint an interrupted campaign
    resumes from).

    With ``sim_engine="batch"`` (or ``ADASSURE_SIM=batch``), compatible
    uncached points are grouped and stepped in lockstep through the
    array-native batch engine (:mod:`repro.sim.batch`) before anything
    reaches the pool; results are bit-identical to the serial engine, and
    any group the batch engine rejects falls back to the classic path.

    With ``executor="distributed"`` (or ``ADASSURE_EXECUTOR=distributed``),
    the uncached points are instead striped into lease-claimable shards
    and executed by ``dist_workers`` independent worker *processes*
    sharing the disk cache as their common result store — additional
    hosts can join the same campaign with ``adassure worker``.  Shard
    size is ``shard_points`` (or ``ADASSURE_SHARD_POINTS``).

    Execution is crash-tolerant: slow points are re-run serially after
    ``point_timeout`` seconds, a collapsed worker pool (or a wholly dead
    distributed fleet) degrades to serial execution of the surviving
    points, and a point that still fails after ``retries`` re-executions
    is quarantined — dropped from the returned list and reported via
    :data:`~repro.experiments.stats.STATS` — rather than aborting the
    campaign.  Callers that require the full grid can compare
    ``len(result)`` against their request.
    """
    wall_start = time.perf_counter()
    stats = GridStats(workers=1)

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
    try:
        # Resolve every unique point through memo -> disk -> pending list.
        # `resolved` pins this grid's runs so LRU eviction mid-call is safe.
        resolved: dict[tuple, GridRun] = {}
        pending: list[tuple] = []
        seen: set[tuple] = set()
        for point in grid:
            if point in seen:
                continue
            seen.add(point)
            hit = store.resolve(point)
            if hit is not None:
                run, source = hit
                resolved[point] = run
                if source == "memo":
                    stats.memo_hits += 1
                else:
                    stats.disk_hits += 1
                continue
            pending.append(point)

        def merge(point: tuple, run: GridRun, phases: dict | None) -> None:
            # Incremental checkpoint: every completed point lands in the
            # result store (memo + disk cache + manifest) as soon as it
            # finishes, so an interrupted campaign re-runs only what is
            # missing.  ``phases=None`` marks a point executed elsewhere
            # (a distributed worker) and adopted from the shared store —
            # already durable, so only the local bookkeeping runs.
            resolved[point] = run
            if phases is None:
                _memo_put(point, run)
                if manifest is not None:
                    manifest.complete(point)
                stats.dist_points += 1
                return
            store.commit(point, run)
            stats.executed += 1
            for phase, seconds in phases.items():
                stats.phase_time[phase] += seconds

        # Execute the misses through the executor chain.  The batch
        # engine (when selected) consumes whole compatible groups first;
        # the primary executor — process pool or distributed fleet —
        # takes the rest; all leftovers (timed-out points, collapse
        # survivors, dead-fleet remainders, first-failure points) fall
        # back to the terminal serial executor, which owns retries and
        # quarantine and always converges.
        mode = resolve_executor(executor)
        if mode == "distributed" and cache is None:
            warnings.warn(
                "the distributed executor needs the disk cache as its "
                "shared result store (ADASSURE_CACHE=0 disables it); "
                "falling back to the single-host executor chain",
                RuntimeWarning, stacklevel=2)
            mode = "auto"
        if mode == "distributed":
            # Distributed workers resolve their own engine from the shard
            # spec; auto-selection stays a local-chain concern.
            stats.sim_engine = resolve_sim_engine(sim_engine)
        else:
            stats.sim_engine, stats.sim_engine_reason = choose_sim_engine(
                sim_engine, len(pending))
        items = [(point, 0) for point in pending]

        if mode == "distributed" and items:
            from repro.experiments.distributed import DistributedExecutor
            n_dist = resolve_dist_workers(dist_workers)
            dist = DistributedExecutor(
                grid, store, n_dist, shard_points=shard_points,
                sim_engine=stats.sim_engine)
            items = dist.execute(items, merge, stats)
            stats.pool_policy = "distributed"
        else:
            if stats.sim_engine == "batch" and len(items) > 1:
                items = BatchExecutor().execute(items, merge, stats)
            n_workers = resolve_workers(workers)
            use_pool = (mode in ("auto", "pool")
                        and n_workers > 1 and len(items) > 1)
            if use_pool and workers is None and (os.cpu_count() or 1) < 2:
                # Measured: on a single exposed core the pool's
                # pickle/dispatch overhead makes it *slower* than serial
                # (~0.87x).  When the count came from the environment
                # rather than an explicit argument, auto-select the
                # serial path and record why.
                use_pool = False
                stats.pool_policy = "serial-single-core"
            else:
                stats.pool_policy = "pool" if use_pool else "serial"
            stats.workers = min(n_workers, len(items)) if use_pool else 1
            if use_pool:
                items = PoolExecutor(
                    stats.workers,
                    timeout=_point_timeout(point_timeout),
                ).execute(items, merge, stats)
        SerialExecutor(_point_retries(retries)).execute(
            items, merge, stats, store.quarantine)
    finally:
        # The lease must not outlive the campaign: a leaked lease
        # would lock this grid's ledger until the TTL expires.
        store.close()

    if cache is not None:
        stats.disk_errors = cache.counters.errors
    stats.wall_time = time.perf_counter() - wall_start
    STATS.record(stats)

    return [resolved[point] for point in grid if point in resolved]
