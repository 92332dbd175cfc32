"""Pluggable campaign backends: scheduler / executor / result-store split.

:func:`~repro.experiments.runner.run_grid` used to hard-code one execution
strategy (memo -> disk cache -> optional batch prepass -> process pool ->
serial retry loop).  This module factors that pipeline into three small
interfaces so backends *compose* instead of being welded together:

* :class:`Scheduler` — partitions pending grid points into shards (pool
  chunks, lease-claimable distributed shards, one big serial shard);
* :class:`Executor`  — runs a shard list, merging completed points back
  as they finish and returning whatever still needs a fallback
  (:class:`BatchExecutor`, :class:`PoolExecutor`, :class:`SerialExecutor`,
  and the multi-host :class:`~repro.experiments.distributed.DistributedExecutor`);
* :class:`ResultStore` — the commit point every executor funnels through
  (in-process memo + content-addressed disk cache + checkpoint manifest).

The contract that makes composition safe: **a point is only ever observable
through the result store**, and a commit is atomic (the disk cache writes
tmp+rename).  Executors may die, be duplicated, or re-run points — the
store absorbs it, because a grid point is a pure function of its key and
re-commits are byte-identical.

Worker-side primitives (``_execute_point`` and friends) stay in
:mod:`~repro.experiments.runner` and are resolved through the module
global at call time, so test sabotage (and fork-propagated monkeypatches)
keeps working exactly as before.
"""

from __future__ import annotations

import os
import random
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable

__all__ = [
    "DEFAULT_RETRY_CAP",
    "BatchExecutor",
    "CacheResultStore",
    "ChunkScheduler",
    "Executor",
    "PoolExecutor",
    "ResultStore",
    "Scheduler",
    "ScoredResultStore",
    "SerialExecutor",
    "SingleShardScheduler",
    "StripedScheduler",
    "build_grid",
    "retry_cap",
    "retry_delay",
]

DEFAULT_RETRY_CAP = 30.0
"""Default cap on a point's *total* retry-backoff sleep, seconds
(``ADASSURE_RETRY_CAP``)."""

_RNG = random.Random()
"""Process-local jitter source: seeded per process, so a fleet of workers
that fails simultaneously does not retry in lockstep."""


def build_grid(
    scenarios,
    controllers,
    attacks,
    seeds,
    intensity: float = 1.0,
    onset: float = 15.0,
    duration: float | None = None,
) -> list[tuple]:
    """The canonical point list (scenario-major, seed-minor).

    Shared by :func:`~repro.experiments.runner.run_grid` and the
    distributed :class:`~repro.experiments.distributed.GridSpec`, so a
    worker on another host enumerates byte-identical point tuples (and
    therefore identical cache keys) from the serialized campaign spec.
    """
    return [
        (scenario, controller, attack, float(intensity), int(seed),
         float(onset), None if duration is None else float(duration))
        for scenario in scenarios
        for controller in controllers
        for attack in attacks
        for seed in seeds
    ]


def retry_cap(cap: float | None = None) -> float:
    """Per-point total backoff budget: argument > env > default."""
    if cap is None:
        env = os.environ.get("ADASSURE_RETRY_CAP")
        if env:
            try:
                cap = float(env)
            except ValueError:
                cap = None
    if cap is None:
        cap = DEFAULT_RETRY_CAP
    return max(float(cap), 0.0)


def retry_delay(failures: int, slept: float, *, base: float | None = None,
                cap: float | None = None, rng=None) -> float:
    """Jittered, capped exponential backoff before retry ``failures``.

    ``base * 2**(failures-1)`` scaled by a uniform jitter in ``[0.5, 1.5)``
    so N workers that hit the same transient fault (an NFS blip on the
    shared cache, a briefly unreachable store) do not retry in lockstep
    and re-create the stampede that failed them.  The *total* sleep a
    single point may accumulate across its retries is capped
    (``slept`` is the accumulated sleep so far): past the cap, retries
    proceed immediately rather than stretching the campaign tail.
    """
    if base is None:
        from repro.experiments import runner
        base = runner._RETRY_BACKOFF
    delay = base * (2 ** (max(failures, 1) - 1))
    delay *= 0.5 + (rng if rng is not None else _RNG).random()
    remaining = retry_cap(cap) - slept
    return max(min(delay, remaining), 0.0)


# ---------------------------------------------------------------------------
# Scheduler: how pending points become shards
# ---------------------------------------------------------------------------

class Scheduler(ABC):
    """Partitions a pending point list into executor-sized shards."""

    @abstractmethod
    def shards(self, points: list[tuple]) -> list[list[tuple]]:
        """Non-empty, non-overlapping shards covering ``points`` in order."""


class SingleShardScheduler(Scheduler):
    """Everything in one shard — the serial executor's natural unit."""

    def shards(self, points: list[tuple]) -> list[list[tuple]]:
        return [list(points)] if points else []


class ChunkScheduler(Scheduler):
    """Pool-task chunks: ``$ADASSURE_CHUNK`` or a load-balance heuristic.

    Chunks amortize per-task pickle/dispatch overhead but must stay small
    enough that every worker gets several (load balancing, and a lost
    chunk costs little).  Four chunks per worker, capped at 8 points
    each; small grids keep chunk size 1.
    """

    def __init__(self, n_workers: int):
        self.n_workers = max(int(n_workers), 1)
        self.chunk_size = 1

    def shards(self, points: list[tuple]) -> list[list[tuple]]:
        size = None
        env = os.environ.get("ADASSURE_CHUNK")
        if env:
            try:
                size = max(int(env), 1)
            except ValueError:
                size = None
        if size is None:
            size = max(1, min(8, len(points) // (4 * self.n_workers)))
        self.chunk_size = size
        return [points[i:i + size] for i in range(0, len(points), size)]


class StripedScheduler(Scheduler):
    """Contiguous stripes of ``shard_points`` — the distributed claim unit.

    Contiguous (rather than round-robin) slices keep batch-compatible
    neighbours together, so a worker that runs its shard through the
    lockstep engine still finds full groups.
    """

    def __init__(self, shard_points: int):
        self.shard_points = max(int(shard_points), 1)

    def shards(self, points: list[tuple]) -> list[list[tuple]]:
        return [points[i:i + self.shard_points]
                for i in range(0, len(points), self.shard_points)]


# ---------------------------------------------------------------------------
# ResultStore: the shared commit point
# ---------------------------------------------------------------------------

class ResultStore(ABC):
    """Where completed points become durable (and duplicates collapse)."""

    @abstractmethod
    def resolve(self, point: tuple):
        """``(GridRun, source)`` for an already-known point, else ``None``.

        ``source`` is ``"memo"`` or ``"disk"`` so the caller can account
        hits per layer.
        """

    @abstractmethod
    def commit(self, point: tuple, run) -> None:
        """Persist one completed point (idempotent, atomic on disk)."""

    @abstractmethod
    def quarantine(self, point: tuple, error: str) -> None:
        """Ledger a point that exhausted its retries."""

    def close(self) -> None:
        """Release any campaign-level resources (leases)."""


class CacheResultStore(ResultStore):
    """Memo + :class:`~repro.experiments.cache.RunCache` +
    :class:`~repro.experiments.cache.CheckpointManifest` as one commit point.

    This is the object that makes every executor interchangeable: a point
    committed here is visible to the in-process memo, to every other
    process sharing the cache directory (the distributed workers' common
    store), and to the campaign's resume ledger — in that order, so a
    crash between steps loses bookkeeping, never results.
    """

    def __init__(self, cache, catalog: str | None, manifest,
                 memo_get: Callable, memo_put: Callable):
        self.cache = cache
        self.catalog = catalog
        self.manifest = manifest
        self._memo_get = memo_get
        self._memo_put = memo_put

    # -- keys -----------------------------------------------------------
    def key(self, point: tuple) -> str | None:
        if self.cache is None:
            return None
        from repro.experiments.cache import cache_key
        return cache_key(*point, catalog=self.catalog)

    def contains(self, point: tuple) -> bool:
        key = self.key(point)
        return key is not None and self.cache.contains(key)

    # -- ResultStore ----------------------------------------------------
    def resolve(self, point: tuple):
        run = self._memo_get(point)
        if run is not None:
            if self.manifest is not None:
                self.manifest.complete(point)
            return run, "memo"
        run = self.load(point)
        if run is not None:
            self._memo_put(point, run)
            if self.manifest is not None:
                self.manifest.complete(point)
            return run, "disk"
        return None

    def load(self, point: tuple):
        """Disk-only lookup (no memo, no manifest side effects)."""
        if self.cache is None:
            return None
        entry = self.cache.load(self.key(point))
        if entry is None:
            return None
        from repro.experiments.runner import GridRun
        result, report, diagnosis = entry
        return GridRun(
            scenario=point[0], controller=point[1], attack=point[2],
            intensity=point[3], seed=point[4],
            result=result, report=report, diagnosis=diagnosis,
        )

    def commit(self, point: tuple, run) -> None:
        self._memo_put(point, run)
        if self.cache is not None:
            # Result-commit-before-ledger-update: the atomic cache write
            # is the point's durability moment; everything after is
            # bookkeeping a crash may lose without losing work.
            self.cache.store(self.key(point), run.result, run.report,
                             run.diagnosis)
        if self.manifest is not None:
            self.manifest.complete(point)

    def quarantine(self, point: tuple, error: str) -> None:
        if self.manifest is not None:
            self.manifest.quarantine(point, error)

    def close(self) -> None:
        if self.manifest is not None:
            self.manifest.release()


class ScoredResultStore(ResultStore):
    """Memo + :class:`~repro.experiments.cache.RunCache` commit point for
    *params-keyed* off-grid runs.

    :class:`CacheResultStore` addresses grid points by their grid tuple;
    this sibling addresses everything the cartesian grid cannot express —
    the E10–E13 extension configurations (via
    :func:`~repro.experiments.runner.run_scored`) and the counterfactual
    probe fleet (:mod:`repro.experiments.counterfactual`) — by a canonical
    JSON params dict hashed through
    :func:`~repro.experiments.cache.cache_key_params`.  Same layers, same
    contract: a commit is atomic and content-addressed, so re-running a
    probe anywhere that shares the cache directory (a pool worker, a
    distributed fleet member) collapses to one entry — exactly-once by
    construction, not by coordination.

    A "point" here is the params dict itself; stored values are
    ``(RunResult, CheckReport)`` pairs (diagnosis is knowledge-base
    dependent and recomputed by callers), or, for a run whose simulation
    deterministically crashed, the crash message
    (:meth:`commit_failure` / :meth:`resolve_failure`).
    """

    def __init__(self, cache, memo_get: Callable, memo_put: Callable,
                 catalog: str | None = None):
        self.cache = cache
        self.catalog = catalog
        self._memo_get = memo_get
        self._memo_put = memo_put

    # -- keys -----------------------------------------------------------
    @staticmethod
    def canonical(params: dict) -> str:
        import json
        return json.dumps(params, sort_keys=True, separators=(",", ":"))

    def memo_key(self, params: dict) -> tuple:
        return ("scored", self.canonical(params))

    def failure_memo_key(self, params: dict) -> tuple:
        return ("scored-failure", self.canonical(params))

    def key(self, params: dict) -> str | None:
        if self.cache is None:
            return None
        from repro.experiments.cache import cache_key_params
        return cache_key_params(params, catalog=self.catalog)

    # -- ResultStore ----------------------------------------------------
    def resolve(self, params: dict):
        pair = self._memo_get(self.memo_key(params))
        if pair is not None:
            return pair, "memo"
        if self.cache is None:
            return None
        entry = self.cache.load(self.key(params))
        if entry is None:
            return None
        result, report, _diagnosis = entry
        pair = (result, report)
        self._memo_put(self.memo_key(params), pair)
        return pair, "disk"

    def commit(self, params: dict, pair) -> None:
        self._memo_put(self.memo_key(params), pair)
        if self.cache is not None:
            result, report = pair
            key = self.key(params)
            self.cache.store(key, result, report, None)
            # Sidecar ledger: lets `adassure explain <key>` reverse-map
            # off-grid entries back to their params dict.
            self.cache.record_params(key, params)

    def resolve_failure(self, params: dict):
        """``(message, source)`` of a stored deterministic crash, or
        ``None``; same layers as :meth:`resolve`."""
        message = self._memo_get(self.failure_memo_key(params))
        if message is not None:
            return message, "memo"
        if self.cache is None:
            return None
        message = self.cache.load_failure(self.key(params))
        if message is None:
            return None
        self._memo_put(self.failure_memo_key(params), message)
        return message, "disk"

    def commit_failure(self, params: dict, message: str) -> None:
        """Store a run's deterministic crash under the key its result
        would have had."""
        self._memo_put(self.failure_memo_key(params), message)
        if self.cache is not None:
            self.cache.store_failure(self.key(params), message)

    def quarantine(self, params: dict, error: str) -> None:
        """Off-grid runs keep no campaign ledger; failures raise to the
        caller instead of being quarantined."""


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------

class Executor(ABC):
    """Runs ``(point, failures)`` work items, merging completions.

    ``merge(point, run, phases)`` is called for every completed point as
    it finishes (the incremental checkpoint).  The return value is the
    leftover items — points this executor could not finish, with their
    accumulated failure counts — which the caller hands to the next
    executor in the chain (ultimately :class:`SerialExecutor`, which
    owns retries and quarantine and never leaves leftovers).
    """

    name = "executor"

    @abstractmethod
    def execute(self, items: list[tuple], merge, stats,
                quarantine=None) -> list[tuple]:
        """items/return: ``[(point, failures), ...]``."""


class BatchExecutor(Executor):
    """Lockstep prepass: compatible groups through the array-native engine.

    Groups by ``(scenario, duration)`` — the compatibility key the batch
    engine requires — capped at the configured lane count.  Any group the
    engine rejects falls back *whole* to the next executor; singleton
    groups skip the engine entirely.
    """

    name = "batch"

    def execute(self, items, merge, stats, quarantine=None):
        from repro.experiments import runner
        from repro.sim.batch.engine import batch_counters
        counters0 = batch_counters()
        points = [point for point, _ in items]
        groups: dict[tuple, list[tuple]] = {}
        for point in points:
            groups.setdefault((point[0], point[6]), []).append(point)
        cap = runner._batch_lanes()
        leftover: list[tuple] = []
        for group in groups.values():
            for i in range(0, len(group), cap):
                chunk = group[i:i + cap]
                if len(chunk) < 2:
                    leftover.extend((p, 0) for p in chunk)
                    continue
                try:
                    runner._execute_batch(chunk, merge)
                except Exception:
                    stats.batch_fallbacks += 1
                    leftover.extend((p, 0) for p in chunk)
                else:
                    stats.batch_groups += 1
                    stats.batch_points += len(chunk)
        stats.add_batch_counters(counters0, batch_counters())
        return leftover


class PoolExecutor(Executor):
    """Crash-tolerant single-host ``ProcessPoolExecutor`` fan-out.

    The pool half of the fault-tolerance contract: a chunk that exceeds
    its wall-clock budget is abandoned (its worker may be hung, so the
    pool is dropped without joining it), a point that raises comes back
    with one failure on its ledger, and a pool collapse
    (:class:`BrokenProcessPool` — a worker OOM-killed or dying mid-task)
    returns every unfinished point.  Leftovers go to the serial path,
    which owns retries and quarantine.
    """

    name = "pool"

    def __init__(self, n_workers: int, timeout: float | None = None):
        self.n_workers = max(int(n_workers), 1)
        self.timeout = timeout

    def execute(self, items, merge, stats, quarantine=None):
        from repro.experiments import runner
        points = [point for point, _ in items]
        scheduler = ChunkScheduler(self.n_workers)
        chunks = scheduler.shards(points)
        stats.chunk_size = scheduler.chunk_size
        leftover: list[tuple] = []
        abandoned = False
        pool = ProcessPoolExecutor(max_workers=self.n_workers)

        def merge_outcomes(outcomes: list[tuple]) -> None:
            for point, run, phases, error in outcomes:
                if error is None:
                    merge(point, run, phases)
                else:
                    leftover.append((point, 1))

        try:
            futures = [(pool.submit(runner._execute_chunk, chunk), chunk)
                       for chunk in chunks]
            for index, (future, chunk) in enumerate(futures):
                budget = (None if self.timeout is None
                          else self.timeout * len(chunk))
                try:
                    outcomes = future.result(timeout=budget)
                except FutureTimeout:
                    stats.timeouts += 1
                    leftover.extend((point, 0) for point in chunk)
                    abandoned = True
                    continue
                except BrokenProcessPool:
                    stats.pool_failures += 1
                    for late_future, late_chunk in futures[index:]:
                        if (late_future.done() and not late_future.cancelled()
                                and late_future.exception() is None):
                            merge_outcomes(late_future.result())
                        else:
                            leftover.extend((p, 0) for p in late_chunk)
                    break
                except Exception:
                    # Chunk-level failure (e.g. the result failed to
                    # pickle): every point gets one failure on its ledger.
                    leftover.extend((point, 1) for point in chunk)
                    continue
                merge_outcomes(outcomes)
        finally:
            # A hung worker must not hang the campaign: once a chunk has
            # been abandoned, drop the pool without waiting for it.
            pool.shutdown(wait=not abandoned, cancel_futures=True)
        return leftover


class SerialExecutor(Executor):
    """The terminal executor: bounded retry + jittered backoff + quarantine.

    Each point gets ``retries`` re-executions beyond its first attempt
    (failures inherited from earlier executors count against the budget),
    with jittered exponential backoff between attempts
    (:func:`retry_delay`) whose accumulated sleep is capped per point
    (``ADASSURE_RETRY_CAP``) so a flaky tail cannot stretch a campaign
    indefinitely.  A point that exhausts the budget is quarantined —
    recorded in ``stats`` and via ``quarantine`` — instead of aborting
    the campaign.  Never leaves leftovers.
    """

    name = "serial"

    def __init__(self, retries: int):
        self.retries = max(int(retries), 0)

    def execute(self, items, merge, stats, quarantine=None):
        from repro.experiments import runner
        for point, failures in items:
            slept = 0.0
            while True:
                if failures:
                    stats.retries += 1
                    delay = retry_delay(failures, slept)
                    slept += delay
                    if delay > 0.0:
                        time.sleep(delay)
                try:
                    merge(*runner._execute_point(point))
                    break
                except Exception as exc:
                    failures += 1
                    if failures > self.retries:
                        error = f"{type(exc).__name__}: {exc}"
                        stats.quarantined.append((point, error))
                        if quarantine is not None:
                            quarantine(point, error)
                        break
        return []
