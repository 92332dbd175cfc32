"""One execute path for every run, and the result stores it commits to.

Every simulation the experiments need — grid points, the E10–E14
off-grid configurations, counterfactual probes — is one :class:`Run`: a
store key plus a builder for its :class:`~repro.sim.engine.LaneSpec`, the
one description of a closed-loop run.  :func:`execute` takes a list of
them through the same five steps:

1. **resolve** each run through a :class:`ResultStore` (in-process memo,
   then the content-addressed disk cache, stored crashes included);
2. **group** the misses by their batch compatibility key
   ``(scenario, duration)``, in chunks of ``ADASSURE_BATCH_LANES``;
3. **batch** each chunk through the lockstep engine
   (:func:`~repro.sim.batch.run_batch`); a chunk the engine rejects
   falls back *whole* to the serial oracle on the same specs;
4. run the rest on the **serial oracle**
   (:class:`~repro.sim.engine.SimulationRunner`), with bounded retries
   and jittered backoff where the caller asks for them;
5. **check** each trace and **commit** the result (or a deterministic
   crash) to the store.  A speculative execute (``commit=False``) stops
   before the check and hands the raw results back.

The contract that makes this safe: **a run is only ever observable
through the result store**, and a commit is atomic (the disk cache
writes tmp+rename).  Runs may be duplicated or re-run — by a distributed
worker, by a speculative lane — and the store absorbs it, because a run
is a pure function of its key and re-commits are byte-identical.

Two stores share one contract: :class:`CacheResultStore` keys grid
points by their grid tuple (and keeps the campaign's checkpoint
manifest), :class:`ScoredResultStore` keys everything else by a params
dict.
"""

from __future__ import annotations

import os
import random
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

from repro.config import env_number

__all__ = [
    "DEFAULT_BATCH_LANES",
    "DEFAULT_RETRY_CAP",
    "CacheResultStore",
    "ResultStore",
    "Run",
    "ScoredResultStore",
    "batch_lanes",
    "build_grid",
    "choose_sim_engine",
    "execute",
    "resolve_sim_engine",
    "retry_cap",
    "retry_delay",
]

DEFAULT_BATCH_LANES = 64
"""Default lanes per batched simulation group (``ADASSURE_BATCH_LANES``)."""

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


def batch_lanes() -> int:
    """Lanes per batch group: ``ADASSURE_BATCH_LANES`` or the default."""
    return max(env_number("ADASSURE_BATCH_LANES", DEFAULT_BATCH_LANES), 2)


def retry_cap(cap: float | None = None) -> float:
    """Per-point total backoff budget: argument > env > default."""
    if cap is None:
        cap = env_number("ADASSURE_RETRY_CAP", DEFAULT_RETRY_CAP, float)
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
# ResultStore: the shared commit point
# ---------------------------------------------------------------------------

class ResultStore(ABC):
    """Where completed runs become durable (and duplicates collapse)."""

    @abstractmethod
    def resolve(self, key):
        """``(value, source)`` for an already-known run, else ``None``.

        ``source`` is ``"memo"`` or ``"disk"`` so the caller can account
        hits per layer.
        """

    @abstractmethod
    def value(self, key, result, report):
        """What this store keeps for a freshly checked run."""

    @abstractmethod
    def commit(self, key, value) -> None:
        """Persist one completed run (idempotent, atomic on disk)."""

    def resolve_failure(self, key):
        """``(message, source)`` of a stored deterministic crash, else
        ``None`` (stores that keep no crashes never have one)."""
        return None

    def commit_failure(self, key, message: str) -> None:
        """Store a run's deterministic crash (a no-op where crashes are
        not kept)."""

    def quarantine(self, key, error: str) -> None:
        """Ledger a run that exhausted its retries."""

    def close(self) -> None:
        """Release any campaign-level resources (leases)."""


class CacheResultStore(ResultStore):
    """Memo + :class:`~repro.experiments.cache.RunCache` +
    :class:`~repro.experiments.cache.CheckpointManifest` as one commit point.

    A point committed here is visible to the in-process memo, to every
    other process sharing the cache directory (the distributed workers'
    common store), and to the campaign's resume ledger — in that order,
    so a crash between steps loses bookkeeping, never results.  Its
    values are :class:`~repro.experiments.runner.GridRun` objects, so a
    grid point is diagnosed before it is stored.
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

    def value(self, point: tuple, result, report):
        from repro.core.diagnosis import diagnose
        from repro.experiments.runner import GridRun
        return GridRun(
            scenario=point[0], controller=point[1], attack=point[2],
            intensity=point[3], seed=point[4],
            result=result, report=report, diagnosis=diagnose(report),
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
    probe anywhere that shares the cache directory collapses to one
    entry — exactly-once by construction, not by coordination.

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

    def value(self, params: dict, result, report):
        return result, report

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


# ---------------------------------------------------------------------------
# Runs and the one execute path
# ---------------------------------------------------------------------------

@dataclass(slots=True, eq=False)
class Run:
    """One run for :func:`execute`: where its result lives and how to
    build its description.

    :func:`execute` fills in the outcome: ``value`` and ``source``
    (``"memo"``/``"disk"`` for a store hit, ``"fleet"`` for a result a
    distributed worker committed, ``"sim"`` for a fresh simulation), or
    ``error`` for a run that failed.
    """

    key: object
    """Store key: a grid point tuple or an off-grid params dict."""
    build: Callable
    """Zero-argument builder of the run's
    :class:`~repro.sim.engine.LaneSpec`; called at most once."""
    group: tuple | None = None
    """Batch compatibility key (``(scenario, duration)``); ``None`` keeps
    the run on the serial oracle."""
    value: object = None
    """The store's value (a raw :class:`~repro.sim.engine.RunResult` for
    a speculative execute)."""
    source: str = ""
    error: Exception | None = None
    _spec: object = None

    @property
    def done(self) -> bool:
        return bool(self.source) or self.error is not None

    def spec(self):
        """The run's :class:`~repro.sim.engine.LaneSpec`, built once."""
        if self._spec is None:
            self._spec = self.build()
        return self._spec


def _simulate(run: Run):
    """The serial oracle: one run through its own
    :class:`~repro.sim.engine.SimulationRunner`.  Looked up through the
    module global at call time, so a test can sabotage it."""
    return run.spec().run()


def execute(runs: list[Run], store: ResultStore, stats, *,
            engine: str | None = None, lanes: int | None = None,
            commit: bool = True, retries: int = 0,
            fleet: Callable | None = None,
            run_batch: Callable | None = None) -> list[Run]:
    """Resolve, simulate, check and commit ``runs``; returns the failed
    ones (each with its ``error``; later runs still execute).

    Args:
        runs: the runs, in order; duplicates are the caller's to drop.
        store: where hits resolve and results commit.
        stats: the :class:`~repro.experiments.stats.GridStats` record the
            hits, executions, batch groups and phase times add to.
        engine: ``"batch"``, ``"serial"`` or ``None`` (auto), chosen by
            :func:`choose_sim_engine` over the misses when any of them
            has a batch group; serial runs every miss on the oracle.
        lanes: lanes per batch chunk (default :func:`batch_lanes`).
        commit: off, the execute is *speculative*: hits are skipped
            uncounted, every chunk is a batch whatever ``engine`` says (a
            rejected one is left unsimulated, with no serial fallback,
            and runs without a group are skipped) and the raw results
            are returned unchecked and uncommitted in ``run.value``.
        retries: re-executions a failing serial run gets, with jittered
            backoff (:func:`retry_delay`), before it counts as failed.
        fleet: called with the misses before anything is simulated here;
            returns the runs still missing (the distributed coordinator,
            which adopts what its workers committed).
        run_batch: the lockstep engine's entry point (default
            :func:`repro.sim.batch.run_batch`, looked up at call time).

    A plain :class:`ValueError` out of a simulation is a deterministic
    crash: it is committed as a stored failure (where the store keeps
    them) and resolves as that error on later calls.  Committed singleton
    groups skip the engine: one lane gains nothing over the oracle.
    """
    from repro.core.checker import check_trace
    from repro.sim import batch as batch_engine
    from repro.sim.batch.engine import batch_counters

    run_batch = run_batch or batch_engine.run_batch
    executed0 = stats.executed
    misses: list[Run] = []
    for run in runs:
        hit = store.resolve(run.key)
        failure = None if hit is not None else store.resolve_failure(run.key)
        if hit is None and failure is None:
            misses.append(run)
            continue
        if not commit:
            continue  # speculation only simulates what nobody has
        if hit is not None:
            run.value, run.source = hit
        else:
            run.error = ValueError(failure[0])
            run.source = failure[1]
        if run.source == "memo":
            stats.memo_hits += 1
        else:
            stats.disk_hits += 1
    if fleet is not None and misses:
        misses = fleet(misses)

    batch = not commit
    if commit and any(run.group is not None for run in misses):
        stats.sim_engine, stats.sim_engine_reason = choose_sim_engine(
            engine, len(misses))
        batch = stats.sim_engine == "batch"
    groups: dict[tuple, list[Run]] = {}
    serial: list[Run] = []
    for run in misses:
        if batch and run.group is not None:
            groups.setdefault(run.group, []).append(run)
        elif commit:
            serial.append(run)

    def finish(run: Run, result) -> None:
        if not commit:
            run.value, run.source, run._spec = result, "sim", None
            return
        t0 = time.perf_counter()
        report = check_trace(result.trace)
        t1 = time.perf_counter()
        run.value = store.value(run.key, result, report)
        stats.phase_time["check"] += t1 - t0
        stats.phase_time["diagnose"] += time.perf_counter() - t1
        store.commit(run.key, run.value)
        run.source, run._spec = "sim", None

    cap = lanes or batch_lanes()
    counters0 = batch_counters()
    for group in groups.values():
        for start in range(0, len(group), cap):
            chunk = group[start:start + cap]
            if commit and len(chunk) < 2:
                serial.extend(chunk)
                continue
            t0 = time.perf_counter()
            try:
                results = run_batch([run.spec() for run in chunk])
            except Exception:
                stats.batch_fallbacks += 1
                if commit:
                    serial.extend(chunk)  # whole, on the same specs
                continue
            finally:
                stats.phase_time["simulate"] += time.perf_counter() - t0
            stats.batch_groups += 1
            stats.batch_points += len(chunk)
            stats.executed += len(chunk)
            for run, result in zip(chunk, results):
                finish(run, result)
    if groups:
        stats.add_batch_counters(counters0, batch_counters())

    for run in serial:
        result = _run_serial(run, store, stats, retries)
        if result is not None:
            finish(run, result)
    if stats.executed > executed0:
        used = "batch" if batch else "serial"
        stats.engine_executes[used] = stats.engine_executes.get(used, 0) + 1
    if store.cache is not None:
        stats.disk_errors = store.cache.counters.errors
    return [run for run in runs if run.error is not None]


def _run_serial(run: Run, store: ResultStore, stats, retries: int):
    """One run on the serial oracle, retried up to ``retries`` times; its
    result, or ``None`` with ``run.error`` set."""
    failures = 0
    slept = 0.0
    stats.executed += 1
    while True:
        if failures:
            stats.retries += 1
            delay = retry_delay(failures, slept)
            slept += delay
            if delay > 0.0:
                time.sleep(delay)
        t0 = time.perf_counter()
        try:
            return _simulate(run)
        except Exception as exc:
            failures += 1
            if failures > retries:
                run.error, run._spec = exc, None
                if type(exc) is ValueError:
                    store.commit_failure(run.key, str(exc))
                return None
        finally:
            stats.phase_time["simulate"] += time.perf_counter() - t0
