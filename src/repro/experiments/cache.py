"""Persistent, content-addressed on-disk cache for scored grid runs.

Every grid point the runner executes is a pure function of its inputs
(scenario, controller, attack, intensity, seed, onset, duration) *and* of
the code that scores it — the simulator is fully seeded and the assertion
catalog deterministic.  That makes runs content-addressable: the cache
key is a SHA-256 over the canonical input tuple salted with the package
version and the catalog fingerprint, so a cache populated by one catalog
revision is silently invalidated by the next.

Layout (under ``$ADASSURE_CACHE_DIR`` or ``~/.cache/adassure``)::

    <root>/v3/ab/<key>.trace.npz        version-stamped columnar binary
                                        trace (``repro.trace.io``;
                                        inspectable via `adassure check`)
    <root>/v3/ab/<key>.scored.pkl       pickled scenario + metrics +
                                        outcome + CheckReport + diagnosis
    <root>/v3/ab/<key>.failure.json     instead of the pair above: the
                                        message of a run whose simulation
                                        deterministically crashed

Traces are stored as the binary bytes themselves — no re-compression
wrapper — so a cache hit deserializes straight into the columnar view
the vectorized checker consumes.  Each layout lives under its own
``v<N>`` root, so entries of an older layout are never looked up: after
an upgrade they are plain misses, not load failures.  ``cache stats``
still counts them (``stale``) and ``cache clear`` removes them.

Entries are written atomically (tmp file + rename) so concurrent
campaigns can share a cache directory.  Any unreadable or truncated
entry is treated as a miss, deleted, and re-run — a corrupt cache can
cost time, never correctness.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import repro
from repro.config import default_cache_dir, env_flag
from repro.core.spec import catalog_fingerprint
from repro.core.verdicts import CheckReport
from repro.locking import FileLease
from repro.sim.engine import RunResult
from repro.trace.io import (
    TraceTruncationWarning,
    trace_from_bytes,
    trace_to_npz_bytes,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheCounters",
    "CheckpointManifest",
    "RunCache",
    "cache_key",
    "cache_key_params",
    "default_cache_dir",
    "grid_identity",
]

CACHE_FORMAT_VERSION = 3
"""Bumped whenever the on-disk entry layout changes.

v2: traces stored as columnar ``.trace.npz`` binary instead of gzip'd
JSONL (smaller entries, much faster loads, no double compression).
v3: the binary trace format's version 2 (one stored column block
instead of one deflated member per channel).
"""

_TRACE_SUFFIX = ".trace.npz"
_SCORED_SUFFIX = ".scored.pkl"
_FAILURE_SUFFIX = ".failure.json"


def cache_key(
    scenario: str,
    controller: str,
    attack: str,
    intensity: float,
    seed: int,
    onset: float,
    duration: float | None,
    *,
    catalog: str | None = None,
) -> str:
    """Content hash of one grid point.

    The salt covers everything a scored run depends on besides the grid
    coordinates: the entry format, the package version (code salt), and
    the effective assertion-catalog configuration.
    """
    payload = {
        "format": CACHE_FORMAT_VERSION,
        "code": repro.__version__,
        "catalog": catalog if catalog is not None else catalog_fingerprint(),
        "scenario": scenario,
        "controller": controller,
        "attack": attack,
        "intensity": float(intensity),
        "seed": int(seed),
        "onset": float(onset),
        "duration": None if duration is None else float(duration),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:40]


def cache_key_params(params: dict, *, catalog: str | None = None) -> str:
    """Content hash of an *off-grid* run described by a params dict.

    For runs the cartesian grid cannot key (gated estimators, concurrent
    attack pairs, injected controller defects, car-following scenarios).
    ``params`` must be JSON-serializable and include every knob the run
    depends on; the same version/catalog salt as :func:`cache_key`
    applies.
    """
    payload = {
        "format": CACHE_FORMAT_VERSION,
        "code": repro.__version__,
        "catalog": catalog if catalog is not None else catalog_fingerprint(),
        "params": params,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:40]


def grid_identity(grid: list[tuple]) -> str:
    """Stable campaign id: a hash of the full point list, version-salted.

    Names the campaign's checkpoint manifest, so every process that
    enumerates the same campaign — the first run, a resuming run, a
    concurrent one sharing the cache — agrees on one ledger.
    """
    payload = {
        "format": CACHE_FORMAT_VERSION,
        "code": repro.__version__,
        "grid": [list(point) for point in grid],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:40]


@dataclass(slots=True)
class CacheCounters:
    """Hit/miss accounting for one cache handle."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0
    """Entries that existed but failed to load (treated as misses)."""

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "errors": self.errors}


class RunCache:
    """Persistent store of scored runs, keyed by :func:`cache_key`.

    The value side is the ``(result, report, diagnosis)`` triple the grid
    runner produces: the trace travels as the columnar binary format
    (exact float round-trip), everything derived (scenario object,
    metrics, outcome, check report, diagnosis) as one pickle.  The grid
    does not serve the stored diagnosis: it re-diagnoses the stored
    report on every read, since no salt covers the knowledge base.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = (Path(root).expanduser() if root is not None
                     else default_cache_dir()) / f"v{CACHE_FORMAT_VERSION}"
        self.counters = CacheCounters()

    @staticmethod
    def from_env() -> "RunCache | None":
        """The process-wide cache, or ``None`` when disabled.

        ``ADASSURE_CACHE=0`` (or ``off``/``false``/``no``) turns the disk
        layer off entirely; ``ADASSURE_CACHE_DIR`` relocates it.

        Raises:
            ValueError: ``ADASSURE_CACHE`` is not a switch
                (:func:`~repro.config.env_flag`).
        """
        if not env_flag("ADASSURE_CACHE", True):
            return None
        return RunCache()

    # -- path helpers ---------------------------------------------------
    def _shard(self, key: str) -> Path:
        return self.root / key[:2]

    def _trace_path(self, key: str) -> Path:
        return self._shard(key) / (key + _TRACE_SUFFIX)

    def _scored_path(self, key: str) -> Path:
        return self._shard(key) / (key + _SCORED_SUFFIX)

    def _failure_path(self, key: str) -> Path:
        return self._shard(key) / (key + _FAILURE_SUFFIX)

    def contains(self, key: str) -> bool:
        return self._trace_path(key).exists() and self._scored_path(key).exists()

    # -- load/store -----------------------------------------------------
    def load(self, key: str):
        """``(RunResult, CheckReport, diagnosis)`` or ``None`` on miss.

        Corrupt or partial entries are evicted and reported as misses.
        """
        trace_path = self._trace_path(key)
        scored_path = self._scored_path(key)
        try:
            with warnings.catch_warnings():
                # Entries are written atomically, so a truncated payload
                # here is corruption, not an interrupted write — the
                # salvage path must not quietly serve a shortened trace.
                # (Binary traces already hard-fail on truncation; the
                # filter covers any legacy JSONL payloads the format
                # sniffer accepts.)
                warnings.simplefilter("error", TraceTruncationWarning)
                trace = trace_from_bytes(trace_path.read_bytes())
            with scored_path.open("rb") as f:
                scored = pickle.load(f)
            result = RunResult(
                trace=trace,
                metrics=scored["metrics"],
                outcome=scored["outcome"],
                scenario=scored["scenario"],
                controller_name=scored["controller_name"],
                attack_label=scored["attack_label"],
            )
            report = scored["report"]
            if not isinstance(report, CheckReport):
                raise TypeError("cache entry holds no CheckReport")
            self.counters.hits += 1
            return result, report, scored["diagnosis"]
        except FileNotFoundError:
            self.counters.misses += 1
            return None
        except Exception:
            # Truncated write, stale pickle from an old code layout,
            # bit rot: evict and re-simulate rather than crash a campaign.
            self.counters.errors += 1
            self.counters.misses += 1
            self.evict(key)
            return None

    def store(self, key: str, result: RunResult, report: CheckReport,
              diagnosis) -> None:
        """Persist one scored run; atomic, best-effort (IO errors are
        swallowed — the cache is an accelerator, not a database)."""
        try:
            shard = self._shard(key)
            shard.mkdir(parents=True, exist_ok=True)
            scored = {
                "metrics": result.metrics,
                "outcome": result.outcome,
                "scenario": result.scenario,
                "controller_name": result.controller_name,
                "attack_label": result.attack_label,
                "report": report,
                "diagnosis": diagnosis,
            }
            # Store the binary bytes directly: the payload is laid out
            # for fast loads (one stored column block), and wrapping it
            # in an encoder would cost the CPU that layout saves.
            self._atomic_write(self._trace_path(key),
                               trace_to_npz_bytes(result.trace))
            self._atomic_write(self._scored_path(key),
                               pickle.dumps(scored, protocol=pickle.HIGHEST_PROTOCOL))
            self.counters.stores += 1
        except Exception:
            # Disk full, permissions, an unpicklable report object —
            # storing is an optimization, so fail toward "miss next
            # time", never toward crashing the campaign.  Drop any
            # half-written pair so load() cannot see a torn entry.
            self.counters.errors += 1
            self.evict(key)

    # -- stored crashes -------------------------------------------------
    def load_failure(self, key: str) -> str | None:
        """The message of the crash stored under ``key``, or ``None``.

        Hit/miss counters are left to :meth:`load`, which callers ask
        first.  A corrupt entry is evicted and counted as an error, so
        the run simulates again.
        """
        try:
            message = json.loads(
                self._failure_path(key).read_text(encoding="utf-8"))["message"]
            if not isinstance(message, str):
                raise TypeError("failure entry holds no message")
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.counters.errors += 1
            self.evict(key)
            return None
        return message

    def store_failure(self, key: str, message: str) -> None:
        """Persist a run's deterministic crash; atomic and best-effort,
        like :meth:`store`."""
        try:
            self._shard(key).mkdir(parents=True, exist_ok=True)
            data = json.dumps({"message": message}) + "\n"
            self._atomic_write(self._failure_path(key), data.encode("utf-8"))
            self.counters.stores += 1
        except OSError:
            self.counters.errors += 1
            self.evict(key)

    # -- off-grid params ledger -----------------------------------------
    def _params_path(self, key: str) -> Path:
        return self.root / "params" / key[:2] / (key + ".params.json")

    def record_params(self, key: str, params: dict) -> None:
        """Ledger entry mapping an off-grid cache key to its params dict.

        Grid points are reverse-mappable through checkpoint manifests;
        off-grid runs (``run_scored`` / planner / probe entries) have no
        manifest, so the store keeps this sidecar ledger instead —
        :func:`~repro.experiments.counterfactual.resolve_cache_key`
        reads it to make ``adassure explain <key>`` work for them.
        Atomic and best-effort, like :meth:`store`.
        """
        try:
            path = self._params_path(key)
            if path.exists():
                return
            path.parent.mkdir(parents=True, exist_ok=True)
            data = json.dumps(params, sort_keys=True) + "\n"
            self._atomic_write(path, data.encode("utf-8"))
        except Exception:
            self.counters.errors += 1

    def load_params(self, key: str) -> dict | None:
        """The params dict recorded for ``key``, or ``None``."""
        try:
            return json.loads(
                self._params_path(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    def _atomic_write(self, path: Path, data: bytes) -> None:
        tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def evict(self, key: str) -> None:
        """Drop one entry (payload files or stored crash), ignoring
        races."""
        for path in (self._trace_path(key), self._scored_path(key),
                     self._failure_path(key)):
            try:
                path.unlink()
            except OSError:
                pass

    # -- lease/manifest health ------------------------------------------
    def _lease_events_path(self) -> Path:
        return self.root / "checkpoints" / "lease_events.log"

    def log_lease_event(self, kind: str, detail: dict) -> None:
        """Append one lease incident to the campaign directory's log.

        Conflicts are rare, operator-relevant events (a second campaign
        fighting over a ledger), so they are persisted — ``adassure
        cache stats`` reports the cumulative count.  One small JSON line
        per event; appends of a line this size are atomic on POSIX, and
        the log is best-effort anyway.
        """
        try:
            path = self._lease_events_path()
            path.parent.mkdir(parents=True, exist_ok=True)
            line = json.dumps({"kind": kind, "time": time.time(), **detail})
            with path.open("a", encoding="utf-8") as f:
                f.write(line + "\n")
        except OSError:
            pass

    def lease_event_count(self) -> int:
        """Lease incidents ever logged into this cache directory."""
        try:
            with self._lease_events_path().open("r", encoding="utf-8") as f:
                return sum(1 for line in f if line.strip())
        except OSError:
            return 0

    # -- maintenance ----------------------------------------------------
    def _stale_roots(self) -> list[Path]:
        """Roots of other entry layouts beside this one (``v1``, ``v2``,
        ...): never read by this build, still holding disk space."""
        parent = self.root.parent
        if not parent.is_dir():
            return []
        return sorted(p for p in parent.iterdir()
                      if p.is_dir() and p != self.root
                      and p.name[:1] == "v" and p.name[1:].isdigit())

    @staticmethod
    def _footprint(root: Path) -> tuple[int, int]:
        """``(entries, bytes)`` under one layout root; stored crashes
        count as entries."""
        if not root.exists():
            return 0, 0
        entries = sum(1 for suffix in (_SCORED_SUFFIX, _FAILURE_SUFFIX)
                      for _ in root.rglob("*" + suffix))
        total_bytes = sum(p.stat().st_size for p in root.rglob("*")
                          if p.is_file())
        return entries, total_bytes

    def stats(self) -> dict:
        """Entry count and byte footprint of the disk layer, plus the
        entries older layouts left behind."""
        entries, total_bytes = self._footprint(self.root)
        stale = [self._footprint(root) for root in self._stale_roots()]
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "stale_entries": sum(n for n, _ in stale),
            "stale_bytes": sum(b for _, b in stale),
            "session": self.counters.as_dict(),
        }

    def clear(self) -> int:
        """Delete every entry, older layouts' included; returns how many
        were removed."""
        stats = self.stats()
        for root in (self.root, *self._stale_roots()):
            if root.exists():
                shutil.rmtree(root, ignore_errors=True)
        return stats["entries"] + stats["stale_entries"]


class CheckpointManifest:
    """Progress ledger for one grid campaign, persisted under the cache.

    The per-point disk cache already makes an interrupted campaign
    resumable — completed points hit the cache on the next invocation.
    The manifest adds the *campaign-level* record the cache cannot
    express: which grid this was, how far it got, and which points were
    quarantined after exhausting their retries.  ``adassure`` campaigns
    write it incrementally (after every completed point), so a killed
    process leaves an accurate ledger behind.

    Layout: ``<cache root>/checkpoints/<grid id>.json`` where the grid id
    hashes the full point list with the usual version/catalog salt.

    Concurrent campaigns over the *same grid* in the *same cache dir* are
    guarded by an advisory :class:`~repro.locking.FileLease` sidecar
    (``<grid id>.lease``): the first writer owns the ledger, a second
    writer detects the live lease and goes **read-only** — it still runs
    (the per-point disk cache keeps the work shared and consistent) but
    stops flushing the manifest, so the owner's ledger cannot be
    corrupted by interleaved rewrites.  The conflict is surfaced on
    :attr:`lease_conflict` (and by the runner as a warning + stats
    field), never swallowed.  A lease whose heartbeat is older than the
    TTL (``ADASSURE_LEASE_TTL``) is treated as abandoned and taken over.
    """

    def __init__(self, path: Path, grid_id: str, total: int,
                 lease: FileLease | None = None):
        self.path = path
        self.grid_id = grid_id
        self.total = total
        self.completed: list[list] = []
        self.quarantined: list[dict] = []
        self._seen: set[tuple] = set()
        self.lease = lease if lease is not None else FileLease(
            path.with_suffix(".lease"))
        self.lease_conflict = not self.lease.acquire()
        try:
            prior = json.loads(self.path.read_text(encoding="utf-8"))
            if prior.get("grid_id") == grid_id:
                self.completed = list(prior.get("completed", []))
                self.quarantined = list(prior.get("quarantined", []))
                self._seen = {tuple(p) for p in self.completed}
        except (OSError, ValueError):
            pass  # absent or corrupt: start a fresh ledger

    @staticmethod
    def for_grid(cache: "RunCache | None",
                 grid: list[tuple]) -> "CheckpointManifest | None":
        """The manifest for this grid, or ``None`` with the cache off."""
        if cache is None:
            return None
        grid_id = grid_identity(grid)
        path = cache.root / "checkpoints" / (grid_id + ".json")
        manifest = CheckpointManifest(path, grid_id, total=len(grid))
        if manifest.lease_conflict:
            holder = manifest.lease.holder() or {}
            cache.log_lease_event("manifest-lease-conflict", {
                "grid_id": grid_id,
                "holder": holder.get("owner", "<unknown>"),
            })
        return manifest

    @property
    def resumed(self) -> int:
        """Points already ledgered by a previous (interrupted) campaign."""
        return len(self._seen)

    def complete(self, point: tuple) -> None:
        if point in self._seen:
            return
        self._seen.add(point)
        self.completed.append(list(point))
        self.flush()

    def quarantine(self, point: tuple, error: str) -> None:
        self.quarantined.append({"point": list(point), "error": error})
        self.flush()

    def release(self) -> None:
        """Give the manifest's lease back (campaign finished or aborted)."""
        self.lease.release()

    def flush(self) -> None:
        """Best-effort atomic write; IO errors never fail a campaign.

        A manifest that lost the lease race is read-only: flushing would
        interleave two writers' ledgers, so it is skipped entirely (the
        in-memory view still tracks this campaign's own progress).
        """
        if self.lease_conflict:
            return
        self.lease.refresh()
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            payload = {
                "grid_id": self.grid_id,
                "total": self.total,
                "completed": self.completed,
                "quarantined": self.quarantined,
            }
            tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(payload) + "\n", encoding="utf-8")
            os.replace(tmp, self.path)
        except OSError:
            pass
