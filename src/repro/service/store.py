"""Crash-safe session checkpoints for the trace-ingest server.

Generalizes the campaign checkpoint machinery (PR 2's
:class:`~repro.experiments.cache.CheckpointManifest`) to streaming
sessions.  A session's checkpoint is append-only:

* one **segment** ``<id>.<seq:06d>.seg.npz`` per accepted chunk, holding
  the chunk's payload exactly as it arrived (a version-stamped binary
  trace the session already decoded and checked), and
* a small JSON **manifest** ``<id>.session.json``: metadata, the cursor
  ``next_seq``, the finished flag and the verdict once issued.

Every file is written atomically (tmp + rename), segments before the
manifest that counts them, so a killed server leaves a manifest whose
cursor undersells the segments on disk (the client resends a chunk that
is deduplicated on seq), never one that oversells them.  The records are
segments ``0..next_seq-1``; anything beyond the cursor is a leftover of
an interrupted write or an earlier incarnation of the session id and is
never read.  A checkpoint therefore costs O(chunk), not O(session).

Exactly-once verdicts rest on this store: the verdict is persisted
*before* it is sent, so a client that disconnects mid-VERDICT and
resumes gets the **same** stored verdict — recomputation (which could
drift if code changed between server runs) never happens for a finished
session.  Reading it back needs only the manifest
(:meth:`SessionStore.manifest`), so stores written before the segment
layout still replay their finished verdicts.

Segments hold binary trace format version 2.  A store written by an
older build keeps its v1 segments: an unfinished session there fails to
load and resumes fresh (:meth:`SessionStore.load`'s contract for any
unreadable checkpoint), and a finished one replays its verdict from the
manifest as before.

The whole store directory is guarded by an advisory
:class:`~repro.locking.FileLease` (same machinery as the campaign
manifest): a second server instance pointed at a live store's directory
is told so and must refuse to start, because two writers checkpointing
the same sessions would corrupt each other's ledgers.  Saves re-stamp
the lease at most every quarter TTL, not once per chunk.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Callable, Iterable
from pathlib import Path

from repro.config import default_cache_dir
from repro.locking import FileLease, LeaseConflict
from repro.trace.io import TraceIOError, trace_from_bytes
from repro.trace.schema import Trace, TraceMeta, TraceRecord

__all__ = ["LeaseConflict", "SessionCheckpoint", "SessionStore",
           "default_store_dir"]

_MANIFEST_SUFFIX = ".session.json"
_SEGMENT_SUFFIX = ".seg.npz"


def default_store_dir() -> Path:
    """``$ADASSURE_SERVICE_DIR``, else ``<cache root>/service-sessions``."""
    env = os.environ.get("ADASSURE_SERVICE_DIR")
    if env:
        return Path(env).expanduser()
    return default_cache_dir() / "service-sessions"


class SessionCheckpoint:
    """One session's persisted state, as loaded from disk.

    ``blocks`` holds the decoded segments in order (columnar traces; no
    record is built), or ``None`` when only the manifest was read
    (:meth:`SessionStore.manifest`).
    """

    __slots__ = ("session_id", "meta", "blocks", "next_seq", "finished",
                 "verdict")

    def __init__(self, session_id: str, meta: TraceMeta,
                 blocks: list[Trace] | None, next_seq: int,
                 finished: bool, verdict: dict | None):
        self.session_id = session_id
        self.meta = meta
        self.blocks = blocks
        self.next_seq = next_seq
        self.finished = finished
        self.verdict = verdict

    @property
    def records(self) -> list[TraceRecord] | None:
        """The segments' records, materialised on demand."""
        if self.blocks is None:
            return None
        return [record for block in self.blocks for record in block.records]


class SessionStore:
    """Directory of per-session checkpoints, single-writer by lease."""

    HEARTBEAT_FRACTION = 0.25
    """Saves re-stamp the lease once this fraction of its TTL has passed
    since the last stamp: far inside the TTL, yet not a read, a write
    and a rename per chunk."""

    def __init__(self, root: str | Path | None = None, *,
                 clock: Callable[[], float] = time.monotonic):
        self.root = (Path(root).expanduser() if root is not None
                     else default_store_dir())
        self.lease = FileLease(self.root / "store.lease")
        self.writes = 0
        self.loads = 0
        self._clock = clock
        self._stamped_at: float | None = None

    def acquire(self) -> None:
        """Claim the store; raises :class:`LeaseConflict` if another
        live server owns it (two writers would corrupt the ledgers)."""
        self.root.mkdir(parents=True, exist_ok=True)
        self.lease.acquire(raising=True)

    def release(self) -> None:
        self.lease.release()

    # -- paths -----------------------------------------------------------
    def _safe_id(self, session_id: str) -> str:
        # Session ids come from clients: never let one escape the store
        # directory or collide via path tricks.
        return "".join(c if c.isalnum() or c in "-_." else "_"
                       for c in session_id)[:128]

    def _manifest_path(self, session_id: str) -> Path:
        return self.root / (self._safe_id(session_id) + _MANIFEST_SUFFIX)

    def _segment_path(self, session_id: str, seq: int) -> Path:
        return self.root / (
            f"{self._safe_id(session_id)}.{seq:06d}{_SEGMENT_SUFFIX}")

    def _segment_paths(self, session_id: str) -> list[Path]:
        """Every segment file of the session on disk, cursor or not."""
        prefix = self._safe_id(session_id) + "."
        # The glob also matches ids that extend this one ("veh" vs
        # "veh.1"); only an all-digit sequence field is ours.
        return [p for p in self.root.glob(prefix + "*" + _SEGMENT_SUFFIX)
                if p.name[len(prefix):-len(_SEGMENT_SUFFIX)].isdigit()]

    # -- persistence -----------------------------------------------------
    def _heartbeat(self) -> None:
        now = self._clock()
        if (self._stamped_at is None or now - self._stamped_at
                >= self.lease.ttl * self.HEARTBEAT_FRACTION):
            self.lease.refresh()
            self._stamped_at = now

    def _atomic_write(self, path: Path, data: bytes) -> None:
        tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def save(self, session_id: str, *, meta: TraceMeta,
             segments: Iterable[tuple[int, bytes]], next_seq: int,
             finished: bool, verdict: dict | None) -> None:
        """Append ``(seq, payload)`` segments, then rewrite the manifest.

        Segments are written first: a crash before the manifest lands
        leaves the old cursor, which undersells what is on disk (safe —
        the client resends a chunk that is deduplicated on seq), never
        one that counts a segment that was not written.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        self._heartbeat()
        for seq, payload in segments:
            self._atomic_write(self._segment_path(session_id, seq), payload)
        manifest = {
            "session_id": session_id,
            "meta": meta.to_dict(),
            "next_seq": next_seq,
            "finished": finished,
            "verdict": verdict,
        }
        self._atomic_write(
            self._manifest_path(session_id),
            (json.dumps(manifest) + "\n").encode("utf-8"))
        self.writes += 1

    def manifest(self, session_id: str) -> SessionCheckpoint | None:
        """The session's manifest alone (``blocks`` is ``None``), or
        ``None`` if absent or unreadable.  Decodes no records: enough to
        tell whether a session has history and to replay its verdict."""
        try:
            manifest = json.loads(
                self._manifest_path(session_id).read_text(encoding="utf-8"))
            return SessionCheckpoint(
                session_id=manifest.get("session_id", session_id),
                meta=TraceMeta.from_dict(manifest.get("meta", {})),
                blocks=None,
                next_seq=int(manifest.get("next_seq", 0)),
                finished=bool(manifest.get("finished", False)),
                verdict=manifest.get("verdict"),
            )
        except (OSError, ValueError):
            return None

    def load(self, session_id: str) -> SessionCheckpoint | None:
        """The session's checkpoint with its segments, or ``None`` if the
        manifest or any segment inside its cursor is absent or unreadable.

        An unreadable checkpoint (torn write survived by the machine
        dying mid-rename, bit rot, a store from before the segment
        layout) is treated as absent: the client is told to restart the
        stream, which costs a resend, not correctness — never a
        shortened trace.
        """
        checkpoint = self.manifest(session_id)
        if checkpoint is None:
            return None
        try:
            blocks = [trace_from_bytes(
                self._segment_path(session_id, seq).read_bytes())
                for seq in range(checkpoint.next_seq)]
        except (OSError, ValueError, TraceIOError):
            return None
        checkpoint.blocks = blocks
        self.loads += 1
        return checkpoint

    def drop(self, session_id: str) -> None:
        """Delete one session's checkpoint files (post-verdict cleanup).

        The manifest goes first, so an interrupted drop leaves only
        segments that no manifest counts.
        """
        for path in (self._manifest_path(session_id),
                     *self._segment_paths(session_id)):
            try:
                path.unlink()
            except OSError:
                pass

    def session_ids(self) -> list[str]:
        """Every checkpointed session id currently on disk."""
        if not self.root.exists():
            return []
        return sorted(p.name[:-len(_MANIFEST_SUFFIX)]
                      for p in self.root.glob("*" + _MANIFEST_SUFFIX))
