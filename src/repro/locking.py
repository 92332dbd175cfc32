"""Advisory file leases for shared-directory writers.

Several subsystems persist incremental state into directories that more
than one process may reach at once: grid campaigns share a checkpoint-
manifest directory (two ``adassure experiment`` invocations pointed at
the same cache), and the monitoring service checkpoints sessions that a
second server instance could try to adopt.  Plain "last write wins"
silently corrupts those ledgers — each writer keeps flushing its own
view of the file, so completed work recorded by one is erased by the
other.

:class:`FileLease` is the shared guard: a small JSON sidecar file naming
the current owner (host, pid, a random token) and the wall-clock time of
its last heartbeat.  Acquisition is atomic (``O_CREAT | O_EXCL``); an
existing lease can only be taken over once its heartbeat is older than
the TTL (the owner died without releasing).  Leases are *advisory*: a
writer that loses the race is told so — loudly, via the return value —
and must degrade (go read-only, pick another session id) rather than
fight.  Silent loss is the failure mode this module exists to remove.

The TTL default can be tuned with ``ADASSURE_LEASE_TTL`` (seconds).
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from pathlib import Path

from repro.config import env_number

__all__ = ["FileLease", "LeaseConflict", "default_lease_ttl"]

DEFAULT_LEASE_TTL = 60.0
"""Seconds without a heartbeat before a lease is considered abandoned."""


def default_lease_ttl() -> float:
    """``$ADASSURE_LEASE_TTL`` (seconds) or the built-in default (also
    for a non-positive value); a malformed value raises ``ValueError``."""
    ttl = env_number("ADASSURE_LEASE_TTL", DEFAULT_LEASE_TTL, float)
    return ttl if ttl > 0 else DEFAULT_LEASE_TTL


class LeaseConflict(RuntimeError):
    """Another live writer holds the lease.

    Carries the competing owner's identity so the caller can report
    *who* holds the resource, not just that acquisition failed.
    """

    def __init__(self, path: Path, owner: dict):
        self.path = path
        self.owner = dict(owner)
        label = owner.get("owner", "<unknown>")
        super().__init__(
            f"{path}: held by {label} "
            f"(heartbeat {owner.get('heartbeat', '?')})")


def _record_stale(record: dict | None, ttl: float) -> bool:
    """Whether a lease record should be treated as abandoned.

    A heartbeat older than the TTL means the owner died without
    releasing.  A heartbeat more than one TTL *in the future* means the
    stamp came from a badly skewed (or corrupt) clock — trusting it
    would let one broken writer lock the resource forever, so it is also
    treated as abandoned; a live skewed owner will notice the theft at
    release time (owner check) rather than corrupting anything.
    """
    if record is None:
        return True  # corrupt or vanished: treat as abandoned
    try:
        heartbeat = float(record["heartbeat"])
    except (KeyError, TypeError, ValueError):
        return True
    age = time.time() - heartbeat
    return age > ttl or -age > ttl


class FileLease:
    """One advisory lease file guarding a shared resource.

    Usage::

        lease = FileLease(path)
        if not lease.acquire():        # or acquire(raising=True)
            report_conflict(lease.holder())
            ...degrade...
        try:
            ...write, calling lease.refresh() on each flush...
        finally:
            lease.release()
    """

    def __init__(self, path: str | Path, ttl: float | None = None):
        self.path = Path(path)
        self.ttl = float(ttl) if ttl is not None else default_lease_ttl()
        self.owner_id = f"{socket.gethostname()}:{os.getpid()}:" \
                        f"{uuid.uuid4().hex[:8]}"
        self._held = False
        self.stale_breaks = 0
        """Abandoned leases this handle broke while acquiring."""

    # -- inspection -----------------------------------------------------
    @property
    def held(self) -> bool:
        return self._held

    def holder(self) -> dict | None:
        """The current lease record on disk, or ``None`` if absent/corrupt."""
        try:
            return json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    def _stale(self, record: dict | None) -> bool:
        return _record_stale(record, self.ttl)

    # -- lifecycle ------------------------------------------------------
    def _record(self) -> bytes:
        payload = {"owner": self.owner_id, "heartbeat": time.time()}
        return (json.dumps(payload) + "\n").encode("utf-8")

    def acquire(self, raising: bool = False) -> bool:
        """Try to take the lease.

        Returns ``True`` on success.  On conflict returns ``False`` (or
        raises :class:`LeaseConflict` with ``raising=True``) — callers
        must surface this, never swallow it.  A stale lease (heartbeat
        older than the TTL) is broken and taken over.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for _ in range(2):  # second pass after breaking a stale lease
            try:
                fd = os.open(self.path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                current = self.holder()
                if current is not None and current.get("owner") == self.owner_id:
                    self._held = True  # re-acquire our own lease
                    return True
                if not self._stale(current):
                    if raising:
                        raise LeaseConflict(self.path, current or {})
                    return False
                # Abandoned: break it and retry the exclusive create.
                self.stale_breaks += 1
                try:
                    self.path.unlink()
                except OSError:
                    pass
                continue
            try:
                os.write(fd, self._record())
            finally:
                os.close(fd)
            self._held = True
            return True
        # Lost the post-break race to another waiter.
        if raising:
            raise LeaseConflict(self.path, self.holder() or {})
        return False

    def refresh(self) -> None:
        """Heartbeat: re-stamp the lease so it does not go stale mid-run.

        Best-effort — a failed heartbeat must not crash the writer; the
        worst case is another writer breaking the lease after the TTL,
        which the conflict handling already covers.  A stolen lease is
        *not* re-stamped: heartbeating over a thief's record would let
        two writers silently fight forever, whereas leaving it lets the
        owner detect the theft at release time.
        """
        if not self._held:
            return
        current = self.holder()
        if current is not None and current.get("owner") != self.owner_id:
            return  # stolen mid-run; report at release, don't fight
        try:
            tmp = self.path.with_suffix(self.path.suffix +
                                        f".hb.{os.getpid()}")
            tmp.write_bytes(self._record())
            os.replace(tmp, self.path)
        except OSError:
            pass

    def release(self) -> None:
        """Give the lease up (only if we still own it)."""
        if not self._held:
            return
        self._held = False
        current = self.holder()
        if current is not None and current.get("owner") != self.owner_id:
            return  # someone broke our stale lease; it is theirs now
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "FileLease":
        self.acquire(raising=True)
        return self

    def __exit__(self, *exc) -> None:
        self.release()
