"""Crash-safe session checkpoints for the trace-ingest server.

Generalizes the campaign checkpoint machinery (PR 2's
:class:`~repro.experiments.cache.CheckpointManifest`) to streaming
sessions.  Each session's checkpoint is one append-only **log**,
``<name>.session.log``: a sequence of records, each sealed as
``[u32 length][u32 crc][kind][body]`` (little-endian; the length and
the CRC-32 cover ``kind + body``):

* ``H`` — the **head**, first and once: UTF-8 JSON with the exact
  ``session_id``, the trace ``meta`` and the wire ``protocol`` the
  chunks arrived in;
* ``C`` — one **chunk record** per accepted chunk: its ``seq`` (u32)
  and the CHUNK payload exactly as it arrived (a column block the
  session already decoded and checked; it has no checksum of its own,
  the record's CRC covers it here as the frame's did on the wire);
* ``V`` — the **verdict record**, UTF-8 JSON, written at FINISH.

A checkpoint (:meth:`SessionStore.save`) is one append: one open and
one write, no temp file, no rename, so it costs O(chunk), not
O(session).  The first save of a log this process has not loaded
creates (or truncates) the file and writes the head first.

A reader takes the records up to the first one that is incomplete,
fails its CRC, or is out of order; the cursor ``next_seq`` is the
number of consecutive chunk records from seq 0.  A server killed
mid-append therefore leaves a cursor that undersells what the client
sent (it resends a chunk that was never ACKed), never one that
oversells it.  :meth:`SessionStore.load` cuts the file back to its last
whole record before returning, so later appends never land behind
garbage, and a failed append is cut back at once; when even that fails
the log takes no further append until a load has cut it.

Exactly-once verdicts rest on this store: the verdict is persisted
*before* it is sent, so a client that disconnects mid-VERDICT and
resumes gets the **same** stored verdict — recomputation (which could
drift if code changed between server runs) never happens for a finished
session.  Reading it back (:meth:`SessionStore.manifest`) decodes no
payload.

File names escape every UTF-8 byte of the id outside ``[A-Za-z0-9_.-]``
as ``%XX`` (``%`` included), so two ids never share a log; an id whose
name would exceed :data:`MAX_NAME_BYTES` is refused, not truncated.  The
head's id is checked on every read all the same.

Older builds wrote a JSON manifest ``<name>.session.json`` (plus
segment files) under a lossy name.  Such a manifest is only read, when
no log exists, and only if its ``session_id`` is the one asked for: a
finished session replays its stored verdict, an unfinished one resumes
fresh.  A log whose head names another protocol (protocol 2 logged
binary traces as chunk payloads, and its heads name none) likewise
replays a stored verdict, but :meth:`SessionStore.load` reads it as
absent, so an unfinished session there resumes fresh; so does one
whose payloads do not decode.

The whole store directory is guarded by an advisory
:class:`~repro.locking.FileLease` (same machinery as the campaign
manifest): a second server instance pointed at a live store's directory
is told so and must refuse to start, because two writers checkpointing
the same sessions would corrupt each other's logs.  Saves re-stamp the
lease at most every quarter TTL, not once per chunk.
"""

from __future__ import annotations

import errno
import json
import os
import struct
import time
import zlib
from collections.abc import Callable, Iterable
from pathlib import Path

from repro.config import default_cache_dir
from repro.locking import FileLease, LeaseConflict
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.session import decode_chunk
# Unused since protocol 3 (its chunk payloads are not binary traces),
# but kept importable here: tests count decodes by patching this name.
from repro.trace.io import trace_from_bytes  # noqa: F401
from repro.trace.schema import Trace, TraceMeta, TraceRecord

__all__ = ["MAX_NAME_BYTES", "LeaseConflict", "SessionCheckpoint",
           "SessionStore", "default_store_dir", "log_name"]

_LOG_SUFFIX = ".session.log"
_MANIFEST_SUFFIX = ".session.json"

_RECORD = struct.Struct("<II")
"""A record's seal: length and CRC-32 of ``kind + body``."""
_SEQ = struct.Struct("<I")
_HEAD, _CHUNK, _VERDICT = b"H", b"C", b"V"

_PLAIN = frozenset(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                   b"0123456789_.-")

MAX_NAME_BYTES = 200
"""Longest escaped session id the store accepts as a file name."""


def default_store_dir() -> Path:
    """``$ADASSURE_SERVICE_DIR``, else ``<cache root>/service-sessions``."""
    env = os.environ.get("ADASSURE_SERVICE_DIR")
    if env:
        return Path(env).expanduser()
    return default_cache_dir() / "service-sessions"


def _record(kind: bytes, body: bytes) -> bytes:
    sealed = kind + body
    return _RECORD.pack(len(sealed), zlib.crc32(sealed)) + sealed


def _json_record(kind: bytes, value) -> bytes:
    return _record(kind, json.dumps(value).encode("utf-8"))


def log_name(session_id: str) -> str:
    """The session's file stem: every UTF-8 byte outside
    ``[A-Za-z0-9_.-]`` as ``%XX``, so distinct ids get distinct names.

    Raises:
        ValueError: the name would exceed :data:`MAX_NAME_BYTES`.
    """
    name = "".join(chr(b) if b in _PLAIN else f"%{b:02X}"
                   for b in session_id.encode("utf-8", "surrogatepass"))
    if len(name) > MAX_NAME_BYTES:
        raise ValueError(
            f"session id too long: {len(name)} bytes as a file name, "
            f"at most {MAX_NAME_BYTES}")
    return name


def _unescape(name: str) -> str:
    head, *rest = name.split("%")
    raw = bytearray(head.encode("ascii"))
    for part in rest:
        raw += bytes.fromhex(part[:2]) + part[2:].encode("ascii")
    return raw.decode("utf-8", "surrogatepass")


class SessionCheckpoint:
    """One session's persisted state, as loaded from disk.

    ``blocks`` holds the decoded chunk records in order (columnar
    traces; no record is built), or ``None`` when the payloads were not
    decoded (:meth:`SessionStore.manifest`).
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
        """The chunks' records, materialised on demand."""
        if self.blocks is None:
            return None
        return [record for block in self.blocks for record in block.records]


class _Log:
    """A log's readable prefix: the head, the in-order chunk payloads,
    the verdict if one landed, and the byte length of that prefix."""

    __slots__ = ("meta", "protocol", "payloads", "verdict", "finished",
                 "end")

    def __init__(self, meta: TraceMeta, protocol):
        self.meta = meta
        self.protocol = protocol
        """The wire protocol its chunk payloads arrived in."""
        self.payloads: list[memoryview] = []
        self.verdict: dict | None = None
        self.finished = False
        self.end = 0


def _parse_log(data: bytes, session_id: str) -> _Log | None:
    """The readable prefix of a log's bytes, or ``None`` without a
    whole head record for ``session_id``."""
    view = memoryview(data)
    log: _Log | None = None
    offset = 0
    while offset + _RECORD.size <= len(data):
        length, crc = _RECORD.unpack_from(data, offset)
        start = offset + _RECORD.size
        stop = start + length
        if (not length or stop > len(data)
                or zlib.crc32(view[start:stop]) != crc):
            break
        kind, body = data[start:start + 1], view[start + 1:stop]
        try:
            if log is None:
                head = json.loads(bytes(body)) if kind == _HEAD else None
                if (not isinstance(head, dict)
                        or head.get("session_id") != session_id):
                    return None
                log = _Log(TraceMeta.from_dict(head.get("meta", {})),
                           head.get("protocol"))
            elif kind == _CHUNK and len(body) >= _SEQ.size and \
                    _SEQ.unpack_from(body)[0] == len(log.payloads):
                log.payloads.append(body[_SEQ.size:])
            elif kind == _VERDICT:
                log.verdict = json.loads(bytes(body))
                log.finished = True
            else:
                break
        except (ValueError, TypeError, AttributeError):
            break
        offset = stop
        if log.finished:
            break
    if log is not None:
        log.end = offset
    return log


class SessionStore:
    """Directory of per-session checkpoint logs, single-writer by lease."""

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
        self._ends: dict[str, int] = {}
        """Byte length of each open log this process wrote or loaded:
        where its next append goes.  A log not here is (re)created."""
        self._stuck: set[str] = set()
        """Logs whose failed append could not be cut back: no append
        until :meth:`load` has cut them."""

    def acquire(self) -> None:
        """Claim the store; raises :class:`LeaseConflict` if another
        live server owns it (two writers would corrupt the logs)."""
        self.root.mkdir(parents=True, exist_ok=True)
        self.lease.acquire(raising=True)

    def release(self) -> None:
        self.lease.release()

    # -- paths -----------------------------------------------------------
    def _log_path(self, session_id: str) -> Path:
        return self.root / (log_name(session_id) + _LOG_SUFFIX)

    def _manifest_path(self, session_id: str) -> Path:
        """Where an older build kept the session's manifest.  Its name
        mapping is lossy (``veh/1`` and ``veh_1`` share it), so a
        reader checks the ``session_id`` inside."""
        legacy = "".join(c if c.isalnum() or c in "-_." else "_"
                         for c in session_id)[:128]
        return self.root / (legacy + _MANIFEST_SUFFIX)

    # -- persistence -----------------------------------------------------
    def _heartbeat(self) -> None:
        now = self._clock()
        if (self._stamped_at is None or now - self._stamped_at
                >= self.lease.ttl * self.HEARTBEAT_FRACTION):
            self.lease.refresh()
            self._stamped_at = now

    def _write(self, fd: int, data: bytes) -> None:
        """Write all of ``data`` to ``fd``: every append's one write."""
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]

    def save(self, session_id: str, *, meta: TraceMeta,
             segments: Iterable[tuple[int, bytes]], next_seq: int,
             finished: bool, verdict: dict | None) -> None:
        """Append one chunk record per ``(seq, payload)`` of
        ``segments``, then the verdict record if ``finished``.

        ``segments`` must continue the log at its cursor, which then
        reads ``next_seq``.  The records go in one write; if it fails,
        the log is cut back to its length before the append and the
        error re-raised.  A finished log takes no further save.
        """
        path = self._log_path(session_id)
        if session_id in self._stuck:
            raise OSError(errno.EIO, "a failed append could not be cut "
                          "back; resume the session to cut it", str(path))
        self._heartbeat()
        end = self._ends.get(session_id)
        records = [] if end is not None else [_json_record(
            _HEAD, {"session_id": session_id, "meta": meta.to_dict(),
                    "protocol": PROTOCOL_VERSION})]
        records += [_record(_CHUNK, _SEQ.pack(seq) + payload)
                    for seq, payload in segments]
        if finished:
            records.append(_json_record(_VERDICT, verdict))
        data = b"".join(records)
        if end is None:
            self.root.mkdir(parents=True, exist_ok=True)
            flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        else:
            # No O_CREAT: a log deleted under a live session fails the
            # save instead of growing a headless file.
            flags = os.O_WRONLY | os.O_APPEND
        fd = os.open(path, flags, 0o644)
        try:
            self._write(fd, data)
        except OSError:
            try:
                os.ftruncate(fd, end or 0)
            except OSError:
                if end is not None:
                    self._stuck.add(session_id)
            raise
        finally:
            os.close(fd)
        if finished:
            self._ends.pop(session_id, None)  # only live logs are tracked
        else:
            self._ends[session_id] = (end or 0) + len(data)
        self.writes += 1

    def _forget(self, session_id: str) -> None:
        """The next save (re)creates the log."""
        self._ends.pop(session_id, None)
        self._stuck.discard(session_id)

    def _legacy_manifest(self, session_id: str) -> SessionCheckpoint | None:
        try:
            manifest = json.loads(
                self._manifest_path(session_id).read_text(encoding="utf-8"))
            if manifest.get("session_id") != session_id:
                return None
            return SessionCheckpoint(
                session_id=session_id,
                meta=TraceMeta.from_dict(manifest.get("meta", {})),
                blocks=None,
                next_seq=int(manifest.get("next_seq", 0)),
                finished=bool(manifest.get("finished", False)),
                verdict=manifest.get("verdict"),
            )
        except (OSError, ValueError, TypeError, AttributeError):
            return None

    def manifest(self, session_id: str) -> SessionCheckpoint | None:
        """The session's checkpoint without its payloads decoded
        (``blocks`` is ``None``), or ``None`` if absent or unreadable:
        enough to tell whether a session has history and to replay its
        verdict."""
        path = self._log_path(session_id)
        try:
            log = _parse_log(path.read_bytes(), session_id)
        except FileNotFoundError:
            checkpoint = self._legacy_manifest(session_id)
        except OSError:
            checkpoint = None
        else:
            checkpoint = None if log is None else SessionCheckpoint(
                session_id, log.meta, None, len(log.payloads),
                log.finished, log.verdict)
        if checkpoint is None:
            self._forget(session_id)
        return checkpoint

    def load(self, session_id: str) -> SessionCheckpoint | None:
        """The session's checkpoint with its chunks decoded, or ``None``
        if there is no readable log or a chunk inside the cursor does
        not decode.

        Cuts the file back to the end of its last whole record first,
        so the session's next append lands right behind it.  An
        unreadable checkpoint (bit rot, a log of another protocol, a
        store from before the log layout) is treated as absent: the
        client is told to restart the stream, which costs a resend, not
        correctness — never a shortened trace.
        """
        path = self._log_path(session_id)
        self._forget(session_id)
        try:
            data = path.read_bytes()
            log = _parse_log(data, session_id)
            if log is None or log.protocol != PROTOCOL_VERSION:
                return None
            blocks = [decode_chunk(payload, log.meta)
                      for payload in log.payloads]
            if log.end < len(data):
                os.truncate(path, log.end)
        except (OSError, ValueError):
            return None
        self._ends[session_id] = log.end
        self.loads += 1
        return SessionCheckpoint(session_id, log.meta, blocks,
                                 len(blocks), log.finished, log.verdict)

    def drop(self, session_id: str) -> None:
        """Delete one session's checkpoint (post-verdict cleanup)."""
        self._forget(session_id)
        for path in (self._log_path(session_id),
                     self._manifest_path(session_id)):
            try:
                path.unlink()
            except OSError:
                pass

    def session_ids(self) -> list[str]:
        """Every checkpointed session id currently on disk (an older
        build's manifests by their file stem)."""
        if not self.root.exists():
            return []
        ids = {p.name[:-len(_MANIFEST_SUFFIX)]
               for p in self.root.glob("*" + _MANIFEST_SUFFIX)}
        for path in self.root.glob("*" + _LOG_SUFFIX):
            try:
                ids.add(_unescape(path.name[:-len(_LOG_SUFFIX)]))
            except ValueError:
                pass  # not a name this store wrote
        return sorted(ids)
