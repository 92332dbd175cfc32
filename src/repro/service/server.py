"""The asyncio TCP trace-ingest server.

One connection serves one streaming session (plus stateless STATUS
queries).  The handler is a small frame loop; everything stateful lives
in :class:`~repro.service.session.SessionState` (exactly-once cursor
and the live monitor the verdict is finished from, by
:class:`~repro.service.shards.ShardPool`) and
:class:`~repro.service.store.SessionStore` (crash-safe checkpoints).
Everything runs in this one process.  The loop's job is to keep the
failure matrix honest:

===================  ====================================================
failure              behavior
===================  ====================================================
clean close / BYE    session suspended (checkpointed); resumable
mid-frame EOF        ``FrameTruncated`` -> suspend; resumable
torn / corrupt CRC   fatal ERROR (framing lost sync), connection closed,
                     session suspended; resumable
stalled client       idle timeout -> suspend, close (no slot held)
overload             BUSY with ``retry_after_s``; the chunk is **not**
                     applied and client credit is never buffered
                     unboundedly
server kill -9       next server resumes every session from its
                     checkpoint; finished sessions re-deliver their
                     **stored** verdict (never recomputed)
second server        store lease conflict: refuses to start
checkpoint save      chunk not ACKed, connection dropped, session
fails                evicted anyway; RESUME continues from the last
                     checkpoint that landed (``checkpoint_errors``)
malformed ``meta``   non-fatal ERROR, no session opened, counted in
                     ``protocol_errors``; the connection may HELLO again
===================  ====================================================

Backpressure is a single global credit: bytes of chunk payloads accepted
but not yet applied-and-checkpointed.  A chunk that would exceed
``max_inflight_bytes`` is refused with BUSY before any buffering
happens, so a slow disk or a flood of concurrent streams degrades
into polite retry-after, not memory growth.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from pathlib import Path

from repro.service.aggregates import FleetAggregates
from repro.service.protocol import (
    FrameTruncated,
    FrameType,
    ProtocolError,
    encode_frame,
    read_frame,
)
from repro.service.session import ChunkRejected, MonitorPool, SessionState
from repro.service.shards import ShardPool
from repro.service.store import SessionStore
from repro.trace.schema import TraceMeta

__all__ = ["ServerConfig", "TraceIngestServer"]


def _finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


_META_FIELDS = {
    "scenario": ("a string", lambda v: isinstance(v, str)),
    "controller": ("a string", lambda v: isinstance(v, str)),
    "attack": ("a string", lambda v: isinstance(v, str)),
    "seed": ("an integer",
             lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "dt": ("a positive finite number", lambda v: _finite(v) and v > 0),
    "route_length": ("a finite number", _finite),
    "extra": ("an object", lambda v: isinstance(v, dict)),
}
"""The ``meta`` keys a HELLO/RESUME may carry: what each must be, and
the check."""


def _meta_from_header(header: dict) -> TraceMeta:
    """The client-supplied ``meta`` of a HELLO/RESUME as a
    :class:`TraceMeta`.

    Raises:
        ValueError: ``meta`` is not an object, or one of its fields is
            not what :data:`_META_FIELDS` requires.
    """
    raw = header.get("meta", {})
    if not isinstance(raw, dict):
        raise ValueError(f"meta must be an object, got {raw!r}")
    for name, (expected, valid) in _META_FIELDS.items():
        if name in raw and not valid(raw[name]):
            raise ValueError(
                f"meta field {name!r} must be {expected}, got {raw[name]!r}")
    return TraceMeta.from_dict(raw)


@dataclass(slots=True)
class ServerConfig:
    """Tuning knobs for one :class:`TraceIngestServer`."""

    host: str = "127.0.0.1"
    port: int = 0
    """0 = ephemeral; read the bound port off ``server.port`` after start."""
    store_dir: str | Path | None = None
    """Checkpoint directory (default: the shared cache root)."""
    max_inflight_bytes: int = 32 << 20
    """Global credit of accepted-but-unapplied chunk bytes; beyond it,
    chunks get BUSY instead of buffering."""
    retry_after_s: float = 0.05
    """Hint sent with BUSY frames."""
    idle_timeout_s: float = 30.0
    """A connection silent this long is a stalled client: suspend+close."""
    chunk_delay_s: float = 0.0
    """Artificial per-chunk apply delay — a test knob that makes ingest
    slow enough for the chaos suite to drive the server into BUSY."""


class TraceIngestServer:
    """Fleet trace-ingest endpoint; start with :meth:`start`."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self.store = SessionStore(self.config.store_dir)
        self.scorer = ShardPool()
        self.monitors = MonitorPool()
        self.aggregates = FleetAggregates()
        self.sessions: dict[str, SessionState] = {}
        """Sessions with a live connection right now."""
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._inflight_bytes = 0
        self.port: int | None = None
        # failure-matrix counters (surfaced by STATUS)
        self.connections = 0
        self.suspends = 0
        self.resumes = 0
        self.busy_sent = 0
        self.truncated_frames = 0
        self.protocol_errors = 0
        self.stalled_clients = 0
        self.verdicts_issued = 0
        self.verdicts_replayed = 0
        self.checkpoint_errors = 0

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Bind and begin accepting; raises
        :class:`~repro.locking.LeaseConflict` if another live server owns
        the checkpoint store."""
        self.store.acquire()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Hang up on live connections and let their handlers run their
        # suspend path to completion (checkpoints included).
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        # Checkpoint whatever is still live so a restart resumes it; a
        # failed save must not keep the lease alive.
        try:
            for session in list(self.sessions.values()):
                self._suspend(session)
        finally:
            self.store.release()

    async def __aenter__(self) -> "TraceIngestServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- connection handler ----------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self._writers.add(writer)
        session: SessionState | None = None
        try:
            while True:
                try:
                    frame = await asyncio.wait_for(
                        read_frame(reader), self.config.idle_timeout_s)
                except asyncio.TimeoutError:
                    # Stalled client: it holds no credit and no slot.
                    self.stalled_clients += 1
                    break
                if frame is None:
                    break  # clean close between frames
                if frame.type == FrameType.HELLO:
                    session = await self._on_hello(writer, frame.header)
                elif frame.type == FrameType.RESUME:
                    session = await self._on_resume(writer, frame.header)
                elif frame.type == FrameType.CHUNK:
                    await self._on_chunk(writer, session, frame)
                elif frame.type == FrameType.FINISH:
                    session = await self._on_finish(writer, session)
                elif frame.type == FrameType.STATUS:
                    await self._send(writer, FrameType.STATS, self.status())
                elif frame.type == FrameType.BYE:
                    await self._send(writer, FrameType.BYE, {})
                    break
                else:
                    await self._send(writer, FrameType.ERROR, {
                        "message": f"unexpected {frame.type.name} frame",
                        "fatal": True})
                    break
        except FrameTruncated:
            # Mid-frame disconnect (or a torn write): the signature
            # failure the resume path exists for.
            self.truncated_frames += 1
        except ProtocolError as exc:
            # Bad magic/version/CRC: framing lost sync, this connection
            # cannot continue — but the session state is intact.
            self.protocol_errors += 1
            await self._try_send(writer, FrameType.ERROR,
                                 {"message": str(exc), "fatal": True})
        except (ConnectionError, OSError):
            pass  # peer vanished; same handling as truncation
        finally:
            self._writers.discard(writer)
            # A session still bound here is live: unfinished, or
            # finished with a verdict whose save failed (never sent).
            if session is not None:
                self._suspend(session)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- frame handlers --------------------------------------------------
    async def _on_hello(self, writer: asyncio.StreamWriter,
                        header: dict) -> SessionState | None:
        session_id = header.get("session_id")
        if not session_id or not isinstance(session_id, str):
            await self._send(writer, FrameType.ERROR, {
                "message": "HELLO requires a session_id", "fatal": True})
            return None
        if session_id in self.sessions:
            await self._send(writer, FrameType.ERROR, {
                "message": f"session {session_id!r} is already streaming "
                           "on another connection", "fatal": True})
            return None
        if self.store.manifest(session_id) is not None:
            # The session has history.  Never silently restart it — that
            # is how a verdict gets computed twice.  The client must
            # RESUME (and gets the cursor or the stored verdict).
            await self._send(writer, FrameType.ERROR, {
                "message": f"session {session_id!r} has checkpointed "
                           "state; send RESUME instead of HELLO",
                "resumable": True, "fatal": False})
            return None
        meta = await self._meta(writer, header)
        if meta is None:
            return None
        session = SessionState(session_id, meta,
                               monitor=self.monitors.acquire())
        self.sessions[session_id] = session
        await self._send(writer, FrameType.WELCOME,
                         {"session_id": session_id, "next_seq": 0})
        return session

    async def _meta(self, writer: asyncio.StreamWriter,
                    header: dict) -> TraceMeta | None:
        """The header's validated ``meta``; a malformed one is answered
        with a non-fatal ERROR, counted, and opens no session."""
        try:
            return _meta_from_header(header)
        except ValueError as exc:
            self.protocol_errors += 1
            await self._send(writer, FrameType.ERROR, {
                "message": str(exc), "fatal": False})
            return None

    async def _on_resume(self, writer: asyncio.StreamWriter,
                         header: dict) -> SessionState | None:
        session_id = header.get("session_id")
        if not session_id or not isinstance(session_id, str):
            await self._send(writer, FrameType.ERROR, {
                "message": "RESUME requires a session_id", "fatal": True})
            return None
        if session_id in self.sessions:
            await self._send(writer, FrameType.ERROR, {
                "message": f"session {session_id!r} is already streaming "
                           "on another connection", "fatal": True})
            return None
        # The manifest alone answers a finished session; only an
        # unfinished one needs its records decoded.
        checkpoint = self.store.manifest(session_id)
        if checkpoint is not None and not checkpoint.finished:
            checkpoint = self.store.load(session_id)
        if checkpoint is None:
            # Nothing on disk (never seen, or an unreadable checkpoint
            # dropped as garbage): resume degrades to a fresh start.
            meta = await self._meta(writer, header)
            if meta is None:
                return None
            session = SessionState(session_id, meta,
                                   monitor=self.monitors.acquire())
            self.sessions[session_id] = session
            self.resumes += 1
            await self._send(writer, FrameType.RESUMED, {
                "session_id": session_id, "next_seq": 0,
                "finished": False, "fresh": True})
            return session
        if checkpoint.finished:
            # Exactly-once: the stored verdict is re-delivered verbatim,
            # never recomputed.
            self.resumes += 1
            self.verdicts_replayed += 1
            await self._send(writer, FrameType.RESUMED, {
                "session_id": session_id,
                "next_seq": checkpoint.next_seq, "finished": True,
                "verdict": checkpoint.verdict})
            return None
        session = SessionState(session_id, checkpoint.meta,
                               monitor=self.monitors.acquire())
        session.replay(checkpoint.records, checkpoint.next_seq)
        self.sessions[session_id] = session
        self.resumes += 1
        await self._send(writer, FrameType.RESUMED, {
            "session_id": session_id, "next_seq": session.next_seq,
            "finished": False})
        return session

    async def _on_chunk(self, writer: asyncio.StreamWriter,
                        session: SessionState | None, frame) -> None:
        if session is None:
            await self._send(writer, FrameType.ERROR, {
                "message": "CHUNK before HELLO/RESUME", "fatal": True})
            raise ConnectionResetError("protocol misuse")
        seq = int(frame.header.get("seq", -1))
        cost = len(frame.payload)
        if self._inflight_bytes + cost > self.config.max_inflight_bytes:
            # Refuse *before* buffering anything: the client resends
            # after retry_after_s, so overload costs retries, not memory.
            self.busy_sent += 1
            await self._send(writer, FrameType.BUSY, {
                "seq": seq,
                "retry_after_s": self.config.retry_after_s})
            return
        self._inflight_bytes += cost
        try:
            if self.config.chunk_delay_s > 0.0:
                await asyncio.sleep(self.config.chunk_delay_s)
            try:
                violations = session.apply_chunk(seq, frame.payload)
            except ChunkRejected as exc:
                await self._send(writer, FrameType.ERROR, {
                    "message": str(exc), "fatal": False,
                    "next_seq": session.next_seq})
                return
            if violations is None:  # duplicate delivery: re-ACK only
                await self._send(writer, FrameType.ACK, {
                    "seq": seq, "next_seq": session.next_seq,
                    "duplicate": True, "violations": []})
                return
            self._checkpoint(session)
            await self._send(writer, FrameType.ACK, {
                "seq": seq, "next_seq": session.next_seq,
                "duplicate": False,
                "violations": [v.to_dict() for v in violations]})
        finally:
            self._inflight_bytes -= cost

    async def _on_finish(
            self, writer: asyncio.StreamWriter,
            session: SessionState | None) -> SessionState | None:
        if session is None:
            await self._send(writer, FrameType.ERROR, {
                "message": "FINISH before HELLO/RESUME", "fatal": True})
            raise ConnectionResetError("protocol misuse")
        if not session.records:
            await self._send(writer, FrameType.ERROR, {
                "message": "FINISH on an empty session", "fatal": False})
            return session  # still live; keep it bound for suspend
        t0 = time.perf_counter()
        verdict = await self.scorer.score(session)
        session.finished = True
        session.verdict = verdict
        # Persist BEFORE sending: if the VERDICT frame is lost to a
        # disconnect, the resume re-delivers this stored verdict — the
        # client can never observe two different verdicts for one
        # session.  Every chunk was checkpointed before its ACK, so this
        # rewrites the manifest alone.
        self._checkpoint(session)
        self.aggregates.record_session(
            verdict, verdict_latency_s=time.perf_counter() - t0)
        self.verdicts_issued += 1
        self.sessions.pop(session.session_id, None)
        self._release_monitor(session)
        await self._send(writer, FrameType.VERDICT, dict(verdict))
        return None  # connection may HELLO/RESUME another session

    # -- session plumbing -------------------------------------------------
    def _release_monitor(self, session: SessionState) -> None:
        self.monitors.release(session.monitor)
        session.monitor = None

    def _checkpoint(self, session: SessionState) -> None:
        """Append the session's pending chunks and rewrite its manifest.

        On failure the pending chunks stay queued for the next attempt
        and the error is counted and re-raised.
        """
        try:
            self.store.save(session.session_id, meta=session.meta,
                            segments=session.pending,
                            next_seq=session.next_seq,
                            finished=session.finished,
                            verdict=session.verdict)
        except OSError:
            self.checkpoint_errors += 1
            raise
        session.pending = []

    def _suspend(self, session: SessionState) -> None:
        """Disconnect path: checkpoint, then forget the live state.

        The session is evicted even when the checkpoint fails (disk
        full, permissions): the store still holds its previous
        consistent checkpoint, which a RESUME continues from.
        """
        try:
            self._checkpoint(session)
        except OSError:
            pass  # counted in _checkpoint; the older checkpoint stands
        finally:
            self.sessions.pop(session.session_id, None)
            self._release_monitor(session)
            self.suspends += 1

    # -- introspection -----------------------------------------------------
    def status(self) -> dict:
        return {
            "fleet": self.aggregates.as_dict(),
            "sessions": {
                "active": len(self.sessions),
                "checkpointed": len(self.store.session_ids()),
            },
            "monitor_pool": {"created": self.monitors.created,
                             "reused": self.monitors.reused},
            "counters": {
                "connections": self.connections,
                "suspends": self.suspends,
                "resumes": self.resumes,
                "busy_sent": self.busy_sent,
                "truncated_frames": self.truncated_frames,
                "protocol_errors": self.protocol_errors,
                "stalled_clients": self.stalled_clients,
                "verdicts_issued": self.verdicts_issued,
                "verdicts_replayed": self.verdicts_replayed,
                "checkpoint_errors": self.checkpoint_errors,
            },
            "inflight_bytes": self._inflight_bytes,
        }

    # -- wire helpers ------------------------------------------------------
    async def _send(self, writer: asyncio.StreamWriter, ftype: FrameType,
                    header: dict, payload: bytes = b"") -> None:
        writer.write(encode_frame(ftype, header, payload))
        await writer.drain()

    async def _try_send(self, writer: asyncio.StreamWriter,
                        ftype: FrameType, header: dict) -> None:
        try:
            await self._send(writer, ftype, header)
        except (ConnectionError, OSError):
            pass
