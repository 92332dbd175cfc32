"""Streaming client: feed one trace to the ingest server, chunk by chunk.

The client is deliberately the *untrusted* half of the exactly-once
story: it retries on BUSY, retransmits after lost ACKs, reconnects and
RESUMEs after any disconnect — and relies on the server's sequence
cursor to make all of that idempotent.  The chaos suite drives the same
client code with its failure knobs turned on (forced mid-stream
disconnects, torn frames, duplicated chunks), so the recovery paths are
the tested paths, not parallel test-only code.

``StreamOutcome`` records what the stream experienced (retries,
reconnects, duplicates) along with the verdict, so tests can assert not
just "the verdict matched" but "and it survived N injected failures on
the way".
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.service.protocol import (
    FrameTruncated,
    FrameType,
    encode_frame,
    read_frame,
)
from repro.service.session import chunk_to_bytes
from repro.trace.schema import Trace

__all__ = ["StreamError", "StreamOutcome", "TraceStreamClient",
           "stream_trace"]

_DISCONNECTS = (ConnectionError, FrameTruncated,
                asyncio.IncompleteReadError, OSError)


class StreamError(RuntimeError):
    """The server rejected the stream (fatal ERROR frame, or gave up)."""


@dataclass(slots=True)
class StreamOutcome:
    """What one streamed session experienced, end to end."""

    session_id: str
    verdict: dict | None = None
    live_violations: list = field(default_factory=list)
    """Violation dicts pushed on ACKs while the stream was live."""
    chunks_sent: int = 0
    """CHUNK frames written (includes retries and retransmits)."""
    chunks_applied: int = 0
    busy_retries: int = 0
    duplicate_acks: int = 0
    reconnects: int = 0
    resumed_finished: bool = False
    """True when the verdict came from a RESUMED replay, not VERDICT."""


class TraceStreamClient:
    """One vehicle's uplink.  Reusable across sessions."""

    def __init__(self, host: str, port: int, *,
                 chunk_records: int = 64,
                 max_busy_retries: int = 200,
                 max_reconnects: int = 8,
                 reconnect_delay_s: float = 0.05,
                 disconnect_after_chunks: int | None = None,
                 tear_frame: bool = False,
                 duplicate_chunks: bool = False):
        self.host = host
        self.port = port
        self.chunk_records = max(int(chunk_records), 1)
        self.max_busy_retries = max_busy_retries
        self.max_reconnects = max_reconnects
        self.reconnect_delay_s = reconnect_delay_s
        # chaos knobs -----------------------------------------------------
        self.disconnect_after_chunks = disconnect_after_chunks
        """Abruptly drop the connection after this many CHUNK sends
        (fires once), then reconnect and RESUME."""
        self.tear_frame = tear_frame
        """Make the forced disconnect tear a frame in half (the server
        must see ``FrameTruncated``, not a clean close)."""
        self.duplicate_chunks = duplicate_chunks
        """Retransmit every applied chunk once more (simulates a lost
        ACK); the server must answer with a duplicate-ACK, not re-apply."""

    # -- public API -------------------------------------------------------
    async def run(self, trace: Trace, session_id: str) -> StreamOutcome:
        """Stream ``trace`` as ``session_id``; returns the outcome with
        the server's verdict dict (exactly one, however bumpy the ride)."""
        chunks = self._encode_chunks(trace)
        outcome = StreamOutcome(session_id=session_id)
        kill_at = self.disconnect_after_chunks
        reader = writer = None
        try:
            reader, writer, next_seq = await self._open(
                trace, session_id, outcome, hello_first=True)
            if outcome.verdict is not None:
                return outcome  # session already finished server-side
            while next_seq < len(chunks):
                try:
                    if kill_at is not None and outcome.chunks_sent >= kill_at:
                        kill_at = None  # fires once
                        await self._chaos_disconnect(
                            writer, next_seq, chunks[next_seq])
                    next_seq = await self._send_chunk(
                        reader, writer, next_seq, chunks[next_seq], outcome)
                except _DISCONNECTS:
                    reader, writer, next_seq = await self._open(
                        trace, session_id, outcome, hello_first=False)
                    if outcome.verdict is not None:
                        return outcome
            while outcome.verdict is None:
                try:
                    outcome.verdict = await self._finish(reader, writer)
                except _DISCONNECTS:
                    reader, writer, _ = await self._open(
                        trace, session_id, outcome, hello_first=False)
            return outcome
        finally:
            if writer is not None:
                await _close(writer)

    # -- connection / handshake -------------------------------------------
    async def _open(self, trace: Trace, session_id: str,
                    outcome: StreamOutcome, *, hello_first: bool):
        """Connect and handshake; returns ``(reader, writer, next_seq)``.

        First contact speaks HELLO; every reconnect (and a HELLO bounced
        with ``resumable``) speaks RESUME and trusts the server's cursor.
        """
        last_exc: Exception | None = None
        for attempt in range(self.max_reconnects + 1):
            if attempt > 0 or not hello_first:
                outcome.reconnects += 1
            writer = None
            try:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port)
                if hello_first and attempt == 0:
                    writer.write(encode_frame(FrameType.HELLO, {
                        "session_id": session_id,
                        "meta": trace.meta.to_dict()}))
                    await writer.drain()
                    reply = await read_frame(reader)
                    if reply is not None and reply.type == FrameType.WELCOME:
                        return reader, writer, 0
                    if (reply is None or reply.type != FrameType.ERROR
                            or not reply.header.get("resumable")):
                        raise StreamError(
                            "HELLO rejected: "
                            f"{(reply.header if reply else {})!r}")
                    # fall through: same connection, switch to RESUME
                writer.write(encode_frame(FrameType.RESUME, {
                    "session_id": session_id,
                    "meta": trace.meta.to_dict()}))
                await writer.drain()
                reply = await read_frame(reader)
                if reply is None or reply.type != FrameType.RESUMED:
                    raise StreamError(
                        f"RESUME rejected: {(reply.header if reply else {})!r}")
                if reply.header.get("finished"):
                    outcome.verdict = reply.header.get("verdict")
                    outcome.resumed_finished = True
                    return reader, writer, int(reply.header["next_seq"])
                return reader, writer, int(reply.header["next_seq"])
            except _DISCONNECTS as exc:
                if writer is not None:
                    await _close(writer)
                last_exc = exc
                await asyncio.sleep(self.reconnect_delay_s)
            except StreamError:
                await _close(writer)
                raise
        raise StreamError(
            f"could not (re)establish session {session_id!r} after "
            f"{self.max_reconnects + 1} attempts") from last_exc

    # -- frame exchanges ---------------------------------------------------
    async def _send_chunk(self, reader, writer, seq: int, payload: bytes,
                          outcome: StreamOutcome) -> int:
        """Send one chunk, absorbing BUSY; returns the server's next_seq."""
        frame = encode_frame(FrameType.CHUNK, {"seq": seq}, payload)
        for _ in range(self.max_busy_retries + 1):
            writer.write(frame)
            await writer.drain()
            outcome.chunks_sent += 1
            reply = await self._expect_reply(reader)
            if reply.type == FrameType.BUSY:
                outcome.busy_retries += 1
                await asyncio.sleep(
                    float(reply.header.get("retry_after_s", 0.05)))
                continue
            if reply.type == FrameType.ACK:
                if reply.header.get("duplicate"):
                    outcome.duplicate_acks += 1
                else:
                    outcome.chunks_applied += 1
                    outcome.live_violations.extend(
                        reply.header.get("violations", []))
                    if self.duplicate_chunks:
                        # Retransmit as if our ACK had been lost; the
                        # server must dedupe on seq.
                        writer.write(frame)
                        await writer.drain()
                        outcome.chunks_sent += 1
                        dup = await self._expect_reply(reader)
                        if (dup.type != FrameType.ACK
                                or not dup.header.get("duplicate")):
                            raise StreamError(
                                "retransmitted chunk was not deduplicated: "
                                f"{dup!r}")
                        outcome.duplicate_acks += 1
                return int(reply.header["next_seq"])
            if reply.type == FrameType.ERROR:
                if reply.header.get("fatal"):
                    raise StreamError(f"server error: "
                                      f"{reply.header.get('message')}")
                # Non-fatal rejection carries the authoritative cursor.
                return int(reply.header.get("next_seq", seq))
            raise StreamError(f"unexpected reply to CHUNK: {reply!r}")
        raise StreamError(
            f"server still busy after {self.max_busy_retries} retries")

    async def _finish(self, reader, writer) -> dict:
        writer.write(encode_frame(FrameType.FINISH, {}))
        await writer.drain()
        reply = await self._expect_reply(reader)
        if reply.type == FrameType.VERDICT:
            return reply.header
        raise StreamError(f"unexpected reply to FINISH: {reply!r}")

    async def _expect_reply(self, reader):
        reply = await read_frame(reader)
        if reply is None:
            raise ConnectionResetError("server closed mid-exchange")
        return reply

    async def _chaos_disconnect(self, writer, seq: int,
                                payload: bytes) -> None:
        """Forced failure: die between frames, or halfway through one."""
        if self.tear_frame:
            frame = encode_frame(FrameType.CHUNK, {"seq": seq}, payload)
            writer.write(frame[:max(len(frame) // 2, 1)])
            await writer.drain()
        writer.transport.abort()  # no FIN handshake: looks like a crash
        raise ConnectionResetError("chaos: forced client disconnect")

    # -- encoding ----------------------------------------------------------
    def _encode_chunks(self, trace: Trace) -> list[bytes]:
        records = list(trace.records)
        if not records:
            raise StreamError("refusing to stream an empty trace")
        return [
            chunk_to_bytes(trace.meta, records[i:i + self.chunk_records])
            for i in range(0, len(records), self.chunk_records)
        ]


async def _close(writer: asyncio.StreamWriter) -> None:
    """Close a connection, ignoring a peer that is already gone."""
    writer.close()
    try:
        await writer.wait_closed()
    except _DISCONNECTS:
        pass


async def stream_trace(trace: Trace, host: str, port: int,
                       session_id: str, **client_kwargs) -> StreamOutcome:
    """One-call convenience: stream a trace, get the outcome."""
    client = TraceStreamClient(host, port, **client_kwargs)
    return await client.run(trace, session_id)


async def fetch_status(host: str, port: int) -> dict:
    """Ask a running server for its fleet aggregates snapshot."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(encode_frame(FrameType.STATUS, {}))
        await writer.drain()
        reply = await read_frame(reader)
        if reply is None or reply.type != FrameType.STATS:
            raise StreamError(f"unexpected reply to STATUS: {reply!r}")
        return reply.header
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except _DISCONNECTS:
            pass
