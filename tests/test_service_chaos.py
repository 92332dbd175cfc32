"""Chaos harness: inject every failure the service claims to survive.

Each test drives the real client/server code with a failure knob turned
on — mid-frame disconnects, torn and duplicated frames, stalled clients
against backpressure, failed checkpoint saves, raw garbage on the socket
— and then holds the line on two invariants:

1. the server stays up (later sessions complete normally), and
2. every completed session's verdict is **byte-identical** to offline
   :func:`repro.core.checker.check_trace` on the same trace, issued
   exactly once.
"""

from __future__ import annotations

import asyncio
import errno
import json

import pytest

import repro.service.session as session_module
import repro.service.store as store_module
import repro.trace.io as trace_io
from repro.service.client import TraceStreamClient, fetch_status, stream_trace
from repro.service.protocol import FrameType, encode_frame, read_frame
from repro.service.server import ServerConfig, TraceIngestServer
from repro.service.store import SessionStore

from service_utils import attacked_trace, offline_verdict, serving


class TestTornFrames:
    def test_mid_frame_disconnect_then_resume(self, tmp_path):
        """The client dies halfway through writing a CHUNK frame; the
        server must classify it as truncation, checkpoint, and resume."""
        trace = attacked_trace()

        async def go():
            async with serving(tmp_path) as server:
                outcome = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-torn",
                    chunk_records=25, disconnect_after_chunks=4,
                    tear_frame=True)
                return outcome, server.truncated_frames, \
                    server.verdicts_issued

        outcome, truncated, issued = asyncio.run(go())
        assert truncated >= 1, "tear must be seen as FrameTruncated"
        assert outcome.reconnects >= 1
        assert issued == 1
        assert outcome.verdict["report"] == offline_verdict(trace)

    def test_corrupt_frame_suspends_but_preserves_session(self, tmp_path):
        """A CRC-corrupted frame kills the connection (framing lost
        sync) but never the session: resume completes it."""
        trace = attacked_trace()
        records = list(trace.records)

        async def go():
            async with serving(tmp_path) as server:
                from repro.service.session import chunk_to_bytes
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(encode_frame(FrameType.HELLO, {
                    "session_id": "veh-crc",
                    "meta": trace.meta.to_dict()}))
                writer.write(encode_frame(
                    FrameType.CHUNK, {"seq": 0},
                    chunk_to_bytes(trace.meta, records[:100])))
                await writer.drain()
                assert (await read_frame(reader)).type is FrameType.WELCOME
                assert (await read_frame(reader)).type is FrameType.ACK
                # now a deliberately corrupted frame
                bad = bytearray(encode_frame(
                    FrameType.CHUNK, {"seq": 1},
                    chunk_to_bytes(trace.meta, records[100:])))
                bad[-1] ^= 0xFF
                writer.write(bytes(bad))
                await writer.drain()
                reply = await read_frame(reader)
                assert reply is not None and reply.type is FrameType.ERROR
                writer.close()
                await asyncio.sleep(0.05)  # let the suspend land
                outcome = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-crc",
                    chunk_records=100)
                return outcome, server.protocol_errors

        outcome, protocol_errors = asyncio.run(go())
        assert protocol_errors >= 1
        assert outcome.chunks_applied == 1, "first 100 records survived"
        assert outcome.verdict["report"] == offline_verdict(trace)


class TestDuplicatedFrames:
    def test_retransmits_are_acked_never_reapplied(self, tmp_path):
        trace = attacked_trace()

        async def go():
            async with serving(tmp_path) as server:
                return await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-dup",
                    chunk_records=25, duplicate_chunks=True)

        outcome = asyncio.run(go())
        assert outcome.duplicate_acks == outcome.chunks_applied == 8
        # if any duplicate had been re-fed, the record log would hold
        # 400 records and this comparison would fail
        assert outcome.verdict["report"] == offline_verdict(trace)


class TestGarbageOnTheWire:
    def test_non_protocol_bytes_do_not_kill_the_server(self, tmp_path):
        trace = attacked_trace()

        async def go():
            async with serving(tmp_path) as server:
                _, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"GET / HTTP/1.1\r\nHost: nope\r\n\r\n")
                await writer.drain()
                writer.close()
                outcome = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-after",
                    chunk_records=50)
                return outcome, server.protocol_errors

        outcome, protocol_errors = asyncio.run(go())
        assert protocol_errors >= 1
        assert outcome.verdict["report"] == offline_verdict(trace)


    @pytest.mark.parametrize("meta", [
        [1], "urban_loop", {"seed": "7"}, {"dt": -0.05}, {"dt": True},
        {"route_length": float("inf")}, {"extra": []}, {"scenario": 3},
    ])
    def test_malformed_meta_is_a_counted_non_fatal_error(self, tmp_path,
                                                         meta):
        """A HELLO or RESUME whose ``meta`` is not a well-typed object
        gets a non-fatal ERROR and opens no session; the same connection
        can HELLO again, and later sessions complete exactly."""
        trace = attacked_trace()

        async def go():
            async with serving(tmp_path) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                replies = []
                for frame_type in (FrameType.HELLO, FrameType.RESUME):
                    writer.write(encode_frame(frame_type, {
                        "session_id": "veh-meta", "meta": meta}))
                    await writer.drain()
                    replies.append(await read_frame(reader))
                writer.write(encode_frame(FrameType.HELLO, {
                    "session_id": "veh-meta",
                    "meta": trace.meta.to_dict()}))
                await writer.drain()
                replies.append(await read_frame(reader))
                writer.close()
                outcome = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-after-meta",
                    chunk_records=50)
                return replies, outcome, server.protocol_errors

        replies, outcome, protocol_errors = asyncio.run(go())
        for reply in replies[:2]:
            assert reply is not None and reply.type is FrameType.ERROR
            assert reply.header["fatal"] is False
            assert "meta" in reply.header["message"]
        assert replies[2].type is FrameType.WELCOME
        assert protocol_errors == 2
        assert outcome.verdict["report"] == offline_verdict(trace)


    @pytest.mark.parametrize("header", [
        {"seq": "abc"}, {"seq": None}, {"seq": [1]}, {"seq": 0.0},
        {"seq": True}, {"seq": -1}, {},
    ])
    def test_malformed_seq_is_a_counted_non_fatal_error(self, tmp_path,
                                                        header):
        """A CHUNK whose ``seq`` is not a non-negative integer gets a
        non-fatal ERROR carrying the cursor and applies nothing: the
        same connection then sends seq 0 as a first delivery, and the
        session's verdict is exact."""
        trace = attacked_trace()
        records = list(trace.records)
        chunks = [session_module.chunk_to_bytes(trace.meta, records[i:i + 50])
                  for i in range(0, len(records), 50)]

        async def go():
            async with serving(tmp_path) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(encode_frame(FrameType.HELLO, {
                    "session_id": "veh-seq", "meta": trace.meta.to_dict()}))
                writer.write(encode_frame(FrameType.CHUNK, header, chunks[0]))
                await writer.drain()
                replies = [await read_frame(reader), await read_frame(reader)]
                for seq, payload in enumerate(chunks):
                    writer.write(encode_frame(FrameType.CHUNK, {"seq": seq},
                                              payload))
                    await writer.drain()
                    replies.append(await read_frame(reader))
                writer.write(encode_frame(FrameType.FINISH, {}))
                await writer.drain()
                replies.append(await read_frame(reader))
                writer.close()
                return replies, server.protocol_errors

        replies, protocol_errors = asyncio.run(go())
        welcome, error, *acks, verdict = replies
        assert welcome.type is FrameType.WELCOME
        assert error is not None and error.type is FrameType.ERROR
        assert error.header["fatal"] is False
        assert error.header["next_seq"] == 0
        assert "seq" in error.header["message"]
        assert protocol_errors == 1
        assert [a.type for a in acks] == [FrameType.ACK] * len(chunks)
        assert not any(a.header["duplicate"] for a in acks)
        assert verdict.type is FrameType.VERDICT
        assert verdict.header["report"] == offline_verdict(trace)

class TestBackpressure:
    def test_stalled_ingest_yields_busy_not_buffering(self, tmp_path):
        """Slow the server's apply path and shrink the inflight credit:
        concurrent streams must see BUSY + retry, and still finish with
        correct verdicts."""
        traces = [attacked_trace(window=(60 + 10 * i, 120 + 10 * i))
                  for i in range(3)]
        probe = TraceStreamClient("h", 0, chunk_records=40)
        chunk_bytes = len(probe._encode_chunks(traces[0])[0])

        async def go():
            async with serving(
                    tmp_path, chunk_delay_s=0.05,
                    max_inflight_bytes=int(1.5 * chunk_bytes)) as server:
                outcomes = await asyncio.gather(*[
                    stream_trace(t, "127.0.0.1", server.port,
                                 f"veh-bp-{i}", chunk_records=40)
                    for i, t in enumerate(traces)])
                return outcomes, server.busy_sent

        outcomes, busy_sent = asyncio.run(go())
        assert busy_sent >= 1, "credit exhaustion must answer BUSY"
        assert sum(o.busy_retries for o in outcomes) >= 1
        for trace, outcome in zip(traces, outcomes):
            assert outcome.verdict["report"] == offline_verdict(trace)

    def test_stalled_client_is_suspended_not_leaked(self, tmp_path):
        """A client that goes silent holds no server slot: the idle
        timeout suspends it, and a resume later completes the stream."""
        trace = attacked_trace()

        async def go():
            async with serving(tmp_path, idle_timeout_s=0.15) as server:
                from repro.service.session import chunk_to_bytes
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(encode_frame(FrameType.HELLO, {
                    "session_id": "veh-stall",
                    "meta": trace.meta.to_dict()}))
                writer.write(encode_frame(
                    FrameType.CHUNK, {"seq": 0},
                    chunk_to_bytes(trace.meta, list(trace.records)[:100])))
                await writer.drain()
                await read_frame(reader)  # WELCOME
                await read_frame(reader)  # ACK
                await asyncio.sleep(0.5)  # ... and go silent
                hung_up = await read_frame(reader)
                outcome = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-stall",
                    chunk_records=100)
                return hung_up, outcome, server

        hung_up, outcome, server = asyncio.run(go())
        assert hung_up is None, "server must hang up on a stalled client"
        assert server.stalled_clients == 1
        assert server.sessions == {}
        assert outcome.chunks_applied == 1  # only the unacked half resent
        assert outcome.verdict["report"] == offline_verdict(trace)


class TestVerdictReplay:
    def test_earlier_verdict_replays_after_later_sessions(self, tmp_path):
        """A verdict issued before later sessions ran stays correct and
        replayable afterwards."""
        first, second = attacked_trace(), attacked_trace(window=(50, 110))

        async def go():
            async with serving(tmp_path) as server:
                a = await stream_trace(first, "127.0.0.1", server.port,
                                       "veh-a", chunk_records=50)
                b = await stream_trace(second, "127.0.0.1", server.port,
                                       "veh-b", chunk_records=50)
                replay = await stream_trace(first, "127.0.0.1", server.port,
                                            "veh-a", chunk_records=50)
                return a, b, replay

        a, b, replay = asyncio.run(go())
        assert a.verdict["report"] == offline_verdict(first)
        assert b.verdict["report"] == offline_verdict(second)
        assert replay.resumed_finished and replay.verdict == a.verdict


class TestFleetChaos:
    def test_mixed_failure_fleet_all_verdicts_exact(self, tmp_path):
        """Concurrent sessions, each with a different injected failure;
        every verdict must match the offline oracle, exactly once."""
        traces = [attacked_trace(window=(40 + 20 * i, 120 + 10 * i))
                  for i in range(5)]
        knobs = [
            {},                                             # clean run
            {"disconnect_after_chunks": 2},                 # clean drop
            {"disconnect_after_chunks": 3, "tear_frame": True},
            {"duplicate_chunks": True},
            {"disconnect_after_chunks": 1},
        ]

        async def go():
            async with serving(tmp_path) as server:
                outcomes = await asyncio.gather(*[
                    stream_trace(t, "127.0.0.1", server.port,
                                 f"veh-fleet-{i}", chunk_records=25, **k)
                    for i, (t, k) in enumerate(zip(traces, knobs))])
                status = await fetch_status("127.0.0.1", server.port)
                return outcomes, status

        outcomes, status = asyncio.run(go())
        for trace, outcome in zip(traces, outcomes):
            assert outcome.verdict["report"] == offline_verdict(trace)
        assert status["counters"]["verdicts_issued"] == 5
        assert status["fleet"]["sessions_completed"] == 5
        assert status["counters"]["suspends"] >= 3


# -- checkpoint store: failed saves, manifest-only reads, segments -------

def _payloads(trace, size):
    from repro.service.session import chunk_to_bytes
    records = list(trace.records)
    return [chunk_to_bytes(trace.meta, records[i:i + size])
            for i in range(0, len(records), size)]


async def _open_session(port, session_id, meta):
    """A raw connection that has sent HELLO and received WELCOME."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(encode_frame(FrameType.HELLO, {
        "session_id": session_id, "meta": meta.to_dict()}))
    await writer.drain()
    assert (await read_frame(reader)).type is FrameType.WELCOME
    return reader, writer


async def _send_chunk(reader, writer, seq, payload):
    """Send one CHUNK; the reply frame, or ``None`` if the server hung up."""
    writer.write(encode_frame(FrameType.CHUNK, {"seq": seq}, payload))
    await writer.drain()
    return await read_frame(reader)


async def _stream_partial(port, session_id, meta, payloads):
    """HELLO, ACKed chunks ``0..len(payloads)-1``, then hang up; returns
    once the server has suspended (checkpointed) the session."""
    reader, writer = await _open_session(port, session_id, meta)
    for seq, payload in enumerate(payloads):
        assert (await _send_chunk(reader, writer, seq, payload)).type \
            is FrameType.ACK
    writer.write(encode_frame(FrameType.BYE, {}))
    await writer.drain()
    assert (await read_frame(reader)).type is FrameType.BYE
    assert await read_frame(reader) is None  # suspended before the close
    writer.close()


def _disk_full(self, path, data):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestCheckpointFailure:
    def test_failed_save_evicts_session_and_resume_continues(
            self, tmp_path, monkeypatch):
        """A save that raises mid-session drops the connection, evicts
        the session and releases its monitor; a later RESUME continues
        from the last checkpoint that landed."""
        trace = attacked_trace()
        payloads = _payloads(trace, 50)

        async def go():
            async with serving(tmp_path) as server:
                reader, writer = await _open_session(
                    server.port, "veh-enospc", trace.meta)
                for seq in range(2):
                    assert (await _send_chunk(reader, writer, seq,
                                              payloads[seq])).type \
                        is FrameType.ACK
                monkeypatch.setattr(SessionStore, "_write",
                                    _disk_full)
                hung_up = await _send_chunk(reader, writer, 2, payloads[2])
                writer.close()
                live = dict(server.sessions)
                monkeypatch.undo()
                outcome = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-enospc",
                    chunk_records=50)
                status = await fetch_status("127.0.0.1", server.port)
                return hung_up, live, outcome, status

        hung_up, live, outcome, status = asyncio.run(go())
        assert hung_up is None, "no ACK for a chunk that was not saved"
        assert live == {}, "a failed save must not strand the session"
        # the chunk's own checkpoint and the suspend's retry
        assert status["counters"]["checkpoint_errors"] == 2
        assert status["monitor_pool"]["reused"] >= 1
        assert outcome.chunks_applied == 2  # resent from cursor 2
        assert outcome.verdict["report"] == offline_verdict(trace)

    def test_failed_verdict_save_is_never_sent_and_resume_finishes(
            self, tmp_path, monkeypatch):
        """A verdict whose save fails is not sent, and the session is
        evicted like any other; the resumed stream gets its verdict."""
        trace = attacked_trace()
        payloads = _payloads(trace, 50)

        async def go():
            async with serving(tmp_path) as server:
                reader, writer = await _open_session(
                    server.port, "veh-verdict", trace.meta)
                for seq, payload in enumerate(payloads):
                    assert (await _send_chunk(reader, writer, seq,
                                              payload)).type \
                        is FrameType.ACK
                monkeypatch.setattr(SessionStore, "_write",
                                    _disk_full)
                writer.write(encode_frame(FrameType.FINISH, {}))
                await writer.drain()
                hung_up = await read_frame(reader)
                writer.close()
                live = dict(server.sessions)
                monkeypatch.undo()
                outcome = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-verdict",
                    chunk_records=50)
                return hung_up, live, outcome

        hung_up, live, outcome = asyncio.run(go())
        assert hung_up is None, "an unsaved verdict must not be sent"
        assert live == {}
        assert outcome.chunks_applied == 0
        assert outcome.verdict["report"] == offline_verdict(trace)

    def test_stop_shuts_down_when_saves_fail(self, tmp_path, monkeypatch):
        """stop() with a live session whose save raises still evicts the
        session and releases the store lease."""
        trace = attacked_trace()

        async def go():
            server = TraceIngestServer(ServerConfig(store_dir=str(tmp_path)))
            await server.start()
            reader, writer = await _open_session(
                server.port, "veh-stop", trace.meta)
            assert (await _send_chunk(reader, writer, 0,
                                      _payloads(trace, 50)[0])).type \
                is FrameType.ACK
            monkeypatch.setattr(SessionStore, "_write", _disk_full)
            await server.stop()
            writer.close()
            return server

        server = asyncio.run(go())
        assert server.sessions == {}
        assert server.checkpoint_errors >= 1
        monkeypatch.undo()
        successor = SessionStore(tmp_path)
        successor.acquire()  # raises LeaseConflict if the lease leaked
        successor.release()


class TestManifestOnlyReads:
    def test_hello_and_finished_resume_decode_no_records(
            self, tmp_path, monkeypatch):
        trace = attacked_trace()
        decodes = []

        def counting(real):
            def wrapper(data):
                decodes.append(len(data))
                return real(data)
            return wrapper

        async def go():
            async with serving(tmp_path) as server:
                first = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-done",
                    chunk_records=50)
                monkeypatch.setattr(
                    store_module, "trace_from_bytes",
                    counting(store_module.trace_from_bytes))
                monkeypatch.setattr(
                    session_module, "trace_from_bytes",
                    counting(session_module.trace_from_bytes))
                _, writer = await _open_session(
                    server.port, "veh-new", trace.meta)
                writer.close()
                # HELLO bounced to RESUME, which replays the verdict
                replay = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-done",
                    chunk_records=50)
                return first, replay

        first, replay = asyncio.run(go())
        assert decodes == []
        assert replay.resumed_finished and replay.verdict == first.verdict

    def test_hello_and_finished_resume_decode_no_chunks(
            self, tmp_path, monkeypatch):
        """The same reads, counted at the chunk decoder itself: chunks
        decode through ``decode_chunk`` (the store's load and the
        session's apply), not through ``trace_from_bytes``.  A resumed
        unfinished session shows the counter does count."""
        trace = attacked_trace()
        decodes = []

        def counting(real):
            def wrapper(data, meta):
                decodes.append(len(data))
                return real(data, meta)
            return wrapper

        async def go():
            async with serving(tmp_path) as server:
                first = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-done",
                    chunk_records=50)
                await _stream_partial(server.port, "veh-open", trace.meta,
                                      _payloads(trace, 50)[:2])
                for module in (store_module, session_module):
                    monkeypatch.setattr(module, "decode_chunk",
                                        counting(module.decode_chunk))
                _, writer = await _open_session(
                    server.port, "veh-new", trace.meta)
                writer.close()
                replay = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-done",
                    chunk_records=50)
                quiet = list(decodes)
                resumed = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-open",
                    chunk_records=50)
                return first, replay, quiet, resumed

        first, replay, quiet, resumed = asyncio.run(go())
        assert quiet == []
        assert replay.resumed_finished and replay.verdict == first.verdict
        # RESUME decoded the two logged chunks; the stream sent two more.
        assert len(decodes) == 4
        assert resumed.chunks_applied == 2
        assert resumed.verdict["report"] == offline_verdict(trace)

    def test_store_without_segments_replays_finished_verdicts(
            self, tmp_path):
        """A store holding only manifests and whole-log payloads (the
        layout before segments) still replays finished verdicts; an
        unfinished session there resumes fresh."""
        trace = attacked_trace()
        store = SessionStore(tmp_path)
        stored_verdict = {"report": {"stored": True}, "n_records": 7}
        for session_id, finished in (("veh-old-done", True),
                                     ("veh-old-open", False)):
            store._manifest_path(session_id).parent.mkdir(
                parents=True, exist_ok=True)
            store._manifest_path(session_id).write_text(json.dumps({
                "session_id": session_id, "meta": trace.meta.to_dict(),
                "next_seq": 4, "finished": finished,
                "verdict": stored_verdict if finished else None}))
            (tmp_path / f"{session_id}.records.npz").write_bytes(
                _payloads(trace, len(trace))[0])

        async def go():
            async with serving(tmp_path) as server:
                done = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-old-done",
                    chunk_records=50)
                reopened = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-old-open",
                    chunk_records=50)
                return done, reopened

        done, reopened = asyncio.run(go())
        assert done.resumed_finished and done.verdict == stored_verdict
        assert reopened.chunks_applied == 4  # fresh: every chunk resent
        assert reopened.verdict["report"] == offline_verdict(trace)


class TestCheckpointCost:
    def test_streaming_never_re_encodes_the_trace(
            self, tmp_path, monkeypatch):
        """Checkpoints append chunk payloads as received, and FINISH
        finishes the live monitor: no record is ever re-encoded."""
        trace = attacked_trace()
        payloads = _payloads(trace, 25)
        encodes = []
        real_encode = session_module.trace_to_npz_bytes

        def counting(trace_):
            encodes.append(len(trace_))
            return real_encode(trace_)

        monkeypatch.setattr(session_module, "trace_to_npz_bytes", counting)
        monkeypatch.setattr(trace_io, "trace_to_npz_bytes", counting)

        async def go():
            async with serving(tmp_path) as server:
                reader, writer = await _open_session(
                    server.port, "veh-cost", trace.meta)
                for seq, payload in enumerate(payloads):
                    assert (await _send_chunk(reader, writer, seq,
                                              payload)).type \
                        is FrameType.ACK
                before_finish = list(encodes)
                writer.write(encode_frame(FrameType.FINISH, {}))
                await writer.drain()
                verdict = await read_frame(reader)
                writer.close()
                return before_finish, verdict

        before_finish, verdict = asyncio.run(go())
        assert len(payloads) == 8
        assert before_finish == []
        assert encodes == []
        assert verdict.type is FrameType.VERDICT
        assert verdict.header["report"] == offline_verdict(trace)
