"""End-to-end server tests: streaming, resume, exactly-once verdicts,
checkpoint recovery across server restarts, the store lease, STATUS.

No pytest-asyncio in the environment: every scenario is a coroutine run
to completion with ``asyncio.run`` inside a plain sync test.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.locking import LeaseConflict
from repro.service.client import StreamError, fetch_status, stream_trace
from repro.service.protocol import FrameType, encode_frame, read_frame
from repro.service.server import ServerConfig, TraceIngestServer
from repro.service.session import chunk_to_bytes
from repro.service.store import SessionStore

from service_utils import attacked_trace, offline_verdict, serving


class TestStreaming:
    def test_verdict_matches_offline_oracle(self, tmp_path):
        trace = attacked_trace()

        async def go():
            async with serving(tmp_path) as server:
                return await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-1",
                    chunk_records=32)

        outcome = asyncio.run(go())
        assert outcome.verdict["report"] == offline_verdict(trace)
        assert outcome.verdict["any_fired"] is True
        assert outcome.chunks_applied == 7  # ceil(200 / 32)

    def test_live_violations_arrive_before_the_verdict(self, tmp_path):
        trace = attacked_trace()

        async def go():
            async with serving(tmp_path) as server:
                return await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-live",
                    chunk_records=20)

        outcome = asyncio.run(go())
        assert outcome.live_violations, \
            "monitor episodes must be pushed on ACKs mid-stream"
        fired = {v["assertion_id"] for v in outcome.live_violations}
        offline_fired = {
            s["assertion_id"]
            for s in offline_verdict(trace)["summaries"].values()
            if s["fired"]}
        assert fired <= offline_fired

    def test_two_sessions_share_one_connection_lifecycle(self, tmp_path):
        """Sequential sessions on one server; fleet aggregates count both."""
        clean = attacked_trace(num_steps=300, window=(0, 0))
        attacked = attacked_trace()

        async def go():
            async with serving(tmp_path) as server:
                a = await stream_trace(clean, "127.0.0.1", server.port,
                                       "veh-clean", chunk_records=64)
                b = await stream_trace(attacked, "127.0.0.1", server.port,
                                       "veh-attacked", chunk_records=64)
                status = await fetch_status("127.0.0.1", server.port)
                return a, b, status

        a, b, status = asyncio.run(go())
        assert a.verdict["any_fired"] is False
        assert b.verdict["any_fired"] is True
        fleet = status["fleet"]
        assert fleet["sessions_completed"] == 2
        assert fleet["sessions_violating"] == 1
        assert fleet["per_cause"]["clean"]["sessions"] == 1


class TestResumeExactlyOnce:
    def test_disconnect_and_resume_single_verdict(self, tmp_path):
        trace = attacked_trace()

        async def go():
            async with serving(tmp_path) as server:
                outcome = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-drop",
                    chunk_records=25, disconnect_after_chunks=3)
                return outcome, server.verdicts_issued, server.suspends

        outcome, issued, suspends = asyncio.run(go())
        assert outcome.reconnects >= 1
        assert suspends >= 1
        assert issued == 1, "exactly one verdict per session"
        assert outcome.verdict["report"] == offline_verdict(trace)

    def test_hello_on_checkpointed_session_bounces_to_resume(self, tmp_path):
        """Streaming the same session twice must not recompute: the
        second run gets the stored verdict replayed."""
        trace = attacked_trace()

        async def go():
            async with serving(tmp_path) as server:
                first = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-once",
                    chunk_records=50)
                second = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-once",
                    chunk_records=50)
                return first, second, server

        first, second, server = asyncio.run(go())
        assert not first.resumed_finished
        assert second.resumed_finished
        assert second.chunks_sent == 0, "no records travel on a replay"
        assert second.verdict == first.verdict
        assert server.verdicts_issued == 1
        assert server.verdicts_replayed == 1

    def test_checkpoint_survives_server_restart(self, tmp_path):
        """Kill the server mid-session; a new server resumes the stream
        from the checkpoint and the verdict still matches offline."""
        trace = attacked_trace()
        chunks = [
            chunk_to_bytes(trace.meta, list(trace.records)[i:i + 50])
            for i in range(0, 200, 50)]

        async def first_half():
            async with serving(tmp_path) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(encode_frame(FrameType.HELLO, {
                    "session_id": "veh-restart",
                    "meta": trace.meta.to_dict()}))
                for seq in range(2):
                    writer.write(encode_frame(
                        FrameType.CHUNK, {"seq": seq}, chunks[seq]))
                await writer.drain()
                for _ in range(3):  # WELCOME + 2 ACKs
                    reply = await read_frame(reader)
                    assert reply.type in (FrameType.WELCOME, FrameType.ACK)
                writer.close()
                # server.stop() checkpoints; simulates an orderly kill

        async def second_half():
            async with serving(tmp_path) as server:
                return await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-restart",
                    chunk_records=50)

        asyncio.run(first_half())
        outcome = asyncio.run(second_half())
        assert outcome.chunks_applied == 2, \
            "the resumed stream only sends the unacked half"
        assert outcome.verdict["report"] == offline_verdict(trace)

    def test_second_server_on_live_store_refused(self, tmp_path):
        async def go():
            async with serving(tmp_path) as _:
                second = TraceIngestServer(
                    ServerConfig(store_dir=str(tmp_path), shards=0))
                with pytest.raises(LeaseConflict):
                    await second.start()

        asyncio.run(go())

    def test_store_released_on_stop(self, tmp_path):
        async def go():
            async with serving(tmp_path):
                pass
            async with serving(tmp_path):  # no TTL wait needed
                pass

        asyncio.run(go())


class TestProtocolPolicing:
    def test_finish_on_empty_session_is_nonfatal(self, tmp_path):
        trace = attacked_trace()

        async def go():
            async with serving(tmp_path) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(encode_frame(FrameType.HELLO, {
                    "session_id": "veh-empty",
                    "meta": trace.meta.to_dict()}))
                writer.write(encode_frame(FrameType.FINISH, {}))
                await writer.drain()
                welcome = await read_frame(reader)
                error = await read_frame(reader)
                writer.close()
                return welcome, error

        welcome, error = asyncio.run(go())
        assert welcome.type is FrameType.WELCOME
        assert error.type is FrameType.ERROR
        assert not error.header["fatal"]
        assert "empty" in error.header["message"]

    def test_chunk_without_session_is_fatal(self, tmp_path):
        async def go():
            async with serving(tmp_path) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(encode_frame(FrameType.CHUNK, {"seq": 0},
                                          b"whatever"))
                await writer.drain()
                reply = await read_frame(reader)
                tail = await read_frame(reader)  # server hangs up
                writer.close()
                return reply, tail

        reply, tail = asyncio.run(go())
        assert reply.type is FrameType.ERROR
        assert reply.header["fatal"]
        assert tail is None

    def test_stream_empty_trace_refused_client_side(self, tmp_path):
        empty = attacked_trace(num_steps=0)

        async def go():
            async with serving(tmp_path) as server:
                await stream_trace(empty, "127.0.0.1", server.port, "veh-0")

        with pytest.raises(StreamError, match="empty"):
            asyncio.run(go())


class TestStatus:
    def test_status_surfaces_failure_counters(self, tmp_path):
        trace = attacked_trace()

        async def go():
            async with serving(tmp_path) as server:
                await stream_trace(trace, "127.0.0.1", server.port,
                                   "veh-s", chunk_records=50,
                                   disconnect_after_chunks=1)
                return await fetch_status("127.0.0.1", server.port)

        status = asyncio.run(go())
        counters = status["counters"]
        assert counters["verdicts_issued"] == 1
        assert counters["suspends"] >= 1
        assert counters["resumes"] >= 1
        assert status["sessions"]["active"] == 0
        assert status["fleet"]["detection_latency_s"]["n"] == 1
        assert status["monitor_pool"]["created"] >= 1


class TestStoreLeaseHeartbeat:
    """Saves re-stamp the store lease once per quarter TTL, not once per
    chunk (each stamp is a read, a write and a rename)."""

    def test_saves_stamp_once_per_quarter_ttl(self, tmp_path):
        now = [100.0]
        store = SessionStore(tmp_path, clock=lambda: now[0])
        store.acquire()
        stamps = []
        real_refresh = store.lease.refresh

        def counting_refresh():
            stamps.append(now[0])
            real_refresh()

        store.lease.refresh = counting_refresh
        trace = attacked_trace(num_steps=8)
        payload = chunk_to_bytes(trace.meta, list(trace.records)[:1])

        def save(seq):
            store.save("veh-hb", meta=trace.meta, segments=[(seq, payload)],
                       next_seq=seq + 1, finished=False, verdict=None)

        for seq in range(8):
            save(seq)
            now[0] += 0.01
        assert stamps == [100.0]
        now[0] = 100.0 + store.lease.ttl / 4
        save(8)
        assert len(stamps) == 2
        assert store.lease.holder()["owner"] == store.lease.owner_id
        store.release()
