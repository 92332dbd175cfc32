"""Upgrade path from binary trace format version 1.

Version 2 of the binary trace format changed three version stamps at
once: the trace format itself, the run-cache layout and the wire
protocol.  Data written by an older build must miss cleanly, never load
half-way, fail one entry at a time, or be counted as disk damage.
"""

from __future__ import annotations

import asyncio
import pickle

import pytest

from repro.cli import main
from repro.experiments.cache import RunCache, cache_key
from repro.service.client import stream_trace
from repro.service.protocol import (
    PROTOCOL_VERSION,
    FrameType,
    ProtocolError,
    decode_frames,
    encode_frame,
    read_frame,
)
from repro.service.store import SessionStore
from repro.trace.schema import Trace

from conftest import v1_npz_bytes
from service_utils import attacked_trace, offline_verdict, serving


class TestRunCacheLayout:
    KEY = cache_key("s_curve", "pure_pursuit", "gps_bias", 1.0, 7, 15.0, None)

    def old_entry(self, root):
        """One complete entry of the previous (v2) cache layout."""
        shard = root / "v2" / self.KEY[:2]
        shard.mkdir(parents=True)
        (shard / f"{self.KEY}.trace.npz").write_bytes(
            v1_npz_bytes(attacked_trace(20)))
        (shard / f"{self.KEY}.scored.pkl").write_bytes(
            pickle.dumps({"report": None}))

    def test_old_layout_entry_is_a_miss_not_an_error(self, tmp_path):
        self.old_entry(tmp_path)
        cache = RunCache(tmp_path)
        assert cache.load(self.KEY) is None
        assert cache.counters.as_dict() == {
            "hits": 0, "misses": 1, "stores": 0, "errors": 0}
        assert (tmp_path / "v2" / self.KEY[:2]
                / f"{self.KEY}.trace.npz").exists(), "never evicted"

    def test_stats_report_and_clear_removes_old_layouts(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
        self.old_entry(tmp_path)
        (tmp_path / "service-sessions").mkdir()
        stats = RunCache().stats()
        assert stats["entries"] == 0
        assert stats["stale_entries"] == 1
        assert stats["stale_bytes"] > 0
        assert main(["cache", "stats"]) == 0
        assert "stale      : 1 entries" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 1 cached run(s)" in capsys.readouterr().out
        assert not (tmp_path / "v2").exists()
        assert (tmp_path / "service-sessions").exists(), \
            "only v<N> layout roots are cache layouts"


class TestSessionStoreSegments:
    def v1_session(self, store_dir, session_id, *, finished, verdict=None):
        trace = attacked_trace()
        records = list(trace.records)
        store = SessionStore(store_dir)
        segments = [(seq, v1_npz_bytes(Trace(
                        trace.meta, records[seq * 50:(seq + 1) * 50])))
                    for seq in range(2)]
        store.save(session_id, meta=trace.meta, segments=segments,
                   next_seq=2, finished=finished, verdict=verdict)
        return trace

    @staticmethod
    async def resume(port, session_id, meta):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(encode_frame(FrameType.RESUME, {
            "session_id": session_id, "meta": meta.to_dict()}))
        await writer.drain()
        reply = await read_frame(reader)
        writer.close()
        return reply

    def test_unfinished_v1_session_resumes_fresh(self, tmp_path):
        trace = self.v1_session(tmp_path, "veh-v1-open", finished=False)

        async def go():
            async with serving(tmp_path) as server:
                assert server.store.manifest("veh-v1-open").next_seq == 2
                assert server.store.load("veh-v1-open") is None
                return await self.resume(server.port, "veh-v1-open",
                                         trace.meta)

        reply = asyncio.run(go())
        assert reply.type is FrameType.RESUMED
        assert reply.header["fresh"] is True
        assert reply.header["next_seq"] == 0

    def test_unfinished_v1_session_then_streams_to_the_oracle(self, tmp_path):
        trace = self.v1_session(tmp_path, "veh-v1-again", finished=False)

        async def go():
            async with serving(tmp_path) as server:
                return await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-v1-again",
                    chunk_records=50)

        outcome = asyncio.run(go())
        assert outcome.chunks_applied == 4  # every chunk resent
        assert outcome.verdict["report"] == offline_verdict(trace)

    def test_finished_v1_session_replays_its_stored_verdict(self, tmp_path):
        stored = {"report": {"stored": True}, "n_records": 100}
        trace = self.v1_session(tmp_path, "veh-v1-done", finished=True,
                                verdict=stored)

        async def go():
            async with serving(tmp_path) as server:
                reply = await self.resume(server.port, "veh-v1-done",
                                          trace.meta)
                return reply, server.verdicts_replayed

        reply, replayed = asyncio.run(go())
        assert reply.type is FrameType.RESUMED
        assert reply.header["finished"] is True
        assert reply.header["verdict"] == stored
        assert replayed == 1


class TestProtocolVersion:
    def v1_frame(self, ftype, header):
        """A frame of the previous protocol (version 2: CHUNK payloads
        were binary traces)."""
        wire = bytearray(encode_frame(ftype, header))
        wire[4] = PROTOCOL_VERSION - 1
        return bytes(wire)

    def test_previous_version_frame_rejected_actionably(self):
        assert PROTOCOL_VERSION == 3
        with pytest.raises(ProtocolError,
                           match=r"unsupported protocol version 2 .*"
                                 r"speaks version 3; run client and server "
                                 r"from the same release"):
            decode_frames(self.v1_frame(FrameType.ACK, {}))

    def test_server_answers_an_old_client_with_the_version_error(
            self, tmp_path):
        trace = attacked_trace()

        async def go():
            async with serving(tmp_path) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(self.v1_frame(FrameType.HELLO, {
                    "session_id": "veh-old-client",
                    "meta": trace.meta.to_dict()}))
                await writer.drain()
                reply = await read_frame(reader)
                tail = await read_frame(reader)
                writer.close()
                return reply, tail, server.protocol_errors

        reply, tail, errors = asyncio.run(go())
        assert reply.type is FrameType.ERROR
        assert reply.header["fatal"]
        assert "unsupported protocol version 2" in reply.header["message"]
        assert tail is None
        assert errors == 1
