"""The CHUNK payload of protocol 3: a bare column block, without meta.

A chunk carries its record count, the itemsizes of the string channels
and the columns.  It has no checksum of its own: the frame's CRC covers
it on the wire, the session log's record CRC in the store.  These tests
hold that split to its promise: a damaged chunk is refused (a
``ProtocolError``, a ``ChunkRejected`` or a fresh resume), never turned
into a block for a monitor.
"""

from __future__ import annotations

import asyncio
import dataclasses
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.store as store_module
from repro.service.client import stream_trace
from repro.service.protocol import (
    PROTOCOL_VERSION,
    FrameType,
    ProtocolError,
    decode_frames,
    encode_frame,
    read_frame,
)
from repro.service.session import (
    ChunkRejected,
    chunk_to_bytes,
    decode_chunk,
    records_from_chunk,
)
from repro.service.store import SessionStore, log_name
from repro.trace.io import columns_to_npz_bytes
from repro.trace.schema import Trace, TraceColumns, TraceMeta

from conftest import make_trace
from service_utils import attacked_trace, offline_verdict, serving

TRACE = make_trace(8)
RECORDS = list(TRACE.records)
PAYLOAD = chunk_to_bytes(TRACE.meta, RECORDS[:3])
FRAME = encode_frame(FrameType.CHUNK, {"seq": 0}, PAYLOAD)
HEAD = struct.Struct("<6I")  # record count + five string itemsizes


def _flip(data: bytes, position: int, mask: int) -> bytes:
    damaged = bytearray(data)
    damaged[position] ^= mask
    return bytes(damaged)


class TestLayout:
    def test_roundtrip_is_exact(self):
        chunk = decode_chunk(PAYLOAD, TRACE.meta)
        assert list(chunk.records) == RECORDS[:3]
        assert records_from_chunk(PAYLOAD) == RECORDS[:3]

    def test_columns_are_read_only_views_and_meta_is_the_sessions(self):
        chunk = decode_chunk(PAYLOAD, TRACE.meta)
        assert chunk.meta is TRACE.meta
        for name in Trace.field_names:
            column = chunk.columns().get(name)
            assert not column.flags.writeable and not column.flags.owndata

    def test_payload_carries_no_meta(self):
        one = chunk_to_bytes(TraceMeta(scenario="alpha-scenario"),
                             RECORDS[:3])
        other = chunk_to_bytes(TraceMeta(scenario="beta"), RECORDS[:3])
        assert one == other == PAYLOAD
        assert b"alpha" not in one and b"synthetic" not in PAYLOAD

    def test_header_then_columns(self):
        n, *widths = HEAD.unpack_from(PAYLOAD)
        assert n == 3 and all(w > 0 and w % 4 == 0 for w in widths)
        cols = TraceColumns.from_records(RECORDS[:3])
        assert len(PAYLOAD) == HEAD.size + sum(
            cols.get(name).nbytes for name in Trace.field_names)
        assert PAYLOAD[HEAD.size:HEAD.size + 24] == \
            cols.get("step").astype("<i8").tobytes()

    def test_string_channels_of_any_width(self):
        records = [dataclasses.replace(r, supervisor_mode="m" * (7 * i),
                                       attack_name="é✓")
                   for i, r in enumerate(RECORDS[:4])]
        assert records_from_chunk(chunk_to_bytes(TRACE.meta, records)) \
            == records


class TestRejection:
    @pytest.mark.parametrize("payload", [b"", b"\x01\x00\x00",
                                         PAYLOAD[:HEAD.size - 1]])
    def test_shorter_than_the_header(self, payload):
        with pytest.raises(ChunkRejected, match="undecodable"):
            decode_chunk(payload, TRACE.meta)

    def test_no_records(self):
        empty = HEAD.pack(0, 4, 4, 4, 4, 4)
        with pytest.raises(ChunkRejected, match="no records"):
            decode_chunk(empty, TRACE.meta)

    @pytest.mark.parametrize("payload", [PAYLOAD[:-1], PAYLOAD + b"\x00"])
    def test_size_disagrees_with_the_header(self, payload):
        with pytest.raises(ChunkRejected, match="header claims 3"):
            decode_chunk(payload, TRACE.meta)

    @pytest.mark.parametrize("width", [0, 3, 6, 2 ** 31, 2 ** 32 - 4])
    def test_itemsize_not_whole_characters_or_too_large(self, width):
        n, *widths = HEAD.unpack_from(PAYLOAD)
        bad = HEAD.pack(n, width, *widths[1:]) + PAYLOAD[HEAD.size:]
        with pytest.raises(ChunkRejected, match="itemsize"):
            decode_chunk(bad, TRACE.meta)

    def test_a_bad_chunk_is_answered_and_the_session_goes_on(
            self, tmp_path):
        """The server answers a chunk it cannot decode with a non-fatal
        ERROR carrying the cursor, and the stream then completes."""
        trace = attacked_trace()
        payloads = [chunk_to_bytes(trace.meta, list(trace.records)[i:i + 50])
                    for i in range(0, len(trace), 50)]

        async def go():
            async with serving(tmp_path) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                replies = []
                for ftype, header, payload in (
                        (FrameType.HELLO, {"session_id": "veh-bad",
                                           "meta": trace.meta.to_dict()},
                         b""),
                        (FrameType.CHUNK, {"seq": 0}, payloads[0][:-8]),
                        *((FrameType.CHUNK, {"seq": seq}, payload)
                          for seq, payload in enumerate(payloads)),
                        (FrameType.FINISH, {}, b"")):
                    writer.write(encode_frame(ftype, header, payload))
                    await writer.drain()
                    replies.append(await read_frame(reader))
                writer.close()
                return replies

        replies = asyncio.run(go())
        assert replies[1].type is FrameType.ERROR
        assert not replies[1].header["fatal"]
        assert replies[1].header["next_seq"] == 0
        assert "header claims 50" in replies[1].header["message"]
        assert [r.type for r in replies[2:-1]] == [FrameType.ACK] * 4
        assert replies[-1].type is FrameType.VERDICT
        assert replies[-1].header["report"] == offline_verdict(trace)

    def test_steps_that_do_not_increase(self):
        stalled = [RECORDS[0], RECORDS[2], dataclasses.replace(
            RECORDS[3], step=RECORDS[2].step)]
        with pytest.raises(ChunkRejected, match="strictly increase"):
            decode_chunk(chunk_to_bytes(TRACE.meta, stalled), TRACE.meta)

    def test_protocol_2_payload(self):
        old = columns_to_npz_bytes(TRACE.meta,
                                   TraceColumns.from_records(RECORDS[:3]))
        with pytest.raises(ChunkRejected, match="undecodable"):
            decode_chunk(old, TRACE.meta)


class TestCorruptionNeverYieldsABlock:
    @settings(max_examples=300, deadline=None)
    @given(cut=st.integers(1, len(FRAME) - 1))
    def test_every_truncated_chunk_frame_is_refused(self, cut):
        with pytest.raises(ProtocolError):
            decode_frames(FRAME[:cut])

    @settings(max_examples=600, deadline=None)
    @given(position=st.integers(0, len(FRAME) - 1),
           mask=st.integers(1, 255))
    def test_every_flipped_chunk_frame_byte_is_refused(self, position,
                                                       mask):
        with pytest.raises(ProtocolError):
            decode_frames(_flip(FRAME, position, mask))

    @staticmethod
    def _one_chunk_log(root) -> tuple[SessionStore, bytes, int]:
        """A log of a head and one chunk record; its bytes and where the
        chunk record starts."""
        store = SessionStore(root)
        store.save("veh", meta=TRACE.meta, segments=[], next_seq=0,
                   finished=False, verdict=None)
        path = root / (log_name("veh") + ".session.log")
        head_end = path.stat().st_size
        store.save("veh", meta=TRACE.meta, segments=[(0, PAYLOAD)],
                   next_seq=1, finished=False, verdict=None)
        return store, path.read_bytes(), head_end

    @staticmethod
    def _loads_no_block(store: SessionStore, path, data: bytes) -> None:
        path.write_bytes(data)
        loaded = store.load("veh")
        assert loaded is None or (loaded.next_seq == 0
                                  and loaded.blocks == [])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_truncated_stored_chunk_is_refused(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            store, whole, head_end = self._one_chunk_log(root)
            cut = data.draw(st.integers(head_end, len(whole) - 1))
            self._loads_no_block(
                store, root / (log_name("veh") + ".session.log"),
                whole[:cut])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_flipped_stored_byte_is_refused(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            store, whole, _ = self._one_chunk_log(root)
            position = data.draw(st.integers(0, len(whole) - 1))
            mask = data.draw(st.integers(1, 255))
            self._loads_no_block(
                store, root / (log_name("veh") + ".session.log"),
                _flip(whole, position, mask))

    def test_the_undamaged_log_does_yield_the_block(self, tmp_path):
        store, _, _ = self._one_chunk_log(tmp_path)
        loaded = store.load("veh")
        assert loaded.next_seq == 1
        assert loaded.records == RECORDS[:3]


async def _resume(port, session_id, meta):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(encode_frame(FrameType.RESUME, {
        "session_id": session_id, "meta": meta.to_dict()}))
    await writer.drain()
    reply = await read_frame(reader)
    writer.close()
    return reply


class TestProtocol2Peers:
    def test_protocol_2_chunk_frame_gets_the_version_error(self):
        wire = bytearray(encode_frame(
            FrameType.CHUNK, {"seq": 0},
            columns_to_npz_bytes(TRACE.meta,
                                 TraceColumns.from_records(RECORDS[:3]))))
        wire[4] = 2
        assert PROTOCOL_VERSION == 3
        with pytest.raises(ProtocolError,
                           match=r"unsupported protocol version 2 .*"
                                 r"speaks version 3"):
            decode_frames(bytes(wire))

    @staticmethod
    def _protocol_2_log(root, session_id, trace, payload_of):
        """A log as the protocol-2 build wrote it: a head without the
        protocol stamp, then two chunk records."""
        records = list(trace.records)
        head = store_module._json_record(store_module._HEAD, {
            "session_id": session_id, "meta": trace.meta.to_dict()})
        chunks = [store_module._record(
            store_module._CHUNK, struct.pack("<I", seq) + payload_of(
                records[seq * 50:(seq + 1) * 50])) for seq in range(2)]
        root.mkdir(parents=True, exist_ok=True)
        (root / (log_name(session_id) + ".session.log")).write_bytes(
            head + b"".join(chunks))

    def test_log_of_binary_trace_chunks_resumes_fresh(self, tmp_path):
        trace = attacked_trace()
        self._protocol_2_log(
            tmp_path, "veh-p2", trace, lambda records: columns_to_npz_bytes(
                trace.meta, TraceColumns.from_records(records)))

        async def go():
            async with serving(tmp_path) as server:
                assert server.store.manifest("veh-p2").next_seq == 2
                assert server.store.load("veh-p2") is None
                reply = await _resume(server.port, "veh-p2", trace.meta)
                outcome = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-p2",
                    chunk_records=50)
                return reply, outcome

        reply, outcome = asyncio.run(go())
        assert reply.type is FrameType.RESUMED
        assert reply.header["fresh"] is True and reply.header["next_seq"] == 0
        assert outcome.chunks_applied == 4  # every chunk resent
        assert outcome.verdict["report"] == offline_verdict(trace)

    def test_the_head_decides_not_the_payload_bytes(self, tmp_path):
        """Chunks that happen to decode under protocol 3 in a log whose
        head predates it still resume fresh."""
        trace = attacked_trace()
        self._protocol_2_log(tmp_path, "veh-p2", trace,
                             lambda records: chunk_to_bytes(trace.meta,
                                                            records))
        store = SessionStore(tmp_path)
        assert store.manifest("veh-p2").next_seq == 2
        assert store.load("veh-p2") is None

