"""The verdict is encoded once: the log's verdict record and the VERDICT
frame carry the same bytes.

FINISH encodes the verdict in the frame header's canonical form
(compact, key-sorted JSON), appends those bytes as the session log's
verdict record, and sends the same bytes as the VERDICT frame's header.
A finished session's RESUME replays the stored verdict, and a log whose
verdict record an older build wrote with ``json.dumps`` defaults
(spaced, unsorted) still replays.
"""

from __future__ import annotations

import asyncio
import json
import struct
import zlib

from repro.service.protocol import (
    PREFIX_BYTES,
    FrameType,
    encode_frame,
    encode_header,
    read_frame,
)
from repro.service.session import chunk_to_bytes
from repro.service.store import SessionStore, log_name

from service_utils import attacked_trace, reference_verdict, serving

_SEAL = struct.Struct("<II")


def _payloads(trace, size=64):
    records = list(trace.records)
    return [chunk_to_bytes(trace.meta, records[i:i + size])
            for i in range(0, len(records), size)]


def _log_records(path) -> list[tuple[bytes, bytes]]:
    """Every ``(kind, body)`` record of a session log, in order."""
    data = path.read_bytes()
    records, offset = [], 0
    while offset < len(data):
        length, crc = _SEAL.unpack_from(data, offset)
        sealed = data[offset + _SEAL.size:offset + _SEAL.size + length]
        assert zlib.crc32(sealed) == crc
        records.append((sealed[:1], sealed[1:]))
        offset += _SEAL.size + length
    return records


async def _read_raw_frame(reader) -> tuple[FrameType, bytes]:
    """One frame's type and its header bytes exactly as sent."""
    prefix = await reader.readexactly(PREFIX_BYTES)
    header_len, payload_len = struct.unpack_from("!II", prefix, 8)
    header = await reader.readexactly(header_len)
    await reader.readexactly(payload_len)
    return FrameType(prefix[5]), header


async def _stream_and_finish(port, session_id, trace) -> bytes:
    """HELLO, every chunk, FINISH; the VERDICT frame's header bytes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(encode_frame(FrameType.HELLO, {
        "session_id": session_id, "meta": trace.meta.to_dict()}))
    await writer.drain()
    assert (await read_frame(reader)).type is FrameType.WELCOME
    for seq, payload in enumerate(_payloads(trace)):
        writer.write(encode_frame(FrameType.CHUNK, {"seq": seq}, payload))
        await writer.drain()
        assert (await read_frame(reader)).type is FrameType.ACK
    writer.write(encode_frame(FrameType.FINISH, {}))
    await writer.drain()
    ftype, header = await _read_raw_frame(reader)
    assert ftype is FrameType.VERDICT
    writer.close()
    return header


async def _resume_finished(port, session_id, meta) -> dict:
    """RESUME a finished session; the RESUMED frame's header."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(encode_frame(FrameType.RESUME, {
        "session_id": session_id, "meta": meta.to_dict()}))
    await writer.drain()
    frame = await read_frame(reader)
    writer.close()
    assert frame.type is FrameType.RESUMED
    assert frame.header["finished"] is True
    return frame.header


def test_log_record_body_is_the_verdict_frame_header(tmp_path):
    trace = attacked_trace()

    async def scenario():
        async with serving(tmp_path) as server:
            return await _stream_and_finish(server.port, "veh/1", trace)

    header = asyncio.run(scenario())
    records = _log_records(tmp_path / (log_name("veh/1") + ".session.log"))
    verdicts = [body for kind, body in records if kind == b"V"]
    assert verdicts == [header]
    assert records[-1][0] == b"V"
    verdict = json.loads(header)
    assert verdict == reference_verdict(trace)
    assert encode_header(verdict) == header


def test_finished_resume_replays_the_verdict(tmp_path):
    trace = attacked_trace()

    async def scenario():
        async with serving(tmp_path) as server:
            header = await _stream_and_finish(server.port, "veh", trace)
        # A new server over the same store: the replay reads the log.
        async with serving(tmp_path) as server:
            resumed = await _resume_finished(server.port, "veh", trace.meta)
            return header, resumed, server.status()

    header, resumed, status = asyncio.run(scenario())
    assert resumed["verdict"] == json.loads(header)
    assert status["counters"]["verdicts_replayed"] == 1
    assert status["counters"]["verdicts_issued"] == 0


def test_verdict_record_in_the_older_encoding_replays(tmp_path):
    """An older build wrote the verdict record with ``json.dumps``
    defaults: spaces after separators, keys in insertion order."""
    trace = attacked_trace()
    verdict = reference_verdict(trace)
    store = SessionStore(tmp_path)
    payloads = _payloads(trace)
    store.save("veh", meta=trace.meta,
               segments=list(enumerate(payloads)),
               next_seq=len(payloads), finished=False, verdict=None)
    body = json.dumps(verdict).encode("utf-8")
    assert body != encode_header(verdict)
    sealed = b"V" + body
    with open(tmp_path / (log_name("veh") + ".session.log"), "ab") as f:
        f.write(_SEAL.pack(len(sealed), zlib.crc32(sealed)) + sealed)

    checkpoint = SessionStore(tmp_path).manifest("veh")
    assert checkpoint.finished and checkpoint.verdict == verdict

    async def scenario():
        async with serving(tmp_path) as server:
            return await _resume_finished(server.port, "veh", trace.meta)

    assert asyncio.run(scenario())["verdict"] == verdict


def test_a_dict_verdict_is_stored_in_the_frame_encoding(tmp_path):
    trace = attacked_trace(num_steps=8)
    verdict = {"report": {"stored": True}, "n_records": 8, "any_fired": False}
    store = SessionStore(tmp_path)
    store.save("veh", meta=trace.meta, segments=[(0, _payloads(trace)[0])],
               next_seq=1, finished=True, verdict=verdict)
    records = _log_records(tmp_path / (log_name("veh") + ".session.log"))
    assert records[-1] == (b"V", encode_header(verdict))
    assert store.manifest("veh").verdict == verdict
