"""Failure injection for the session store's append-only logs.

Each test damages a checkpoint log the way a crash, bit rot or a full
disk would — a torn final record, a flipped byte, a partial append, a
refused open — and holds the store to its contract: the cursor only
ever undersells, the file is cut back to its last whole record before
anything is appended behind it, and a served session still ends in a
verdict equal to the offline oracle.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os

import pytest

import repro.service.store as store_module
from repro.service.client import fetch_status, stream_trace
from repro.service.protocol import FrameType, encode_frame, read_frame
from repro.service.session import chunk_to_bytes
from repro.service.store import MAX_NAME_BYTES, SessionStore, log_name

from service_utils import attacked_trace, offline_verdict, serving


def _payloads(trace, size):
    records = list(trace.records)
    return [chunk_to_bytes(trace.meta, records[i:i + size])
            for i in range(0, len(records), size)]


def _save(store, session_id, meta, chunks, *, verdict=None):
    """Append ``(seq, payload)`` chunks (and a verdict) to a log."""
    store.save(session_id, meta=meta, segments=chunks,
               next_seq=chunks[-1][0] + 1 if chunks else 0,
               finished=verdict is not None, verdict=verdict)


def _log(store, session_id):
    return store.root / (log_name(session_id) + ".session.log")


class TestTornRecords:
    def test_torn_final_chunk_at_every_byte_offset(self, tmp_path):
        trace = attacked_trace(num_steps=4)
        payloads = _payloads(trace, 1)
        store = SessionStore(tmp_path)
        _save(store, "veh", trace.meta, [(0, payloads[0])])
        whole = _log(store, "veh").stat().st_size
        _save(store, "veh", trace.meta, [(1, payloads[1])])
        data = _log(store, "veh").read_bytes()

        for cut in range(whole + 1, len(data)):
            _log(store, "veh").write_bytes(data[:cut])
            assert store.manifest("veh").next_seq == 1, cut
            loaded = store.load("veh")
            assert loaded.next_seq == 1, cut
            assert _log(store, "veh").stat().st_size == whole, cut
        _save(store, "veh", trace.meta, [(1, payloads[1])])
        assert _log(store, "veh").read_bytes() == data
        assert store.load("veh").records == list(trace.records)[:2]

    def test_torn_verdict_record_at_every_byte_offset(self, tmp_path):
        trace = attacked_trace(num_steps=4)
        store = SessionStore(tmp_path)
        _save(store, "veh", trace.meta, [(0, _payloads(trace, 4)[0])])
        whole = _log(store, "veh").stat().st_size
        verdict = {"report": {"stored": True}, "n_records": 4}
        _save(store, "veh", trace.meta, [], verdict=verdict)
        data = _log(store, "veh").read_bytes()
        assert store.manifest("veh").verdict == verdict

        for cut in range(whole + 1, len(data)):
            _log(store, "veh").write_bytes(data[:cut])
            checkpoint = store.manifest("veh")
            assert not checkpoint.finished and checkpoint.verdict is None
            assert store.load("veh").next_seq == 1
            assert _log(store, "veh").stat().st_size == whole

    def test_torn_head_is_no_log(self, tmp_path):
        trace = attacked_trace(num_steps=4)
        store = SessionStore(tmp_path)
        _save(store, "veh", trace.meta, [])
        data = _log(store, "veh").read_bytes()
        for cut in range(len(data)):
            _log(store, "veh").write_bytes(data[:cut])
            assert store.manifest("veh") is None
            assert store.load("veh") is None


class TestFlippedByte:
    def test_middle_record_ends_the_log_and_is_cut(self, tmp_path):
        trace = attacked_trace()
        payloads = _payloads(trace, 50)
        store = SessionStore(tmp_path)
        _save(store, "veh", trace.meta, [(0, payloads[0])])
        whole = _log(store, "veh").stat().st_size
        _save(store, "veh", trace.meta, list(enumerate(payloads))[1:])
        data = bytearray(_log(store, "veh").read_bytes())
        data[whole + 100] ^= 0x40  # inside chunk 1's payload
        _log(store, "veh").write_bytes(bytes(data))

        assert store.manifest("veh").next_seq == 1
        loaded = store.load("veh")
        assert loaded.next_seq == 1
        assert loaded.records == list(trace.records)[:50]
        assert _log(store, "veh").stat().st_size == whole
        _save(store, "veh", trace.meta, list(enumerate(payloads))[1:])
        assert store.load("veh").records == list(trace.records)

    def test_out_of_order_chunk_ends_the_cursor(self, tmp_path):
        """A chunk record that does not continue the cursor (here a seq
        from an earlier incarnation) is never counted, nor is anything
        behind it."""
        trace = attacked_trace()
        payloads = _payloads(trace, 50)
        store = SessionStore(tmp_path)
        _save(store, "veh", trace.meta, [(0, payloads[0]), (1, payloads[1])])
        whole = _log(store, "veh").stat().st_size
        _save(store, "veh", trace.meta, [(7, payloads[3]), (2, payloads[2])])
        assert store.manifest("veh").next_seq == 2
        assert store.load("veh").records == list(trace.records)[:100]
        assert _log(store, "veh").stat().st_size == whole


def _partial_then_full(self, fd, data):
    os.write(fd, data[:len(data) // 2])
    raise OSError(errno.ENOSPC, "No space left on device")


async def _open_session(port, session_id, meta):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(encode_frame(FrameType.HELLO, {
        "session_id": session_id, "meta": meta.to_dict()}))
    await writer.drain()
    return reader, writer, await read_frame(reader)


async def _send_chunk(reader, writer, seq, payload):
    writer.write(encode_frame(FrameType.CHUNK, {"seq": seq}, payload))
    await writer.drain()
    return await read_frame(reader)


class TestFailedAppends:
    @pytest.mark.parametrize("failure", ["disk_full", "permission"])
    def test_failed_append_resumes_from_last_whole_record(
            self, tmp_path, monkeypatch, failure):
        trace = attacked_trace()
        payloads = _payloads(trace, 50)
        real_open = os.open

        def refused_open(path, flags, *args):
            if str(path).endswith(".session.log"):
                raise PermissionError(errno.EACCES, "Permission denied",
                                      str(path))
            return real_open(path, flags, *args)

        async def go():
            async with serving(tmp_path) as server:
                reader, writer, welcome = await _open_session(
                    server.port, "veh-full", trace.meta)
                assert welcome.type is FrameType.WELCOME
                for seq in range(2):
                    assert (await _send_chunk(reader, writer, seq,
                                              payloads[seq])).type \
                        is FrameType.ACK
                size = _log(server.store, "veh-full").stat().st_size
                if failure == "disk_full":
                    monkeypatch.setattr(SessionStore, "_write",
                                        _partial_then_full)
                else:
                    monkeypatch.setattr(store_module.os, "open",
                                        refused_open)
                hung_up = await _send_chunk(reader, writer, 2, payloads[2])
                writer.close()
                monkeypatch.undo()
                after = _log(server.store, "veh-full").stat().st_size
                outcome = await stream_trace(
                    trace, "127.0.0.1", server.port, "veh-full",
                    chunk_records=50)
                status = await fetch_status("127.0.0.1", server.port)
                return hung_up, size, after, outcome, status

        hung_up, size, after, outcome, status = asyncio.run(go())
        assert hung_up is None, "no ACK for a chunk that was not saved"
        assert after == size, "the failed append was cut back"
        # the chunk's own checkpoint and the suspend's retry
        assert status["counters"]["checkpoint_errors"] == 2
        assert outcome.chunks_applied == 2  # resent from cursor 2
        assert outcome.verdict["report"] == offline_verdict(trace)

    def test_no_append_until_a_load_cuts_the_log(self, tmp_path,
                                                 monkeypatch):
        """A partial append that cannot be cut back leaves the log
        refusing appends (a verdict behind a half record would be
        unreachable); a load cuts it and appends resume."""
        trace = attacked_trace()
        payloads = _payloads(trace, 50)
        store = SessionStore(tmp_path)
        _save(store, "veh", trace.meta, [(0, payloads[0])])
        whole = _log(store, "veh").stat().st_size

        def no_truncate(fd, length):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(SessionStore, "_write", _partial_then_full)
        monkeypatch.setattr(store_module.os, "ftruncate", no_truncate)
        with pytest.raises(OSError):
            _save(store, "veh", trace.meta, [(1, payloads[1])])
        monkeypatch.undo()
        assert _log(store, "veh").stat().st_size > whole  # half a record
        with pytest.raises(OSError, match="resume the session"):
            _save(store, "veh", trace.meta, [(1, payloads[1])],
                  verdict={"n_records": 100})
        assert _log(store, "veh").stat().st_size > whole

        assert store.load("veh").next_seq == 1
        assert _log(store, "veh").stat().st_size == whole
        verdict = {"n_records": 100}
        _save(store, "veh", trace.meta, [(1, payloads[1])], verdict=verdict)
        loaded = store.load("veh")
        assert loaded.finished and loaded.verdict == verdict
        assert loaded.records == list(trace.records)[:100]

    def test_log_deleted_under_a_live_session_fails_the_save(self,
                                                             tmp_path):
        trace = attacked_trace()
        payloads = _payloads(trace, 50)
        store = SessionStore(tmp_path)
        _save(store, "veh", trace.meta, [(0, payloads[0])])
        _log(store, "veh").unlink()
        with pytest.raises(FileNotFoundError):
            _save(store, "veh", trace.meta, [(1, payloads[1])])
        assert not _log(store, "veh").exists(), "no headless log"


class TestStaleLogsAndDrop:
    def test_fresh_session_over_a_stale_log(self, tmp_path):
        """A log the server cannot read (here: an earlier incarnation
        whose head was torn) is truncated by the fresh session's first
        save; none of its chunks is ever read."""
        old, new = attacked_trace(), attacked_trace(window=(20, 60))
        store = SessionStore(tmp_path)
        _save(store, "veh-stale", old.meta,
              list(enumerate(_payloads(old, 50))))
        data = bytearray(_log(store, "veh-stale").read_bytes())
        data[10] ^= 0x01
        _log(store, "veh-stale").write_bytes(bytes(data))

        async def go():
            async with serving(tmp_path) as server:
                outcome = await stream_trace(
                    new, "127.0.0.1", server.port, "veh-stale",
                    chunk_records=50)
                return outcome, server.store.load("veh-stale")

        outcome, loaded = asyncio.run(go())
        assert outcome.chunks_applied == 4 and outcome.reconnects == 0
        assert outcome.verdict["report"] == offline_verdict(new)
        assert loaded.finished and loaded.records == list(new.records)

    def test_drop_removes_the_log_and_only_that(self, tmp_path):
        trace = attacked_trace()
        payloads = _payloads(trace, 50)
        store = SessionStore(tmp_path)
        for session_id in ("veh", "veh.1", "veh%"):
            _save(store, session_id, trace.meta, [(0, payloads[0])])
        store.drop("veh")
        assert store.manifest("veh") is None
        assert store.session_ids() == ["veh%", "veh.1"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "veh%25.session.log", "veh.1.session.log"]
        assert len(store.load("veh.1").records) == 50
        # a dropped id starts over with a fresh log
        _save(store, "veh", trace.meta, [(0, payloads[1])])
        assert store.load("veh").records == list(trace.records)[50:100]


class TestSessionIdCollisions:
    def test_names_are_injective(self, tmp_path):
        ids = ["veh/1", "veh_1", "veh%2F1", "veh%1", "ü", "%C3%BC", "..",
               "a" * 128 + "x", "a" * 128 + "y", "\ud800"]
        assert len({log_name(i) for i in ids}) == len(ids)
        trace = attacked_trace(num_steps=4)
        store = SessionStore(tmp_path)
        for session_id in ids:
            _save(store, session_id, trace.meta, [])
        assert store.session_ids() == sorted(ids)
        assert all(p.parent == tmp_path for p in tmp_path.iterdir())

    def test_slash_and_underscore_ids_are_separate_sessions(self, tmp_path):
        """``veh/1`` finishing must not bounce ``veh_1`` to RESUME and
        hand it ``veh/1``'s verdict."""
        first, second = attacked_trace(), attacked_trace(window=(20, 60))

        async def go():
            async with serving(tmp_path) as server:
                done = await stream_trace(
                    first, "127.0.0.1", server.port, "veh/1",
                    chunk_records=50)
                other = await stream_trace(
                    second, "127.0.0.1", server.port, "veh_1",
                    chunk_records=50)
                return done, other, server.verdicts_replayed

        done, other, replayed = asyncio.run(go())
        assert done.verdict["report"] == offline_verdict(first)
        assert not other.resumed_finished and replayed == 0
        assert other.chunks_applied == 4
        assert other.verdict["report"] == offline_verdict(second)

    def test_long_ids_are_refused_not_truncated(self, tmp_path):
        """Ids that share their first 128 characters are distinct
        sessions; one whose name exceeds the limit gets a counted,
        non-fatal ERROR instead of another session's log."""
        trace = attacked_trace()
        near = "v" * (MAX_NAME_BYTES - 1)
        too_long = "v" * (MAX_NAME_BYTES + 1)

        async def go():
            async with serving(tmp_path) as server:
                a = await stream_trace(trace, "127.0.0.1", server.port,
                                       near + "a", chunk_records=50)
                b = await stream_trace(trace, "127.0.0.1", server.port,
                                       near + "b", chunk_records=50)
                replies = []
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                for verb in (FrameType.HELLO, FrameType.RESUME):
                    writer.write(encode_frame(verb, {
                        "session_id": too_long,
                        "meta": trace.meta.to_dict()}))
                    await writer.drain()
                    replies.append(await read_frame(reader))
                writer.close()
                await writer.wait_closed()
                return a, b, replies, server.protocol_errors, \
                    server.store.session_ids()

        a, b, replies, errors, ids = asyncio.run(go())
        assert not b.resumed_finished and b.chunks_applied == 4
        assert a.verdict == b.verdict
        assert [r.type for r in replies] == [FrameType.ERROR] * 2
        assert all(not r.header["fatal"] for r in replies)
        assert "too long" in replies[0].header["message"]
        assert errors == 2
        assert ids == [near + "a", near + "b"]

    def test_old_manifest_of_another_id_counts_as_absent(self, tmp_path):
        """An older build stored ``veh/1`` under the name ``veh_1``: the
        id inside tells them apart."""
        trace = attacked_trace()
        store = SessionStore(tmp_path)
        stored = {"report": {"stored": True}, "n_records": 7}
        path = store._manifest_path("veh/1")
        assert path == store._manifest_path("veh_1")
        path.write_text(json.dumps({
            "session_id": "veh/1", "meta": trace.meta.to_dict(),
            "next_seq": 4, "finished": True, "verdict": stored}))
        assert store.manifest("veh_1") is None
        assert store.manifest("veh/1").verdict == stored
