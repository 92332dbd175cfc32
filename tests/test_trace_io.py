"""Tests for repro.trace.io: JSONL/CSV round trips + truncation salvage."""

import gzip

import pytest

from repro.trace.io import (
    TraceIOError,
    TraceTruncationWarning,
    read_trace_auto,
    read_trace_csv,
    read_trace_jsonl,
    trace_from_bytes,
    trace_from_jsonl_bytes,
    trace_to_jsonl_bytes,
    write_trace_csv,
    write_trace_jsonl,
)
from repro.trace.schema import TraceMeta

from conftest import make_trace


def sample_trace():
    def mutate(step, record):
        if step % 3 == 0:
            return record.replace(gps_fresh=False, attack_active=True,
                                  attack_name="gps_bias", attack_channel="gps")
        return record

    return make_trace(
        25,
        meta=TraceMeta(scenario="s_curve", controller="mpc",
                       attack="gps_bias", seed=11, dt=0.05,
                       route_length=321.5, extra={"note": "test"}),
        mutate=mutate,
    )


class TestJsonl:
    def test_roundtrip_exact(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path)
        back = read_trace_jsonl(path)
        assert len(back) == len(trace)
        assert back.meta.to_dict() == trace.meta.to_dict()
        for a, b in zip(trace, back):
            assert a == b

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_trace_jsonl(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"step": 0}\n')
        with pytest.raises(ValueError, match="metadata"):
            read_trace_jsonl(path)

    def test_corrupt_record_reports_line(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path)
        lines = path.read_text().splitlines()
        lines[3] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":4"):
            read_trace_jsonl(path)

    def test_missing_channel_rejected(self, tmp_path):
        # Two short records: the first has data after it, so this is
        # structural corruption (schema drift), not a truncated tail.
        path = tmp_path / "trace.jsonl"
        path.write_text('{"meta": {}}\n{"step": 0, "t": 0.0}\n'
                        '{"step": 1, "t": 0.1}\n')
        with pytest.raises(ValueError, match="missing channel"):
            read_trace_jsonl(path)


class TestTruncation:
    """A stream cut off mid-write salvages the prefix with a warning;
    corruption *inside* the file stays a hard error."""

    def test_incomplete_final_line_salvages_prefix(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path)
        text = path.read_text()
        path.write_text(text[: int(len(text) * 0.8)])  # cut mid-record
        with pytest.warns(TraceTruncationWarning, match="kept"):
            back = read_trace_jsonl(path)
        assert 0 < len(back) < len(trace)
        for a, b in zip(back, trace):
            assert a == b

    def test_truncated_gzip_stream_salvages_prefix(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.jsonl.gz"
        write_trace_jsonl(trace, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 20])  # chop the gzip tail
        with pytest.warns(TraceTruncationWarning):
            back = read_trace_jsonl(path)
        assert len(back) < len(trace)

    def test_truncated_bytes_payload_salvages_prefix(self):
        trace = sample_trace()
        data = trace_to_jsonl_bytes(trace)
        with pytest.warns(TraceTruncationWarning):
            back = trace_from_jsonl_bytes(data[: len(data) - 20])
        assert len(back) < len(trace)

    def test_bytes_roundtrip_uncompressed(self):
        trace = sample_trace()
        data = trace_to_jsonl_bytes(trace, compress=False)
        back = trace_from_jsonl_bytes(data)
        assert len(back) == len(trace)

    def test_midfile_corruption_still_hard_error(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path)
        lines = path.read_text().splitlines()
        lines[5] = lines[5][:40]  # broken record with records after it
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceIOError, match=":6"):
            read_trace_jsonl(path)

    def test_header_only_file_is_empty_trace(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path)
        header = path.read_text().splitlines()[0]
        path.write_text(header + "\n")
        back = read_trace_jsonl(path)
        assert len(back) == 0
        assert back.meta.scenario == trace.meta.scenario



class TestCompleteFinalRecord:
    """Only a final line that is not complete JSON is a torn tail; a
    parsed record the schema rejects is bad data even at the end."""

    def _write(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_non_increasing_final_step_is_an_error(self, tmp_path):
        import json

        trace = make_trace(6)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[-1])  # step 5
        record["step"] = 2
        path = self._write(tmp_path, lines[:-1] + [json.dumps(record)])
        with pytest.raises(TraceIOError, match=":7.*increase"):
            read_trace_jsonl(path)

    def test_final_record_missing_channel_is_an_error(self, tmp_path):
        import json

        trace = make_trace(6)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[-1])
        del record["gps_x"]
        path = self._write(tmp_path, lines[:-1] + [json.dumps(record)])
        with pytest.raises(TraceIOError, match=":7.*missing channel"):
            read_trace_jsonl(path)

class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert len(back) == len(trace)
        assert back.meta.scenario == "s_curve"
        for a, b in zip(trace, back):
            assert a == b

    def test_bool_fields_preserved(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert [r.gps_fresh for r in back] == [r.gps_fresh for r in trace]
        assert [r.attack_active for r in back] == [
            r.attack_active for r in trace
        ]

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="columns"):
            read_trace_csv(path)


class TestSubMagicPayloads:
    """Regression: payloads too short to carry a format magic must raise
    a clear TraceIOError, not a raw struct/Unicode/IndexError.  This is
    what a torn network frame or a zero-byte cache file looks like."""

    @pytest.mark.parametrize("payload", [b"", b"\x1f", b"PK\x03"],
                             ids=["0-byte", "1-byte", "3-byte"])
    def test_trace_from_bytes_rejects_short_payloads(self, payload):
        with pytest.raises(TraceIOError, match="too short"):
            trace_from_bytes(payload)

    @pytest.mark.parametrize("payload", [b"", b"\x1f", b"PK\x03"],
                             ids=["0-byte", "1-byte", "3-byte"])
    def test_read_trace_auto_rejects_short_files(self, tmp_path, payload):
        path = tmp_path / "stub.trace"
        path.write_bytes(payload)
        with pytest.raises(TraceIOError, match="too short"):
            read_trace_auto(path)

    def test_non_utf8_garbage_is_a_trace_error(self):
        # 4+ bytes, no known magic, not decodable text: still TraceIOError.
        with pytest.raises(TraceIOError, match="not a trace payload"):
            trace_from_bytes(b"\xff\xfe\xfd\xfc\xfb")
