"""Tests for the binary (.npz) trace format and the columnar backend.

The binary format is the run cache's payload, so its failure modes are
load-bearing: a corrupt, truncated or future-version payload must raise
:class:`TraceIOError` (which the cache maps to evict-and-rerun), never
yield a silently wrong trace.
"""

import io
import json

import numpy as np
import pytest

from repro.trace.io import (
    TRACE_NPZ_VERSION,
    TraceIOError,
    read_trace_auto,
    read_trace_npz,
    trace_from_bytes,
    trace_from_npz_bytes,
    trace_to_jsonl_bytes,
    trace_to_npz_bytes,
    write_trace_jsonl,
    write_trace_npz,
    _pack_npz,
)
from repro.trace.schema import Trace, TraceMeta

from conftest import make_trace, v1_npz_bytes


def sample_trace():
    def mutate(step, record):
        if step % 4 == 0:
            return record.replace(gps_fresh=False, attack_active=True,
                                  attack_name="gps_bias",
                                  attack_channel="gps",
                                  supervisor_mode="normal",
                                  supervisor_lost=step % 3)
        if step == 7:
            return record.replace(est_v=float("nan"))
        return record

    return make_trace(
        30,
        meta=TraceMeta(scenario="s_curve", controller="mpc",
                       attack="gps_bias", seed=11, dt=0.05,
                       route_length=321.5, extra={"note": "binary"}),
        mutate=mutate,
    )


def unpack_npz(data: bytes) -> tuple[dict, np.ndarray]:
    """The header dict and the column block, read with plain np.load."""
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        assert sorted(npz.files) == ["columns", "header"]
        return json.loads(npz["header"][()]), npz["columns"]


def repack_npz(data: bytes, *, header: dict | None = None,
               block: np.ndarray | None = None) -> bytes:
    """Re-seal a payload with a patched header and/or column block."""
    old_header, old_block = unpack_npz(data)
    return _pack_npz(old_header if header is None else header,
                     old_block if block is None else block)


def npz_header(data: bytes) -> dict:
    return unpack_npz(data)[0]


def column_span(header: dict, name: str) -> tuple[int, int]:
    """Byte range of one channel inside the column block."""
    offset = 0
    for column, code in header["columns"]:
        size = header["n"] * np.dtype(code).itemsize
        if column == name:
            return offset, offset + size
        offset += size
    raise KeyError(name)


class TestRoundTrip:
    def test_bytes_roundtrip_exact(self):
        trace = sample_trace()
        back = trace_from_npz_bytes(trace_to_npz_bytes(trace))
        assert len(back) == len(trace)
        assert back.meta.to_dict() == trace.meta.to_dict()
        for a, b in zip(trace, back):
            # NaN != NaN breaks whole-record equality; compare field-wise.
            for name in Trace.field_names:
                va, vb = getattr(a, name), getattr(b, name)
                assert va == vb or (va != va and vb != vb), name

    def test_file_roundtrip(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.npz"
        write_trace_npz(trace, path)
        back = read_trace_npz(path)
        assert len(back) == len(trace)
        assert back.meta.to_dict() == trace.meta.to_dict()

    def test_typed_channels_preserved(self):
        trace = sample_trace()
        back = trace_from_npz_bytes(trace_to_npz_bytes(trace))
        assert [r.gps_fresh for r in back] == [r.gps_fresh for r in trace]
        assert [r.supervisor_lost for r in back] == [
            r.supervisor_lost for r in trace]
        assert [r.attack_name for r in back] == [
            r.attack_name for r in trace]
        assert all(isinstance(r.step, int) for r in back)

    def test_empty_trace_roundtrip(self):
        trace = Trace(TraceMeta(scenario="empty"))
        back = trace_from_npz_bytes(trace_to_npz_bytes(trace))
        assert len(back) == 0
        assert back.meta.scenario == "empty"

    def test_payload_is_deterministic(self):
        trace = sample_trace()
        assert trace_to_npz_bytes(trace) == trace_to_npz_bytes(trace)


class TestRejection:
    def test_version_mismatch_rejected(self):
        data = trace_to_npz_bytes(sample_trace())
        header = npz_header(data)
        header["version"] = TRACE_NPZ_VERSION + 1
        patched = repack_npz(data, header=header)
        with pytest.raises(TraceIOError, match="unsupported trace format"):
            trace_from_npz_bytes(patched)

    def test_foreign_format_name_rejected(self):
        data = trace_to_npz_bytes(sample_trace())
        header = npz_header(data)
        header["format"] = "somebody-elses-trace"
        with pytest.raises(TraceIOError, match="not an adassure trace"):
            trace_from_npz_bytes(repack_npz(data, header=header))

    def test_headerless_npz_rejected(self):
        buf = io.BytesIO()
        np.savez_compressed(buf, stuff=np.arange(5))
        with pytest.raises(TraceIOError, match="no header"):
            trace_from_npz_bytes(buf.getvalue())

    def test_missing_channel_rejected(self):
        data = trace_to_npz_bytes(sample_trace())
        header, block = unpack_npz(data)
        start, end = column_span(header, "est_v")
        header["columns"] = [c for c in header["columns"] if c[0] != "est_v"]
        block = np.concatenate([block[:start], block[end:]])
        with pytest.raises(TraceIOError, match="missing channel 'est_v'"):
            trace_from_npz_bytes(repack_npz(data, header=header, block=block))

    def test_record_count_mismatch_rejected(self):
        data = trace_to_npz_bytes(sample_trace())
        header = npz_header(data)
        header["n"] = header["n"] + 5
        with pytest.raises(TraceIOError, match="header claims 35 records"):
            trace_from_npz_bytes(repack_npz(data, header=header))

    @pytest.mark.parametrize("edit", ["swap", "rename", "extra"])
    def test_column_table_must_match_schema(self, edit):
        data = trace_to_npz_bytes(sample_trace())
        header = npz_header(data)
        columns = header["columns"]
        if edit == "swap":  # same names and sizes, wrong order
            columns[2], columns[3] = columns[3], columns[2]
        elif edit == "rename":
            columns[5] = ["not_a_channel", columns[5][1]]
        else:
            columns.append(["not_a_channel", "<f8"])
        with pytest.raises(TraceIOError,
                           match="missing channel|does not match"):
            trace_from_npz_bytes(repack_npz(data, header=header))

    @pytest.mark.parametrize("name,code", [
        ("t", "<f4"),             # float channel, narrower float
        ("t", ">f8"),             # float channel, foreign byte order
        ("true_x", "<i8"),        # float channel as int
        ("step", "<f8"),          # int channel as float
        ("step", "<i4"),
        ("gps_fresh", "|u1"),     # bool channel as bytes
        ("supervisor_lost", "|b1"),
        ("attack_name", "|S8"),   # string channel, bytes kind
        ("attack_name", "<f8"),
        ("attack_name", "<U0"),
        ("attack_name", "|O"),    # never an object array
        ("est_v", "not a dtype"),
    ])
    def test_dtype_outside_schema_rejected(self, name, code):
        # Decoding must not coerce: a dtype the schema does not store
        # is a foreign or corrupt payload, whatever its bytes are.
        data = trace_to_npz_bytes(sample_trace())
        header = npz_header(data)
        header["columns"] = [[c, code if c == name else d]
                             for c, d in header["columns"]]
        with pytest.raises(TraceIOError, match=f"channel {name!r} has dtype"):
            trace_from_npz_bytes(repack_npz(data, header=header))

    @pytest.mark.parametrize("meta", [[1, 2], {"seed": "x"}, {"extra": 5}])
    def test_malformed_meta_rejected(self, meta):
        # Chunks arrive from clients: a well-sealed payload with a
        # malformed meta object is still outside input.
        data = trace_to_npz_bytes(sample_trace())
        header = npz_header(data)
        header["meta"] = meta
        with pytest.raises(TraceIOError, match="bad trace metadata"):
            trace_from_npz_bytes(repack_npz(data, header=header))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_block_size_off_by_one_rejected(self, delta):
        data = trace_to_npz_bytes(sample_trace())
        block = unpack_npz(data)[1]
        block = (block[:-1] if delta < 0
                 else np.concatenate([block, np.zeros(1, np.uint8)]))
        with pytest.raises(TraceIOError, match="header claims 30 records"):
            trace_from_npz_bytes(repack_npz(data, block=block))

    def test_version_1_payload_rejected(self):
        with pytest.raises(TraceIOError,
                           match="unsupported trace format version 1"):
            trace_from_npz_bytes(v1_npz_bytes(sample_trace()))

    @pytest.mark.parametrize("cut", [0.25, 0.5, 0.9])
    def test_truncated_payload_rejected(self, cut):
        data = trace_to_npz_bytes(sample_trace())
        with pytest.raises(TraceIOError):
            trace_from_npz_bytes(data[: int(len(data) * cut)])

    def test_garbage_rejected(self):
        with pytest.raises(TraceIOError):
            trace_from_npz_bytes(b"PK\x03\x04 but not actually a zip")

    def test_every_truncation_and_byte_flip_rejected(self):
        # Zip readers check neither member timestamps nor attributes nor
        # the local-header copies of sizes and CRCs; the archive
        # checksum must catch a flip there as surely as the stored
        # member's CRC catches one in the block.
        data = trace_to_npz_bytes(make_trace(2))
        for cut in range(len(data)):
            with pytest.raises(TraceIOError):
                trace_from_npz_bytes(data[:cut])
        for index in range(len(data)):
            flipped = bytearray(data)
            flipped[index] ^= 0x01 if index % 2 else 0xFF
            with pytest.raises(TraceIOError):
                trace_from_npz_bytes(bytes(flipped))

    def test_file_errors_carry_path(self, tmp_path):
        path = tmp_path / "trace.npz"
        write_trace_npz(sample_trace(), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceIOError, match="trace.npz"):
            read_trace_npz(path)


class TestFormatSniffing:
    """trace_from_bytes / read_trace_auto dispatch on magic, not suffix."""

    def test_bytes_sniffs_npz(self):
        trace = sample_trace()
        assert len(trace_from_bytes(trace_to_npz_bytes(trace))) == len(trace)

    def test_bytes_sniffs_gzip_jsonl(self):
        trace = sample_trace()
        data = trace_to_jsonl_bytes(trace)  # gzip'd JSONL (legacy cache)
        assert len(trace_from_bytes(data)) == len(trace)

    def test_bytes_sniffs_plain_jsonl(self):
        trace = sample_trace()
        data = trace_to_jsonl_bytes(trace, compress=False)
        assert len(trace_from_bytes(data)) == len(trace)

    def test_auto_reads_npz_under_any_suffix(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.jsonl"  # lying suffix
        path.write_bytes(trace_to_npz_bytes(trace))
        assert len(read_trace_auto(path)) == len(trace)

    def test_auto_reads_jsonl(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path)
        assert len(read_trace_auto(path)) == len(trace)

    def test_auto_reads_gzip_under_plain_suffix(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.bin"
        path.write_bytes(trace_to_jsonl_bytes(trace))
        assert len(read_trace_auto(path)) == len(trace)


class TestColumnarBackend:
    def test_columns_cached_until_append(self):
        trace = make_trace(10)
        first = trace.columns()
        assert trace.columns() is first  # cached
        trace.append(trace[9].replace(step=10, t=0.5))
        rebuilt = trace.columns()
        assert rebuilt is not first  # invalidated by append
        assert rebuilt.n == 11

    def test_columns_read_only(self):
        cols = make_trace(5).columns()
        with pytest.raises(ValueError):
            cols.get("t")[0] = 99.0

    def test_from_columns_is_lazy(self):
        trace = sample_trace()
        loaded = trace_from_npz_bytes(trace_to_npz_bytes(trace))
        # Columnar access must not materialize per-record storage.
        assert len(loaded) == len(trace)
        loaded.columns()
        assert loaded._records is None
        # First record access builds the row view on demand.
        assert loaded[0].step == trace[0].step
        assert loaded._records is not None

    def test_from_columns_rejects_ragged(self):
        trace = make_trace(5)
        arrays = {name: trace.columns().get(name)
                  for name in Trace.field_names}
        arrays["t"] = arrays["t"][:3]
        with pytest.raises(ValueError, match="ragged"):
            Trace.from_columns(trace.meta, arrays)

    def test_from_columns_rejects_missing(self):
        with pytest.raises(ValueError, match="missing channels"):
            Trace.from_columns(None, {"t": np.zeros(3)})

    def test_decoded_columns_are_read_only_views_of_one_block(self):
        loaded = trace_from_npz_bytes(trace_to_npz_bytes(sample_trace()))
        cols = loaded.columns()
        bases = {id(cols.get(name).base) for name in Trace.field_names}
        assert len(bases) == 1
        assert not any(cols.get(name).flags.writeable
                       for name in Trace.field_names)

    def test_materialized_records_compare_equal(self):
        trace = make_trace(12)
        loaded = trace_from_npz_bytes(trace_to_npz_bytes(trace))
        assert loaded.records == trace.records
