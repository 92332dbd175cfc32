"""Trace serialization: binary ``.npz`` (preferred), JSONL, and CSV.

Three formats, by role:

* **Binary** (:func:`write_trace_npz` / :func:`trace_to_npz_bytes`) —
  the run cache's payload, the service's CHUNK payload and checkpoint
  segment.  Exact round-trip of every channel, and loading yields the
  *columnar* trace form directly (no per-record parsing), which is what
  the vectorized checker consumes.  Layout, format version 2: a zip of
  exactly two members, both **stored** (not deflated), readable by
  ``numpy.load``:

  - ``header`` — UTF-8 JSON: ``format``, ``version``, ``n`` (records),
    ``meta``, and ``columns``, a list of ``[name, dtype.str]`` in
    :attr:`Trace.field_names` order;
  - ``columns`` — one ``uint8`` block: every channel's ``n`` values,
    back to back in that order.

  The zip comment is a hex CRC-32 of every byte before it: zip readers
  check member CRCs but not timestamps, attributes or local-header
  copies of sizes, so without it some single-byte flips would load.
  Decoding validates the column list against the schema (names, order,
  dtypes: never coerced) and the block size against ``n``, marks the
  block read-only and cuts it into views, so building the trace copies
  no column.  Version 1 deflated one member per channel: ~30% smaller,
  but its 54 members cost ~10 ms per decode and ~13 ms per encode of an
  800-record trace against ~1 ms each way for the block.  Deflating the
  block would save about a third of its bytes for ~12 ms more per encode
  and ~2 ms per decode, most of what the layout saves, so it stays
  stored.
* **JSONL** (:func:`write_trace_jsonl`) — one metadata header line plus
  one record per line; round-tripping is exact up to float repr (Python's
  ``repr`` of a float is lossless).  Kept as the human-inspectable
  interchange format (``zcat``, ``jq``, hand-built fixtures).
* **CSV** (:func:`write_trace_csv`) — spreadsheet-friendly record table
  with the metadata in a ``# meta:`` comment line.

Paths ending in ``.gz`` are transparently gzip-compressed on the JSONL
path; :func:`read_trace_auto` / :func:`trace_from_bytes` sniff the format
(zip magic = binary, gzip magic = compressed JSONL, else plain JSONL).

Error handling contract: structurally broken input (missing header,
corrupt record in the middle of a file, a complete record the schema
rejects wherever it sits, wrong CSV columns, a binary payload that fails
its checksum, disagrees with the schema or carries another format
version) raises :class:`TraceIOError` — a :class:`ValueError` subclass
carrying the file label.  A JSONL stream cut off mid-write (truncated
gzip stream, a final line that is not complete JSON — what a killed
writer or full disk leaves behind) instead returns the parseable prefix
and emits a :class:`TraceTruncationWarning`, because the prefix is still
a valid trace and losing the tail is recoverable.  A truncated *binary*
payload is always a hard :class:`TraceIOError`: its columns are laid
out whole, so there is no meaningful prefix to salvage.
"""

from __future__ import annotations

import csv
# zipfile decodes .npz member names with the cp437 codec, which it
# imports on first use: load it with this module, so a server's first
# chunk pays for no import.
import encodings.cp437  # noqa: F401
import functools
import gzip
import io
import json
import math
import warnings
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.trace.schema import Trace, TraceColumns, TraceMeta, TraceRecord

__all__ = [
    "TraceIOError",
    "TraceTruncationWarning",
    "TRACE_NPZ_VERSION",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "write_trace_csv",
    "read_trace_csv",
    "write_trace_npz",
    "read_trace_npz",
    "read_trace_auto",
    "trace_to_jsonl_bytes",
    "trace_from_jsonl_bytes",
    "trace_to_npz_bytes",
    "columns_to_npz_bytes",
    "trace_from_npz_bytes",
    "trace_from_bytes",
]

_GZIP_MAGIC = b"\x1f\x8b"
_ZIP_MAGIC = b"PK\x03\x04"

TRACE_NPZ_VERSION = 2
"""Binary trace format version; readers reject anything else.

2: one stored column block instead of one deflated member per channel.
"""

_NPZ_FORMAT_NAME = "adassure-trace"


class TraceIOError(ValueError):
    """A trace file/payload is structurally unreadable (not just truncated)."""


class TraceTruncationWarning(UserWarning):
    """A trace stream ended mid-write; the parseable prefix was returned."""


def _record_to_dict(record: TraceRecord) -> dict:
    return {name: getattr(record, name) for name in Trace.field_names}


def _record_from_dict(data: dict) -> TraceRecord:
    kwargs = {}
    for name in Trace.field_names:
        if name not in data:
            raise ValueError(f"record is missing channel {name!r}")
        kwargs[name] = data[name]
    for name in Trace.int_channels:
        kwargs[name] = int(kwargs[name])
    return TraceRecord(**kwargs)


def _write_jsonl_stream(trace: Trace, f) -> None:
    f.write(json.dumps({"meta": trace.meta.to_dict()}) + "\n")
    for record in trace:
        f.write(json.dumps(_record_to_dict(record)) + "\n")


# Exceptions a file object raises mid-iteration when the underlying
# stream was cut off (gzip raises EOFError/BadGzipFile on a truncated
# member, plain files can surface OSError on bad media).
_STREAM_TRUNCATION = (EOFError, gzip.BadGzipFile, OSError)


def _read_jsonl_stream(f, label: str) -> Trace:
    try:
        header = f.readline()
    except _STREAM_TRUNCATION as exc:
        raise TraceIOError(f"{label}: unreadable trace stream: {exc}") from exc
    if not header:
        raise TraceIOError(f"{label}: empty trace file")
    try:
        head = json.loads(header)
    except json.JSONDecodeError as exc:
        raise TraceIOError(f"{label}: bad metadata header: {exc}") from exc
    if not isinstance(head, dict) or "meta" not in head:
        raise TraceIOError(f"{label}: missing metadata header line")
    meta = TraceMeta.from_dict(head["meta"])
    trace = Trace(meta)

    lines = iter(f)
    line_no = 1
    truncated: str | None = None
    while True:
        line_no += 1
        try:
            line = next(lines)
        except StopIteration:
            break
        except _STREAM_TRUNCATION as exc:
            truncated = f"stream ended mid-record: {exc}"
            break
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            # Unparseable JSON as the *final* line is what an interrupted
            # write leaves behind — salvage the prefix.  With more data
            # after it, it is corruption and must not be papered over.
            try:
                more = next(lines)
            except (StopIteration, *_STREAM_TRUNCATION):
                more = ""
            if more.strip():
                raise TraceIOError(
                    f"{label}:{line_no}: bad trace record: {exc}") from exc
            truncated = f"incomplete final record ({exc})"
            break
        try:
            trace.append(_record_from_dict(data))
        except (TypeError, ValueError) as exc:
            # A complete record the schema rejects was written whole:
            # it is bad data wherever it sits, never a torn tail.
            raise TraceIOError(
                f"{label}:{line_no}: bad trace record: {exc}") from exc
    if truncated is not None:
        warnings.warn(
            f"{label}: truncated trace, kept {len(trace)} record(s) "
            f"({truncated})",
            TraceTruncationWarning,
            stacklevel=3,
        )
    return trace


def write_trace_jsonl(trace: Trace, path: str | Path) -> None:
    """Write a trace to a JSON-lines file (header line + one record/line).

    A ``.gz`` suffix gzip-compresses the file transparently.
    """
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8") as f:
            _write_jsonl_stream(trace, f)
    else:
        with path.open("w", encoding="utf-8") as f:
            _write_jsonl_stream(trace, f)


def read_trace_jsonl(path: str | Path) -> Trace:
    """Read a trace written by :func:`write_trace_jsonl` (plain or .gz).

    Raises :class:`TraceIOError` on structurally corrupt input; a stream
    truncated mid-write yields the parseable prefix with a
    :class:`TraceTruncationWarning` instead.
    """
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as f:
            return _read_jsonl_stream(f, str(path))
    with path.open("r", encoding="utf-8") as f:
        return _read_jsonl_stream(f, str(path))


def trace_to_jsonl_bytes(trace: Trace, compress: bool = True) -> bytes:
    """Serialize a trace to JSONL bytes (gzip-compressed by default).

    This is the persistent run cache's payload format: identical to the
    on-disk JSONL files but round-tripped in memory, so cache writes are
    a single atomic file operation.
    """
    buf = io.StringIO()
    _write_jsonl_stream(trace, buf)
    data = buf.getvalue().encode("utf-8")
    if compress:
        # mtime=0 keeps the payload a pure function of the trace content
        # (content-addressed stores must not embed wall-clock time).
        data = gzip.compress(data, mtime=0)
    return data


def trace_from_jsonl_bytes(data: bytes) -> Trace:
    """Inverse of :func:`trace_to_jsonl_bytes`; auto-detects compression."""
    if data[:2] == _GZIP_MAGIC:
        stream = io.TextIOWrapper(
            gzip.GzipFile(fileobj=io.BytesIO(data)), encoding="utf-8")
        return _read_jsonl_stream(stream, "<trace bytes>")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceIOError(
            f"<trace bytes>: not a trace payload (binary garbage, "
            f"{exc.reason} at byte {exc.start})") from exc
    return _read_jsonl_stream(io.StringIO(text), "<trace bytes>")


# ---------------------------------------------------------------------------
# Binary (.npz) format
# ---------------------------------------------------------------------------

# Everything zipfile / numpy / json can throw at a damaged or truncated
# payload; all of it maps to TraceIOError (binary payloads have no
# salvageable prefix, unlike JSONL).  NotImplementedError and
# RuntimeError are zipfile's answers to a flipped compression-method or
# encryption bit.
_NPZ_READ_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    ValueError,
    KeyError,
    OSError,
    EOFError,
    NotImplementedError,
    RuntimeError,
)

_HEADER_MEMBER = "header.npy"
_BLOCK_MEMBER = "columns.npy"
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)
"""Member timestamp: fixed, so a payload is a pure function of its trace."""

_CHECKSUM_BYTES = 8


def _checksum(body) -> bytes:
    """The archive comment: hex CRC-32 over every byte before it."""
    return b"%08x" % zlib.crc32(body)


def _npz_member(zf: zipfile.ZipFile, name: str, array: np.ndarray) -> None:
    npy = io.BytesIO()
    np.lib.format.write_array(npy, array, allow_pickle=False)
    zf.writestr(zipfile.ZipInfo(name, date_time=_ZIP_EPOCH), npy.getvalue())


def _pack_npz(header: dict, block: np.ndarray) -> bytes:
    """A two-member, stored (not deflated) npz sealed by its checksum."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        _npz_member(zf, _HEADER_MEMBER,
                    np.asarray(json.dumps(header).encode("utf-8")))
        _npz_member(zf, _BLOCK_MEMBER, block)
        zf.comment = bytes(_CHECKSUM_BYTES)  # placeholder, patched below
    body = buf.getvalue()[:-_CHECKSUM_BYTES]
    return body + _checksum(body)


def trace_to_npz_bytes(trace: Trace) -> bytes:
    """Serialize a trace to the binary format as an in-memory payload.

    Two members: a JSON ``header`` (format name, version, record count,
    trace metadata and the ``[name, dtype]`` column table) and one
    ``columns`` block with every channel's bytes back to back, in
    :attr:`Trace.field_names` order.  Exact round-trip of every dtype.
    """
    return columns_to_npz_bytes(trace.meta, trace.columns())


def columns_to_npz_bytes(meta: TraceMeta, cols: TraceColumns) -> bytes:
    """:func:`trace_to_npz_bytes` of the trace ``meta`` + ``cols``,
    encoded as given: a wire encoder must be able to produce what a
    faulty sender would (the reader rejects it)."""
    arrays = [cols.get(name) for name in Trace.field_names]
    header = {
        "format": _NPZ_FORMAT_NAME,
        "version": TRACE_NPZ_VERSION,
        "n": cols.n,
        "meta": meta.to_dict(),
        "columns": [[name, array.dtype.str]
                    for name, array in zip(Trace.field_names, arrays)],
    }
    block = np.frombuffer(b"".join(array.tobytes() for array in arrays),
                          dtype=np.uint8)
    return _pack_npz(header, block)


@functools.lru_cache(maxsize=1024)
def _schema_dtype(name: str, code: str) -> np.dtype | None:
    """The dtype ``code`` names, if the trace schema stores ``name`` as
    that dtype; else ``None``.  Cached: payloads repeat a handful of
    codes, and parsing and comparing dtypes is most of a small decode."""
    try:
        dtype = np.dtype(code)
    except (TypeError, ValueError):
        return None
    if name in Trace.string_channels:
        ok = dtype.kind == "U" and dtype.isnative and dtype.itemsize > 0
    elif name in Trace.bool_channels:
        ok = dtype == np.bool_
    elif name in Trace.int_channels:
        ok = dtype == np.int64
    else:
        ok = dtype == np.float64
    return dtype if ok else None


def _column_table(header: dict, label: str) -> tuple[int, list]:
    """Validate the header's record count and column table against the
    schema; returns ``(n, [(name, dtype), ...])``."""
    n = header.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise TraceIOError(f"{label}: bad record count {n!r}")
    table = header.get("columns")
    try:
        names = [name for name, _ in table]
    except (TypeError, ValueError):
        raise TraceIOError(f"{label}: bad column table in header") from None
    if names != list(Trace.field_names):
        missing = [name for name in Trace.field_names if name not in names]
        if missing:
            raise TraceIOError(f"{label}: missing channel {missing[0]!r}")
        raise TraceIOError(
            f"{label}: column table does not match the trace schema "
            "(unknown, repeated or reordered channels)")
    columns = []
    for name, code in table:
        dtype = _schema_dtype(name, code) if isinstance(code, str) else None
        if dtype is None:
            raise TraceIOError(
                f"{label}: channel {name!r} has dtype {code!r}, which the "
                "trace schema does not store")
        columns.append((name, dtype))
    return n, columns


_NPY_MAGIC = b"\x93NUMPY"


@functools.lru_cache(maxsize=256)
def _npy_layout(prefix: bytes) -> tuple[tuple[int, ...], np.dtype]:
    """Shape and dtype of an ``.npy`` member from its header (the bytes
    before the data).  Cached: members repeat a handful of headers, and
    parsing one (an ``ast.literal_eval``) costs more than the read."""
    fp = io.BytesIO(prefix)
    major, _ = np.lib.format.read_magic(fp)
    read_header = (np.lib.format.read_array_header_1_0 if major == 1
                   else np.lib.format.read_array_header_2_0)
    shape, fortran_order, dtype = read_header(fp)
    if fortran_order or dtype.hasobject or fp.read():
        raise ValueError("unsupported .npy member layout")
    return shape, dtype


def _read_npy(zf: zipfile.ZipFile, name: str) -> np.ndarray:
    """Member ``name`` as a read-only array: ``np.lib.format.read_array``
    with ``allow_pickle=False`` for the C-order members this module
    writes, with the member's zip CRC always checked."""
    raw = zf.read(name)
    if raw[:6] != _NPY_MAGIC or len(raw) < 12 or raw[6] not in (1, 2):
        raise ValueError(f"member {name!r} is not a version 1/2 .npy array")
    size = 2 if raw[6] == 1 else 4
    end = 8 + size + int.from_bytes(raw[8:8 + size], "little")
    shape, dtype = _npy_layout(raw[:end])
    return np.frombuffer(raw, dtype=dtype, count=math.prod(shape),
                         offset=end).reshape(shape)


def trace_from_npz_bytes(data: bytes) -> Trace:
    """Inverse of :func:`trace_to_npz_bytes`.

    Raises :class:`TraceIOError` on anything that is not a complete,
    current-version binary trace: truncated or corrupt zip structure, a
    failed checksum, a foreign npz file, a version mismatch, a column
    table that differs from the schema (names, order or dtypes), or a
    block whose size disagrees with the record count.  The columns are
    read-only views into the one decoded block.
    """
    label = "<trace bytes>"
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            if _HEADER_MEMBER not in zf.namelist():
                raise TraceIOError(f"{label}: not a trace npz (no header)")
            raw = _read_npy(zf, _HEADER_MEMBER)[()]
            try:
                header = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise TraceIOError(f"{label}: bad npz header: {exc}") from exc
            if (not isinstance(header, dict)
                    or header.get("format") != _NPZ_FORMAT_NAME):
                raise TraceIOError(f"{label}: not an adassure trace npz")
            version = header.get("version")
            if version != TRACE_NPZ_VERSION:
                raise TraceIOError(
                    f"{label}: unsupported trace format version {version!r} "
                    f"(this build reads version {TRACE_NPZ_VERSION})")
            if zf.comment != _checksum(
                    memoryview(data)[:-_CHECKSUM_BYTES]):
                raise TraceIOError(
                    f"{label}: payload failed its checksum (corrupted)")
            n, columns = _column_table(header, label)
            block = _read_npy(zf, _BLOCK_MEMBER)
    except TraceIOError:
        raise
    except _NPZ_READ_ERRORS as exc:
        raise TraceIOError(
            f"{label}: unreadable binary trace: {exc}") from exc
    expected = n * sum(dtype.itemsize for _, dtype in columns)
    if block.dtype != np.uint8 or block.shape != (expected,):
        raise TraceIOError(
            f"{label}: header claims {n} records ({expected} column "
            f"bytes), block holds {block.size} {block.dtype} item(s)")
    # Read-only first: from_columns keeps read-only views as they are.
    block.flags.writeable = False
    arrays = {}
    offset = 0
    for name, dtype in columns:
        size = n * dtype.itemsize
        arrays[name] = block[offset:offset + size].view(dtype)
        offset += size
    try:
        meta = TraceMeta.from_dict(header.get("meta", {}))
    except (AttributeError, TypeError, ValueError) as exc:
        raise TraceIOError(f"{label}: bad trace metadata: {exc}") from exc
    try:
        return Trace.from_columns(meta, arrays)
    except ValueError as exc:
        raise TraceIOError(f"{label}: {exc}") from exc


def write_trace_npz(trace: Trace, path: str | Path) -> None:
    """Write a trace in the binary format (conventional suffix ``.npz``)."""
    Path(path).write_bytes(trace_to_npz_bytes(trace))


def read_trace_npz(path: str | Path) -> Trace:
    """Read a trace written by :func:`write_trace_npz`."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise TraceIOError(f"{path}: unreadable trace file: {exc}") from exc
    try:
        return trace_from_npz_bytes(data)
    except TraceIOError as exc:
        raise TraceIOError(str(exc).replace("<trace bytes>",
                                            str(path), 1)) from exc


def trace_from_bytes(data: bytes) -> Trace:
    """Deserialize a trace payload of any supported format.

    Sniffs the leading magic: zip (binary npz), gzip (compressed JSONL),
    else plain-text JSONL.  The run cache reads entries through this, so
    caches written by older (JSONL) builds still load.

    Payloads too short to even carry a format magic (what a torn network
    frame or a zero-byte cache file looks like) raise
    :class:`TraceIOError` up front rather than a confusing low-level
    error from whichever decoder the sniffer happened to guess.
    """
    if len(data) < len(_ZIP_MAGIC):
        raise TraceIOError(
            f"<trace bytes>: payload of {len(data)} byte(s) is too short "
            "to be a trace (no format magic)")
    if data[:4] == _ZIP_MAGIC:
        return trace_from_npz_bytes(data)
    return trace_from_jsonl_bytes(data)


def read_trace_auto(path: str | Path) -> Trace:
    """Read a trace file of any supported format (sniffed, not by suffix)."""
    path = Path(path)
    try:
        with path.open("rb") as f:
            head = f.read(4)
    except OSError as exc:
        raise TraceIOError(f"{path}: unreadable trace file: {exc}") from exc
    if len(head) < len(_ZIP_MAGIC):
        raise TraceIOError(
            f"{path}: file of {len(head)} byte(s) is too short to be a "
            "trace (no format magic)")
    if head == _ZIP_MAGIC:
        return read_trace_npz(path)
    if head[:2] == _GZIP_MAGIC and path.suffix != ".gz":
        # gzip'd JSONL under a non-.gz name: the suffix dispatch in
        # read_trace_jsonl would misread it as plain text.
        return trace_from_jsonl_bytes(path.read_bytes())
    return read_trace_jsonl(path)


def write_trace_csv(trace: Trace, path: str | Path) -> None:
    """Write a trace as CSV with a ``# meta:`` comment header."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as f:
        f.write("# meta: " + json.dumps(trace.meta.to_dict()) + "\n")
        writer = csv.writer(f)
        writer.writerow(Trace.field_names)
        for record in trace:
            writer.writerow(getattr(record, name) for name in Trace.field_names)


def read_trace_csv(path: str | Path) -> Trace:
    """Read a trace written by :func:`write_trace_csv`."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as f:
        first = f.readline()
        meta = TraceMeta()
        if first.startswith("# meta:"):
            meta = TraceMeta.from_dict(json.loads(first[len("# meta:"):]))
            header_line = None
        else:
            header_line = first
        reader = csv.reader(f)
        if header_line is not None:
            header = next(csv.reader([header_line]))
        else:
            header = next(reader)
        if tuple(header) != Trace.field_names:
            raise TraceIOError(f"{path}: unexpected CSV columns")
        trace = Trace(meta)
        for row in reader:
            data = dict(zip(Trace.field_names, row))
            kwargs = {}
            for name, raw in data.items():
                if name in Trace.string_channels:
                    kwargs[name] = raw
                elif name in Trace.int_channels:
                    kwargs[name] = int(raw)
                elif name in Trace.bool_channels:
                    kwargs[name] = raw in ("True", "true", "1")
                else:
                    kwargs[name] = float(raw)
            trace.append(TraceRecord(**kwargs))
    return trace
