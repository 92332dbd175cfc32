"""Per-session state: one vehicle's incremental monitor and record log.

A session is one trace streamed by one client.  The server keeps, per
session:

* the **record log** — every chunk received so far, in order, as the
  decoded column blocks (the trace the verdict describes, and what a
  resumed session replays into a fresh monitor).  A chunk arrives as a
  bare column block (:func:`chunk_to_bytes`) and is decoded against the
  trace meta its session's HELLO/RESUME carried (:func:`decode_chunk`):
  its columns are views into the payload, and no
  :class:`~repro.trace.schema.TraceRecord` is built while serving;
  :attr:`SessionState.records` materialises them for tests and tools;
* the **pending chunks** — the ``(seq, payload)`` pairs accepted since
  the last checkpoint, exactly as received: a checkpoint appends these
  to the store, so it costs O(chunk), never a re-encode of the log;
* an **incremental monitor** — a pooled
  :class:`~repro.core.monitor.OnlineMonitor` that checks each chunk's
  columns in one :meth:`~repro.core.monitor.OnlineMonitor.feed_columns`
  call, so violation episodes are pushed to the client *live*, long
  before the stream ends.  The per-record ``feed`` is not on this path:
  it is the on-vehicle API and the oracle the chunk path is tested
  against;
* the **chunk cursor** (``next_seq``) — the exactly-once bookkeeping.
  Chunks carry consecutive sequence numbers; a duplicate (``seq <
  next_seq``, e.g. a client retrying after a lost ACK) is acknowledged
  but **not re-applied**, and a gap (``seq > next_seq``) is rejected so
  the client can fall back to resume.  Between those two rules a record
  can never be fed to the monitor twice or skipped.

The final verdict *is* the incremental monitor's report: at FINISH the
server closes the session's monitor (:class:`~repro.service.shards.ShardPool`)
and :func:`verdict_of` adds diagnosis, attack onset and detection
latency, without concatenating the log.  The chunk path and the offline
checker run the same vectorized assertion code (the offline check is
one block over the whole trace), so the verdict is dict-equal to
:func:`score_trace_bytes` — the offline reference over the same records
— without re-encoding the trace or checking it a second time.
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Sequence

import numpy as np

from repro.core.catalog import default_catalog
from repro.core.checker import check_trace
from repro.core.diagnosis import diagnose
from repro.core.monitor import OnlineMonitor
from repro.core.verdicts import CheckReport, Violation
from repro.trace.io import (
    columns_to_npz_bytes,
    trace_from_bytes,
    trace_to_npz_bytes,
)
from repro.trace.schema import Trace, TraceColumns, TraceMeta, TraceRecord

__all__ = [
    "ChunkRejected",
    "MonitorPool",
    "SessionState",
    "chunk_to_bytes",
    "decode_chunk",
    "records_from_chunk",
    "score_trace_bytes",
    "verdict_of",
]


class ChunkRejected(ValueError):
    """A chunk cannot be applied to this session (gap, overlap, garbage)."""


_CHUNK_STRINGS = tuple(name for name in Trace.field_names
                       if name in Trace.string_channels)
"""The string channels, in field order: the chunk header gives each
one's itemsize."""

_CHUNK_HEAD = struct.Struct("<" + "I" * (1 + len(_CHUNK_STRINGS)))
"""A chunk payload's header: the record count, then the itemsize of
each of :data:`_CHUNK_STRINGS` (little-endian u32s)."""


def _fixed_dtype(name: str) -> np.dtype:
    if name in Trace.bool_channels:
        return np.dtype(np.bool_)
    if name in Trace.int_channels:
        return np.dtype("<i8")
    return np.dtype("<f8")


@functools.lru_cache(maxsize=64)
def _chunk_layout(widths: tuple[int, ...]) -> tuple[tuple, int]:
    """``([(name, dtype), ...], bytes per record)`` of a chunk whose
    string channels have the itemsizes ``widths``.  Cached: a session's
    chunks repeat a handful of widths.

    Raises:
        ChunkRejected: a width is not a whole, positive number of
            UCS-4 characters.
    """
    itemsizes = dict(zip(_CHUNK_STRINGS, widths))
    layout = []
    for name in Trace.field_names:
        width = itemsizes.get(name)
        if width is None:
            dtype = _fixed_dtype(name)
        elif width and not width % 4:
            dtype = np.dtype(f"<U{width // 4}")
        else:
            raise ChunkRejected(
                f"undecodable chunk payload: channel {name!r} has "
                f"itemsize {width}, not a positive multiple of 4")
        layout.append((name, dtype))
    return tuple(layout), sum(dtype.itemsize for _, dtype in layout)


def chunk_to_bytes(meta: TraceMeta, records: Sequence[TraceRecord]) -> bytes:
    """Serialize a slice of records as one CHUNK payload.

    The payload carries the records alone: a :data:`_CHUNK_HEAD` (record
    count, string itemsizes), then every channel's values back to back
    in :attr:`Trace.field_names` order, little-endian.  ``meta`` is not
    encoded: HELLO/RESUME carries it once per session, and the server
    decodes every chunk against it.  No checksum of its own: the frame's
    CRC covers the payload on the wire, the log record's CRC in the
    store.  The records are encoded as given, steps unchecked:
    rejecting a bad chunk is the server's job.
    """
    cols = TraceColumns.from_records(records)
    widths = tuple(cols.get(name).dtype.itemsize for name in _CHUNK_STRINGS)
    layout, _ = _chunk_layout(widths)
    return _CHUNK_HEAD.pack(cols.n, *widths) + b"".join(
        cols.get(name).astype(dtype, copy=False).tobytes()
        for name, dtype in layout)


def decode_chunk(data: bytes, meta: TraceMeta) -> Trace:
    """Decode one CHUNK payload into a columnar trace of the session's
    ``meta``; builds no record and copies no column (each is a
    read-only view into ``data``).

    Raises:
        ChunkRejected: the payload is not a whole chunk (a header that
            does not match its size, a string itemsize that is not whole
            characters), holds no records, or its steps do not strictly
            increase.
    """
    if len(data) < _CHUNK_HEAD.size:
        raise ChunkRejected(
            f"undecodable chunk payload: {len(data)} byte(s), shorter "
            f"than the {_CHUNK_HEAD.size}-byte chunk header")
    n, *widths = _CHUNK_HEAD.unpack_from(data)
    if not n:
        raise ChunkRejected("chunk carries no records")
    if max(widths) > len(data):
        raise ChunkRejected(
            f"undecodable chunk payload: a string itemsize of "
            f"{max(widths)} bytes, in a payload of {len(data)}")
    layout, row_bytes = _chunk_layout(tuple(widths))
    if len(data) != _CHUNK_HEAD.size + n * row_bytes:
        raise ChunkRejected(
            f"undecodable chunk payload: header claims {n} record(s) "
            f"({_CHUNK_HEAD.size + n * row_bytes} bytes), payload holds "
            f"{len(data)}")
    arrays = {}
    offset = _CHUNK_HEAD.size
    for name, dtype in layout:
        arrays[name] = np.frombuffer(data, dtype, n, offset)
        offset += n * dtype.itemsize
    steps = arrays["step"]
    stalls = np.flatnonzero(steps[1:] <= steps[:-1])
    if stalls.size:
        i = stalls[0]
        raise ChunkRejected(
            f"chunk steps must strictly increase (got step "
            f"{steps[i + 1]} after step {steps[i]})")
    return Trace.of_columns(meta, TraceColumns(arrays))


def records_from_chunk(data: bytes) -> list[TraceRecord]:
    """Decode one CHUNK payload back into its records.

    Raises:
        ChunkRejected: as :func:`decode_chunk`.
    """
    return list(decode_chunk(data, TraceMeta()).records)


def verdict_of(report: CheckReport, *, n_records: int,
               attack_onset: float | None) -> dict:
    """The VERDICT frame's JSON-ready header for a trace of
    ``n_records`` records checked as ``report``: the report, top
    diagnosed cause, attack onset and detection latency."""
    diagnosis = diagnose(report) if report.any_fired else None
    latency = (report.detection_latency(attack_onset)
               if attack_onset is not None else None)
    return {
        "n_records": n_records,
        "report": report.to_dict(),
        "any_fired": report.any_fired,
        "top_cause": (diagnosis.top().cause if diagnosis is not None
                      and diagnosis.ranking else None),
        "attack_onset": attack_onset,
        "detection_latency": latency,
    }


def score_trace_bytes(data: bytes) -> dict:
    """The offline reference verdict of one complete binary trace.

    Plain offline :func:`~repro.core.checker.check_trace` over the
    decoded records, through the same :func:`verdict_of` the server
    uses: the service's verdicts are held dict-equal to this.
    """
    trace = trace_from_bytes(data)
    return verdict_of(check_trace(trace), n_records=len(trace),
                      attack_onset=trace.attack_onset())


class MonitorPool:
    """A free-list of reusable :class:`OnlineMonitor` instances.

    Building the 24-assertion catalog per session is measurable overhead
    at fleet scale; :meth:`OnlineMonitor.reset` makes the instances
    reusable, so the pool hands back recycled monitors and only
    constructs a new catalog when the free list is empty.
    """

    def __init__(self, max_idle: int = 64):
        self.max_idle = max_idle
        self._idle: list[OnlineMonitor] = []
        self.created = 0
        self.reused = 0

    def acquire(self) -> OnlineMonitor:
        if self._idle:
            monitor = self._idle.pop()
            monitor.reset()
            self.reused += 1
            return monitor
        self.created += 1
        return OnlineMonitor(default_catalog())

    def release(self, monitor: OnlineMonitor | None) -> None:
        if monitor is not None and len(self._idle) < self.max_idle:
            self._idle.append(monitor)


class SessionState:
    """Everything the server tracks for one streaming session."""

    def __init__(self, session_id: str, meta: TraceMeta,
                 monitor: OnlineMonitor | None = None):
        self.session_id = session_id
        self.meta = meta
        self.monitor = monitor
        self.blocks: list[Trace] = []
        """The record log: each applied chunk, decoded (columnar)."""
        self.n_records = 0
        self.attack_onset: float | None = None
        """Time of the log's first attack-labelled record, if any."""
        self._last_step: int | None = None
        self.next_seq = 0
        self.finished = False
        self.verdict: bytes | None = None
        """The verdict as the VERDICT frame's header bytes, set at
        FINISH; the checkpoint log stores these same bytes."""
        self.live_violations: list[Violation] = []
        self.pending: list[tuple[int, bytes]] = []
        """Chunks accepted but not yet checkpointed, as ``(seq,
        payload)``; the server's checkpoint persists and clears them."""

    @property
    def records(self) -> list[TraceRecord]:
        """The record log as records, materialised on demand (the
        server itself never reads them)."""
        return [record for block in self.blocks for record in block.records]

    # -- ingest ---------------------------------------------------------
    def apply_chunk(self, seq: int, payload: bytes) -> list[Violation] | None:
        """Apply one chunk; the exactly-once gate.

        Returns the violations that closed during this chunk, or ``None``
        for a duplicate (already applied — acknowledge again, feed
        nothing).  Raises :class:`ChunkRejected` on a sequence gap, a
        post-finish chunk, an undecodable payload, or records whose steps
        do not strictly increase within the chunk and past the log's last.
        """
        if self.finished:
            raise ChunkRejected(
                f"session {self.session_id} already finished; its verdict "
                "is immutable")
        if seq < self.next_seq:
            return None  # duplicate delivery: idempotent, do not re-feed
        if seq > self.next_seq:
            raise ChunkRejected(
                f"chunk seq {seq} arrived but {self.next_seq} is next; "
                "resume to learn the server's cursor")
        chunk = decode_chunk(payload, self.meta)
        first = int(chunk.columns().get("step")[0])
        if self._last_step is not None and first <= self._last_step:
            raise ChunkRejected(
                f"chunk step {first} does not extend the log "
                f"(last step {self._last_step})")
        closed = ([] if self.monitor is None
                  else self.monitor.feed_columns(chunk.columns()))
        self._append(chunk)
        self.next_seq = seq + 1
        self.pending.append((seq, payload))
        self.live_violations.extend(closed)
        return closed

    def _append(self, block: Trace) -> None:
        cols = block.columns()
        self.blocks.append(block)
        self.n_records += cols.n
        self._last_step = int(cols.get("step")[-1])
        if self.attack_onset is None:
            hits = np.flatnonzero(cols.get("attack_active"))
            if hits.size:
                self.attack_onset = float(cols.get("t")[hits[0]])

    def restore(self, blocks: Sequence[Trace], next_seq: int) -> None:
        """Restore state from a checkpoint's decoded chunk records:
        refeed the monitor silently, one block per chunk."""
        self.blocks = []
        self.n_records = 0
        self.attack_onset = None
        self._last_step = None
        self.next_seq = next_seq
        if self.monitor is not None:
            self.monitor.reset()
        for block in blocks:
            if len(block):
                if self.monitor is not None:
                    self.monitor.feed_columns(block.columns())
                self._append(block)

    def replay(self, records: Sequence[TraceRecord], next_seq: int) -> None:
        """:meth:`restore` from the log's records."""
        self.restore([Trace(self.meta, records)], next_seq)

    # -- completion ------------------------------------------------------
    def assemble_bytes(self) -> bytes:
        """The full trace received so far, as a binary payload (its
        blocks' columns concatenated)."""
        if not self.blocks:
            return trace_to_npz_bytes(Trace(self.meta))
        columns = [block.columns() for block in self.blocks]
        return columns_to_npz_bytes(self.meta, TraceColumns({
            name: np.concatenate([cols.get(name) for cols in columns])
            for name in Trace.field_names}))

    def __repr__(self) -> str:
        return (f"SessionState({self.session_id!r}, n={self.n_records}, "
                f"next_seq={self.next_seq}, finished={self.finished})")
