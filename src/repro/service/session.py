"""Per-session state: one vehicle's incremental monitor and record log.

A session is one trace streamed by one client.  The server keeps, per
session:

* the **record log** — every record received so far, in order (the
  trace the verdict describes, and what a resumed session replays into
  a fresh monitor);
* the **pending chunks** — the ``(seq, payload)`` pairs accepted since
  the last checkpoint, exactly as received: a checkpoint appends these
  to the store, so it costs O(chunk), never a re-encode of the log;
* an **incremental monitor** — a pooled
  :class:`~repro.core.monitor.OnlineMonitor` fed as chunks arrive, so
  violation episodes are pushed to the client *live*, long before the
  stream ends;
* the **chunk cursor** (``next_seq``) — the exactly-once bookkeeping.
  Chunks carry consecutive sequence numbers; a duplicate (``seq <
  next_seq``, e.g. a client retrying after a lost ACK) is acknowledged
  but **not re-applied**, and a gap (``seq > next_seq``) is rejected so
  the client can fall back to resume.  Between those two rules a record
  can never be fed to the monitor twice or skipped.

The final verdict *is* the incremental monitor's report: at FINISH the
server closes the session's monitor over the record log
(:class:`~repro.service.shards.ShardPool`) and :func:`verdict_of` adds
diagnosis, attack onset and detection latency.  The online monitor and
the vectorized offline checker produce identical reports
(``tests/test_checker_equivalence.py``), so the verdict is dict-equal to
:func:`score_trace_bytes` — the offline reference over the same records
— without re-encoding the trace or checking it a second time.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.catalog import default_catalog
from repro.core.checker import check_trace
from repro.core.diagnosis import diagnose
from repro.core.monitor import OnlineMonitor
from repro.core.verdicts import CheckReport, Violation
from repro.trace.io import TraceIOError, trace_from_bytes, trace_to_npz_bytes
from repro.trace.schema import Trace, TraceMeta, TraceRecord

__all__ = [
    "ChunkRejected",
    "MonitorPool",
    "SessionState",
    "chunk_to_bytes",
    "records_from_chunk",
    "score_trace_bytes",
    "verdict_of",
]


class ChunkRejected(ValueError):
    """A chunk cannot be applied to this session (gap, overlap, garbage)."""


def chunk_to_bytes(meta: TraceMeta, records: Sequence[TraceRecord]) -> bytes:
    """Serialize a slice of records as one binary chunk payload.

    The payload *is* a complete binary trace (the ``.npz`` format of
    :mod:`repro.trace.io`, version 2), so the server decodes it with the
    same magic-sniffing, version-checked reader the run cache uses — torn
    or corrupt chunks fail its checksum and schema checks instead of
    smuggling garbage records into a monitor.
    """
    return trace_to_npz_bytes(Trace(meta, records))


def records_from_chunk(data: bytes) -> tuple[TraceMeta, list[TraceRecord]]:
    """Decode one chunk payload back into its metadata and records.

    Raises:
        TraceIOError: the payload does not decode.
        ChunkRejected: its steps do not strictly increase (checked on the
            decoded step column, before any record is materialised).
    """
    trace = trace_from_bytes(data)
    steps = trace.columns().get("step")
    stalls = np.flatnonzero(steps[1:] <= steps[:-1])
    if stalls.size:
        i = stalls[0]
        raise ChunkRejected(
            f"chunk steps must strictly increase: step {steps[i + 1]} "
            f"follows step {steps[i]}")
    return trace.meta, list(trace.records)


def verdict_of(trace: Trace, report: CheckReport) -> dict:
    """The verdict of ``trace`` checked as ``report``: the VERDICT
    frame's JSON-ready header (report, top diagnosed cause, attack onset
    and detection latency)."""
    diagnosis = diagnose(report) if report.any_fired else None
    onset = trace.attack_onset()
    latency = (report.detection_latency(onset) if onset is not None
               else None)
    return {
        "n_records": len(trace),
        "report": report.to_dict(),
        "any_fired": report.any_fired,
        "top_cause": (diagnosis.top().cause if diagnosis is not None
                      and diagnosis.ranking else None),
        "attack_onset": onset,
        "detection_latency": latency,
    }


def score_trace_bytes(data: bytes) -> dict:
    """The offline reference verdict of one complete binary trace.

    Plain offline :func:`~repro.core.checker.check_trace` over the
    decoded records, through the same :func:`verdict_of` the server
    uses: the service's verdicts are held dict-equal to this.
    """
    trace = trace_from_bytes(data)
    return verdict_of(trace, check_trace(trace))


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
        self.records: list[TraceRecord] = []
        self.next_seq = 0
        self.finished = False
        self.verdict: dict | None = None
        self.live_violations: list[Violation] = []
        self.pending: list[tuple[int, bytes]] = []
        """Chunks accepted but not yet checkpointed, as ``(seq,
        payload)``; the server's checkpoint persists and clears them."""

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
        try:
            _, records = records_from_chunk(payload)
        except TraceIOError as exc:
            raise ChunkRejected(f"undecodable chunk payload: {exc}") from exc
        if not records:
            raise ChunkRejected("chunk carries no records")
        if self.records and records[0].step <= self.records[-1].step:
            raise ChunkRejected(
                f"chunk step {records[0].step} does not extend the log "
                f"(last step {self.records[-1].step})")
        closed: list[Violation] = []
        if self.monitor is not None:
            for record in records:
                closed.extend(self.monitor.feed(record))
        self.records.extend(records)
        self.next_seq = seq + 1
        self.pending.append((seq, payload))
        self.live_violations.extend(closed)
        return closed

    def replay(self, records: Sequence[TraceRecord], next_seq: int) -> None:
        """Restore state from a checkpoint: refeed the monitor silently."""
        self.records = list(records)
        self.next_seq = next_seq
        if self.monitor is not None:
            self.monitor.reset()
            for record in self.records:
                self.monitor.feed(record)

    # -- completion ------------------------------------------------------
    def assemble_bytes(self) -> bytes:
        """The full trace received so far, as a binary payload."""
        return chunk_to_bytes(self.meta, self.records)

    def assemble_trace(self) -> Trace:
        return Trace(self.meta, self.records)

    def __repr__(self) -> str:
        return (f"SessionState({self.session_id!r}, n={len(self.records)}, "
                f"next_seq={self.next_seq}, finished={self.finished})")
