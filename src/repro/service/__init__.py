"""Streaming trace-monitoring service: fleet-scale online assertion checking.

The paper's online monitor (:class:`repro.core.monitor.OnlineMonitor`)
runs in-process; this package runs it as a *service*.  Vehicles — real or
simulated — stream length-prefixed binary trace chunks over TCP into
per-session incremental monitors; the server applies bounded-queue
backpressure, checkpoints sessions so disconnected clients resume
mid-trace with exactly-once verdict semantics, finishes each session's
verdict from its live monitor (no second, offline check), and
aggregates fleet-level statistics: per-cause violation rates and
detection-latency percentiles.

Layers:

* :mod:`repro.service.protocol` — the versioned, CRC-guarded wire format;
* :mod:`repro.service.session`  — one vehicle's incremental monitor state;
* :mod:`repro.service.store`    — crash-safe session checkpoints (lease-
  guarded, reusing the campaign manifest machinery);
* :mod:`repro.service.shards`   — the verdict step: finish a session's
  monitor and diagnose;
* :mod:`repro.service.aggregates` — fleet-level rates and percentiles;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the asyncio
  endpoints behind ``adassure serve`` and ``adassure stream``;
* :mod:`repro.service.loadgen`  — fleet traces off the experiment grid,
  and a sessions/sec + p99-latency load driver.

The robustness contract (enforced by ``tests/test_service_chaos.py``):
for every injected failure — client disconnect mid-frame, torn or
duplicated frames, stalled clients hitting backpressure, failed
checkpoint saves — the server stays up and every completed session's
verdict is dict-equal to offline :func:`score_trace_bytes` (plain
:func:`repro.core.checker.check_trace`) on the same trace.
"""

from repro.service.aggregates import FleetAggregates
from repro.service.client import (
    StreamOutcome,
    TraceStreamClient,
    fetch_status,
    stream_trace,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Frame,
    FrameType,
    ProtocolError,
    encode_frame,
    read_frame,
)
from repro.service.server import ServerConfig, TraceIngestServer
from repro.service.session import SessionState, score_trace_bytes
from repro.service.shards import ShardPool
from repro.service.store import SessionStore

__all__ = [
    "FleetAggregates",
    "Frame",
    "FrameType",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServerConfig",
    "SessionState",
    "SessionStore",
    "ShardPool",
    "StreamOutcome",
    "TraceIngestServer",
    "TraceStreamClient",
    "encode_frame",
    "fetch_status",
    "read_frame",
    "score_trace_bytes",
    "stream_trace",
]
