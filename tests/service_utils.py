"""Shared helpers for the service test files (server/chaos/smoke)."""

from __future__ import annotations

import contextlib
import dataclasses

from repro.core.checker import check_trace
from repro.service.server import ServerConfig, TraceIngestServer
from repro.service.session import score_trace_bytes
from repro.trace.io import trace_to_npz_bytes

from conftest import make_trace


@contextlib.asynccontextmanager
async def serving(store_dir, **config_kwargs):
    """A started :class:`TraceIngestServer` on an ephemeral port."""
    server = TraceIngestServer(ServerConfig(
        store_dir=str(store_dir), **config_kwargs))
    await server.start()
    try:
        yield server
    finally:
        await server.stop()


def attacked_trace(num_steps: int = 200,
                   window: tuple[int, int] = (80, 140),
                   drift_rate: float = 0.3):
    """Synthetic cruise with a bounded GPS-drift window.

    The window closes (sensors return to nominal), so the incremental
    monitor emits violation episodes mid-stream; the trace still ends
    with fired assertions for the offline verdict to report.
    """
    def mutate(step, record):
        if window[0] <= step < window[1]:
            k = step - window[0]
            drift = drift_rate * k
            return dataclasses.replace(
                record, gps_x=record.gps_x + drift,
                est_x=record.est_x + 0.8 * drift,
                cte_est=0.8 * drift, nis_gps=8.0 + k,
                attack_active=True, attack_name="gps_drift",
                attack_channel="gps")
        return record
    return make_trace(num_steps, mutate=mutate)


def offline_verdict(trace) -> dict:
    """The oracle every service verdict must byte-match."""
    return check_trace(trace).to_dict()


def reference_verdict(trace) -> dict:
    """The whole offline verdict (report, cause, onset, latency) every
    service verdict must dict-match."""
    return score_trace_bytes(trace_to_npz_bytes(trace))
