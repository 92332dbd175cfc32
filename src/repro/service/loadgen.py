"""Load generator: drive a fleet of concurrent sessions at the server.

Traces come from the real experiment pipeline (:func:`run_grid` over a
small attack grid), not synthetic noise, so the server ingests the same
violation-dense data the paper's experiments produce — and so the
simulation provenance (``sim_engine``) lands in the
``--stats`` output: a load number without the engine that produced its
inputs is not reproducible.  The repo's benchmark (``perfbench``, the
``serve`` workload) streams :func:`generate_fleet_traces` at an
``adassure serve`` child.

Run standalone::

    python -m repro.service.loadgen --sessions 32 --stats
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time

from repro.experiments.runner import run_grid
from repro.experiments.stats import STATS
from repro.service.aggregates import percentile
from repro.service.client import TraceStreamClient, fetch_status
from repro.service.server import ServerConfig, TraceIngestServer
from repro.trace.schema import Trace

__all__ = ["generate_fleet_traces", "run_load"]

_LOADGEN_ATTACKS = ("none", "gps_bias", "gps_drift", "steer_offset")


def generate_fleet_traces(n_traces: int, *, duration: float = 20.0,
                          sim_engine: str | None = None) -> \
        tuple[list[Trace], dict]:
    """``n_traces`` distinct traces off the experiment grid.

    Returns ``(traces, provenance)`` where provenance records the
    engine the grid actually used (satellite: the bench output must
    say what produced its inputs).  Seeds vary fastest so any ``n`` gives
    a mix of clean and attacked runs.
    """
    n_seeds = max(-(-n_traces // len(_LOADGEN_ATTACKS)), 1)
    runs = run_grid(
        scenarios=("urban_loop",),
        controllers=("pure_pursuit",),
        attacks=_LOADGEN_ATTACKS,
        seeds=tuple(range(1, n_seeds + 1)),
        onset=8.0,
        duration=duration,
        sim_engine=sim_engine,
    )
    grid_stats = STATS.last
    provenance = {
        "sim_engine": grid_stats.sim_engine if grid_stats else "unknown",
        "grid_points": len(runs),
        "cache_hit_rate": (round(grid_stats.cache_hit_rate, 4)
                           if grid_stats else None),
    }
    traces = [run.result.trace for run in runs[:n_traces]]
    return traces, provenance


async def _drive_session(host: str, port: int, index: int, trace: Trace,
                         chunk_records: int) -> dict:
    client = TraceStreamClient(host, port, chunk_records=chunk_records)
    t0 = time.perf_counter()
    outcome = await client.run(trace, session_id=f"loadgen-{index:04d}")
    wall = time.perf_counter() - t0
    return {
        "session_id": outcome.session_id,
        "wall_s": wall,
        "n_records": len(trace),
        "chunks": outcome.chunks_applied,
        "busy_retries": outcome.busy_retries,
        "any_fired": bool(outcome.verdict and outcome.verdict["any_fired"]),
    }


async def run_load(n_sessions: int = 32, *, chunk_records: int = 64,
                   duration: float = 20.0,
                   sim_engine: str | None = None,
                   store_dir: str | None = None,
                   host: str | None = None,
                   port: int | None = None) -> dict:
    """Stream ``n_sessions`` concurrent sessions; returns the metrics dict.

    With no ``host``/``port``, an in-process server is started on an
    ephemeral port (one process, loopback TCP).  Point it at a live
    server to load-test across machines.
    """
    traces, provenance = generate_fleet_traces(
        n_sessions, duration=duration, sim_engine=sim_engine)
    # Recycle traces if the grid came up short; distinct session ids keep
    # the server treating them as distinct vehicles.
    sessions = [traces[i % len(traces)] for i in range(n_sessions)]

    server: TraceIngestServer | None = None
    if host is None or port is None:
        server = TraceIngestServer(ServerConfig(store_dir=store_dir))
        await server.start()
        host, port = server.config.host, server.port
    try:
        t0 = time.perf_counter()
        results = await asyncio.gather(*[
            _drive_session(host, port, i, trace, chunk_records)
            for i, trace in enumerate(sessions)])
        wall = time.perf_counter() - t0
        status = await fetch_status(host, port)
    finally:
        if server is not None:
            await server.stop()

    walls = [r["wall_s"] for r in results]
    fleet = status["fleet"]
    return {
        "sessions": n_sessions,
        "records_streamed": sum(r["n_records"] for r in results),
        "wall_s": round(wall, 4),
        "sessions_per_s": round(n_sessions / wall, 2),
        "session_wall_s": {
            "p50": round(percentile(walls, 50.0), 4),
            "p99": round(percentile(walls, 99.0), 4),
        },
        "verdict_latency_s": {
            k: (round(v, 5) if isinstance(v, float) else v)
            for k, v in fleet["verdict_latency_s"].items()
        },
        "violation_rate": fleet["violation_rate"],
        "busy_retries": sum(r["busy_retries"] for r in results),
        "trace_provenance": provenance,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description="Stream a synthetic fleet at the trace-ingest server.")
    parser.add_argument("--sessions", type=int, default=32)
    parser.add_argument("--chunk-records", type=int, default=64)
    parser.add_argument("--duration", type=float, default=20.0,
                        help="simulated seconds per trace (default 20)")
    parser.add_argument("--sim-engine", default=None,
                        choices=("serial", "batch"),
                        help="engine for trace generation (default: env)")
    parser.add_argument("--host", default=None,
                        help="target a running server instead of an "
                             "in-process one")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument("--stats", action="store_true",
                        help="print the full metrics JSON (includes "
                             "sim_engine provenance)")
    args = parser.parse_args(argv)

    metrics = asyncio.run(run_load(
        args.sessions, chunk_records=args.chunk_records,
        duration=args.duration,
        sim_engine=args.sim_engine, host=args.host, port=args.port))
    if args.stats:
        print(json.dumps(metrics, indent=2))
    else:
        print(f"{metrics['sessions']} sessions in {metrics['wall_s']}s "
              f"({metrics['sessions_per_s']}/s), verdict p99 "
              f"{metrics['verdict_latency_s']['p99']}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
