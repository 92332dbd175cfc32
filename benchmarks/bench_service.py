"""Bench — streaming service load generator: sessions/sec, p99 verdict.

As a pytest-benchmark (``pytest benchmarks/bench_service.py
--benchmark-only``) this times a small concurrent fleet against an
in-process server and asserts the robustness invariants held under load.

As a script it produces the committed artifact::

    PYTHONPATH=src python benchmarks/bench_service.py --sessions 32

writing ``BENCH_service.json`` with sessions/sec, verdict-latency
percentiles, and the simulation-engine provenance (``sim_engine`` /
``executor``) of the traces that were streamed.
"""

import asyncio

from repro.service.loadgen import run_load


def test_service_load_small(benchmark, tmp_path):
    """8 concurrent sessions through the full server stack."""
    metrics = benchmark.pedantic(
        lambda: asyncio.run(run_load(
            8, shards=1, duration=10.0, chunk_records=64,
            store_dir=str(tmp_path / "store"))),
        rounds=1, iterations=1)
    print()
    print(f"sessions/s: {metrics['sessions_per_s']}  "
          f"verdict p99: {metrics['verdict_latency_s']['p99']}s  "
          f"engine: {metrics['trace_provenance']['sim_engine']}")
    assert metrics["sessions"] == 8
    # every session produced a verdict (the fleet view counted them all)
    assert metrics["verdict_latency_s"]["n"] == 8
    # provenance must travel with the numbers (satellite: BENCH_service
    # records the engine that generated its inputs)
    assert metrics["trace_provenance"]["sim_engine"] in ("serial", "batch")
    assert metrics["trace_provenance"]["executor"]


def _main(argv=None) -> int:
    """Write ``BENCH_service.json`` (the committed artifact)."""
    import argparse
    import json
    import platform
    import os
    import tempfile
    from pathlib import Path

    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_service.py",
        description=_main.__doc__)
    parser.add_argument("--sessions", type=int, default=32)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--chunk-records", type=int, default=64)
    parser.add_argument("--duration", type=float, default=20.0)
    parser.add_argument("--sim-engine", default=None,
                        choices=("serial", "batch"))
    parser.add_argument("--output", default="BENCH_service.json")
    args = parser.parse_args(argv)

    old_cache = os.environ.get("ADASSURE_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="adassure-bench-svc-") as tmp:
        os.environ["ADASSURE_CACHE_DIR"] = str(Path(tmp) / "cache")
        try:
            metrics = asyncio.run(run_load(
                args.sessions, shards=args.shards,
                chunk_records=args.chunk_records, duration=args.duration,
                sim_engine=args.sim_engine,
                store_dir=str(Path(tmp) / "store")))
        finally:
            if old_cache is None:
                os.environ.pop("ADASSURE_CACHE_DIR", None)
            else:
                os.environ["ADASSURE_CACHE_DIR"] = old_cache

    payload = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "sessions": args.sessions,
            "shards": args.shards,
            "chunk_records": args.chunk_records,
            "trace_duration_s": args.duration,
        },
        "service": metrics,
    }
    out = Path(args.output)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"{metrics['sessions']} sessions in {metrics['wall_s']}s "
          f"({metrics['sessions_per_s']}/s), verdict p99 "
          f"{metrics['verdict_latency_s']['p99']}s, engine "
          f"{metrics['trace_provenance']['sim_engine']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
