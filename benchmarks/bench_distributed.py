"""Bench — distributed campaign backend vs. single-host serial.

As a pytest-benchmark (``pytest benchmarks/bench_distributed.py
--benchmark-only``) this times one small campaign through the
lease-claimed worker fleet and asserts the backend's invariants held
(convergence, exactly-once cache entries).

As a script it produces the committed artifact::

    PYTHONPATH=src python benchmarks/bench_distributed.py --workers 2

writing ``BENCH_distributed.json`` with cold serial vs. cold distributed
wall times, the shard/lease/heartbeat counters, and a chaos pass (one
worker SIGKILLed mid-shard) proving the campaign still converges to the
same verdict count.
"""

import os
import tempfile

GRID = dict(scenarios=("s_curve",), controllers=("pure_pursuit",),
            attacks=("none", "gps_bias", "odom_scale"), seeds=(1, 7),
            onset=5.0, duration=8.0)
N_POINTS = 6


def _run(executor, workers=2, **overrides):
    from repro.experiments.cache import RunCache
    from repro.experiments.runner import clear_cache, run_grid
    from repro.experiments.stats import STATS

    clear_cache()
    STATS.reset()
    if executor == "distributed":
        runs = run_grid(executor="distributed", dist_workers=workers,
                        **GRID, **overrides)
    else:
        runs = run_grid(executor="serial", **GRID, **overrides)
    return runs, STATS.last, RunCache().stats()["entries"]


def test_distributed_small(benchmark, tmp_path, monkeypatch):
    """One small campaign through a two-worker fleet."""
    monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("ADASSURE_CACHE", raising=False)

    runs, stats, entries = benchmark.pedantic(
        lambda: _run("distributed", workers=2, shard_points=2),
        rounds=1, iterations=1)
    print()
    print(f"points: {len(runs)}  adopted: {stats.dist_points}  "
          f"fallback-executed: {stats.executed}  "
          f"shards: {stats.shards_claimed}/{stats.shards_total}")
    assert len(runs) == N_POINTS          # converged
    assert entries == N_POINTS            # exactly once
    assert stats.executor == "distributed"
    assert stats.dist_points + stats.executed == N_POINTS


def _main(argv=None) -> int:
    """Write ``BENCH_distributed.json`` (the committed artifact)."""
    import argparse
    import json
    import platform
    import time
    from pathlib import Path

    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_distributed.py",
        description=_main.__doc__)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--shard-points", type=int, default=2)
    parser.add_argument("--output", default="BENCH_distributed.json")
    args = parser.parse_args(argv)

    timings: dict = {}
    counters: dict = {}
    old_cache = os.environ.get("ADASSURE_CACHE_DIR")
    old_chaos = os.environ.pop("ADASSURE_CHAOS_KILL_AFTER", None)
    try:
        def measure(label, executor, chaos=None, **overrides):
            with tempfile.TemporaryDirectory(
                    prefix="adassure-bench-dist-") as tmp:
                os.environ["ADASSURE_CACHE_DIR"] = tmp
                if chaos is not None:
                    os.environ["ADASSURE_CHAOS_KILL_AFTER"] = str(chaos)
                try:
                    t0 = time.perf_counter()
                    runs, stats, entries = _run(
                        executor, workers=args.workers, **overrides)
                    timings[label] = round(time.perf_counter() - t0, 4)
                finally:
                    os.environ.pop("ADASSURE_CHAOS_KILL_AFTER", None)
            assert len(runs) == N_POINTS, f"{label}: campaign lost points"
            assert entries == N_POINTS, f"{label}: not exactly-once"
            counters[label] = {
                "executed_locally": stats.executed,
                "adopted_from_workers": stats.dist_points,
                "shards_total": stats.shards_total,
                "shards_claimed": stats.shards_claimed,
                "shards_reclaimed": stats.shards_reclaimed,
                "heartbeats": stats.heartbeats,
            }
            print(f"{label:<22} {timings[label]:8.2f}s  "
                  f"(adopted {stats.dist_points}, "
                  f"fallback {stats.executed})")

        measure("cold_serial", "serial")
        measure("cold_distributed", "distributed",
                shard_points=args.shard_points)
        # Chaos pass: every worker SIGKILLs itself after 2 commits; the
        # campaign must still converge (serial fallback) exactly-once.
        measure("chaos_killed_workers", "distributed", chaos=2,
                shard_points=args.shard_points)
    finally:
        if old_cache is None:
            os.environ.pop("ADASSURE_CACHE_DIR", None)
        else:
            os.environ["ADASSURE_CACHE_DIR"] = old_cache
        if old_chaos is not None:
            os.environ["ADASSURE_CHAOS_KILL_AFTER"] = old_chaos

    payload = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "grid_points": N_POINTS,
            "dist_workers": args.workers,
            "shard_points": args.shard_points,
        },
        "timings_s": timings,
        "counters": counters,
        "speedups": {
            "distributed_vs_serial_cold": round(
                timings["cold_serial"] / timings["cold_distributed"], 2),
        },
        "note": (
            "worker subprocesses pay interpreter+import startup per "
            "process; the distributed backend wins only when the grid is "
            "large enough to amortize it (or spans hosts). The chaos row "
            "measures convergence cost with the whole fleet SIGKILLed "
            "mid-shard."
        ),
    }
    out = Path(args.output)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
