"""Benchmark — batched lockstep engine vs the serial oracle.

``python -m repro.sim.batch`` simulates the same lane set twice (once
through per-lane :class:`~repro.sim.engine.SimulationRunner` instances,
once through :func:`~repro.sim.batch.run_batch`), verifies the traces are
bit-identical, and writes the measured speedup to ``BENCH_sim.json``:
each engine's best of three passes, with the host's core count and git
sha.
The quick CI tripwire lives in ``benchmarks/bench_sim_batch.py``; this
module produces the full-size numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import time
from pathlib import Path

import numpy as np

from repro.attacks.campaign import standard_attack
from repro.control.acc import AccController
from repro.control.base import make_lateral_controller
from repro.control.follower import SpeedProfile, WaypointFollower
from repro.experiments.stats import _host_info
from repro.sim.batch import LaneSpec, run_batch
from repro.sim.batch.controllers import _SHARED_DARE_GAINS
from repro.sim.batch.engine import _PREFIX_MEMO
from repro.sim.engine import SimulationRunner
from repro.sim.scenario import standard_scenarios
from repro.trace.schema import Trace

_REPEATS = 3
"""Timed passes per engine; the fastest is recorded (the host's CPUs
switch between a fast and a slow state, so one pass is not a figure)."""

_CONTROLLERS = ("pure_pursuit", "stanley", "lqr")
_ATTACKS = ("none", "gps_bias", "gps_drift", "steer_offset")


def _lane_specs(lanes: int, scenario_name: str,
                duration: float | None) -> list[LaneSpec]:
    """A representative vectorizable lane mix: controllers x attacks x seeds."""
    specs = []
    for i in range(lanes):
        scenario = standard_scenarios(
            seed=i % 8, duration=duration)[scenario_name]
        attack = _ATTACKS[i % len(_ATTACKS)]
        campaign = standard_attack(attack) if attack != "none" else None
        follower = WaypointFollower(
            make_lateral_controller(_CONTROLLERS[i % len(_CONTROLLERS)]),
            profile=SpeedProfile(cruise_speed=scenario.cruise_speed),
            acc=AccController() if scenario.lead is not None else None,
        )
        specs.append(LaneSpec(scenario=scenario, follower=follower,
                              campaign=campaign))
    return specs


def _assert_identical(serial: Trace, batch: Trace) -> None:
    for name in Trace.field_names:
        a = serial.columns().get(name)
        b = batch.columns().get(name)
        if a.dtype.kind == "f":
            ok = np.array_equal(a, b, equal_nan=True)
        else:
            ok = np.array_equal(a, b)
        if not ok:
            raise AssertionError(
                f"batch/serial divergence in column {name!r} — the "
                "speedup below would be meaningless")


def _timed(run, lanes) -> tuple[list[float], list]:
    """``run(lanes())`` :data:`_REPEATS` times, each on fresh lane specs
    (built untimed) and a collected heap: the wall time of each pass,
    and the last pass's results."""
    times, results = [], None
    for _ in range(_REPEATS):
        specs = lanes()
        results = None
        gc.collect()
        t0 = time.perf_counter()
        results = run(specs)
        times.append(time.perf_counter() - t0)
    return times, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.batch",
        description=__doc__,
    )
    parser.add_argument("--lanes", type=int, default=64,
                        help="grid points to simulate (default 64)")
    parser.add_argument("--scenario", default="s_curve")
    parser.add_argument("--duration", type=float, default=None,
                        help="override the scenario duration, seconds")
    parser.add_argument("--output", default="BENCH_sim.json")
    args = parser.parse_args(argv)

    specs = _lane_specs(args.lanes, args.scenario, args.duration)
    n_steps = len(np.arange(0.0, specs[0].scenario.duration,
                            specs[0].scenario.dt))

    # Batch first: the serial pass materializes tens of thousands of
    # per-record objects, and timing the batch engine on top of that heap
    # would charge it the garbage collector's rent.
    def lanes() -> list[LaneSpec]:
        return _lane_specs(args.lanes, args.scenario, args.duration)

    def cold_batch(specs: list[LaneSpec]) -> list:
        # Each pass starts cold, like the first: no prefix snapshot or
        # DARE gain carried over from the pass before.
        _PREFIX_MEMO.clear()
        _SHARED_DARE_GAINS.clear()
        return run_batch(specs)

    print(f"batch : run_batch({args.lanes} lanes), best of {_REPEATS} ...")
    batch_runs, batch_results = _timed(cold_batch, lanes)
    print("  " + "  ".join(f"{s:.2f}s" for s in batch_runs))

    print(f"serial: {args.lanes} x SimulationRunner, best of {_REPEATS} ...")
    serial_runs, serial_results = _timed(lambda specs: [
        SimulationRunner(s.scenario, s.follower, s.campaign,
                         s.ekf_config, faults=s.faults).run()
        for s in specs], lanes)
    print("  " + "  ".join(f"{s:.2f}s" for s in serial_runs))

    for s, b in zip(serial_results, batch_results):
        _assert_identical(s.trace, b.trace)
    print("bit-identical: every trace column equal")

    serial_s, batch_s = min(serial_runs), min(batch_runs)
    speedup = serial_s / batch_s
    payload = {
        "host": _host_info(),
        "config": {
            "repeats": _REPEATS,
            "lanes": args.lanes,
            "scenario": args.scenario,
            "duration_s": specs[0].scenario.duration,
            "dt": specs[0].scenario.dt,
            "steps_per_lane": n_steps,
            "controllers": list(_CONTROLLERS),
            "attacks": list(_ATTACKS),
        },
        "timings_s": {
            "serial": round(serial_s, 4),
            "batch": round(batch_s, 4),
            "serial_per_lane_ms": round(1e3 * serial_s / args.lanes, 2),
            "batch_per_lane_ms": round(1e3 * batch_s / args.lanes, 2),
            "serial_runs": [round(x, 4) for x in serial_runs],
            "batch_runs": [round(x, 4) for x in batch_runs],
        },
        "speedup_batch_vs_serial": round(speedup, 2),
        "bit_identical": True,
    }
    out = Path(args.output)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"speedup: {speedup:.1f}x  ->  wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
