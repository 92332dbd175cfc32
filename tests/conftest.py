"""Shared fixtures and trace-building helpers for the test suite."""

from __future__ import annotations

import dataclasses
import io
import json
import os

import numpy as np
import pytest

from repro.attacks.campaign import standard_attack
from repro.sim.engine import RunResult, run_scenario
from repro.sim.scenario import Scenario, standard_scenarios
from repro.trace.schema import Trace, TraceMeta, TraceRecord

DT = 0.05


@pytest.fixture(scope="session", autouse=True)
def _isolated_run_cache(tmp_path_factory):
    """Run the whole suite against a throwaway persistent-cache dir.

    Tests must neither depend on nor pollute the user's
    ``~/.cache/adassure``; results also stay reproducible when a stale
    cache from an older code revision exists on the machine.
    """
    old = os.environ.get("ADASSURE_CACHE_DIR")
    os.environ["ADASSURE_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("adassure-cache"))
    yield
    if old is None:
        os.environ.pop("ADASSURE_CACHE_DIR", None)
    else:
        os.environ["ADASSURE_CACHE_DIR"] = old


def make_record(step: int = 0, t: float | None = None, **kwargs) -> TraceRecord:
    """A TraceRecord with sensible defaults for synthetic tests.

    By default the record describes a healthy vehicle cruising at 8 m/s
    along +x with fresh, mutually consistent sensor channels.
    """
    if t is None:
        t = step * DT
    x = 8.0 * t
    defaults = dict(
        true_x=x, true_y=0.0, true_yaw=0.0, true_v=8.0,
        true_yaw_rate=0.0, true_accel=0.0, true_lat_accel=0.0,
        cte_true=0.0, heading_err_true=0.0, station_true=x,
        dist_to_goal=max(100.0 - x, 0.0),
        gps_x=x, gps_y=0.0, gps_fresh=True,
        imu_yaw_rate=0.0, imu_accel=0.0, imu_fresh=True,
        odom_speed=8.0, odom_fresh=True,
        compass_yaw=0.0, compass_fresh=True,
        est_x=x, est_y=0.0, est_yaw=0.0, est_v=8.0,
        est_cov_trace=0.5, nis_gps=2.0, nis_speed=1.0, nis_compass=1.0,
        cte_est=0.0, heading_err_est=0.0, station_est=x,
        target_speed=8.0, steer_cmd=0.0, accel_cmd=0.0,
        steer_applied=0.0, accel_applied=0.0,
        attack_active=False, attack_name="", attack_channel="",
    )
    defaults.update(kwargs)
    return TraceRecord(step=step, t=t, **defaults)


def make_trace(num_steps: int = 100, meta: TraceMeta | None = None,
               mutate=None) -> Trace:
    """A synthetic healthy cruise trace; ``mutate(step, record) -> record``
    lets tests inject per-step deviations."""
    trace = Trace(meta or TraceMeta(scenario="synthetic", controller="test",
                                    dt=DT, route_length=400.0))
    for step in range(num_steps):
        record = make_record(step)
        if mutate is not None:
            record = mutate(step, record)
        trace.append(record)
    return trace


def v1_npz_bytes(trace: Trace) -> bytes:
    """A trace in binary format version 1, the layout before the single
    column block: one deflated npz member per channel plus a header."""
    header = {"format": "adassure-trace", "version": 1, "n": len(trace),
              "meta": trace.meta.to_dict()}
    cols = trace.columns()
    buf = io.BytesIO()
    np.savez_compressed(
        buf, header=np.asarray(json.dumps(header)),
        **{"col_" + name: cols.get(name) for name in Trace.field_names})
    return buf.getvalue()


def short_scenario(name: str = "s_curve", seed: int = 7,
                   duration: float = 30.0) -> Scenario:
    """A shortened standard scenario for fast closed-loop tests."""
    return dataclasses.replace(
        standard_scenarios(seed=seed)[name], duration=duration
    )


@pytest.fixture(scope="session")
def nominal_run() -> RunResult:
    """One nominal closed-loop run shared by many tests (s_curve, 45 s)."""
    scenario = dataclasses.replace(standard_scenarios(seed=7)["s_curve"],
                                   duration=45.0)
    return run_scenario(scenario, controller="pure_pursuit")


@pytest.fixture(scope="session")
def gps_bias_run() -> RunResult:
    """A GPS-bias attacked run shared by detection/diagnosis tests."""
    scenario = dataclasses.replace(standard_scenarios(seed=7)["s_curve"],
                                   duration=40.0)
    return run_scenario(scenario, controller="pure_pursuit",
                        campaign=standard_attack("gps_bias", onset=15.0))
