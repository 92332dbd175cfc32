"""Column kernels of the stateful assertions equal their scalar margin.

A4-A8, A15, A16, A18 and A19 carry state from record to record (fix
pairs, dead-reckoning anchors, windows, a reference actuator model, a
running minimum).  Each one's :meth:`margin_chunk` must return, for any
block of records, margins bit-identical to calling :meth:`margin` on
each record, and write back exactly the state those calls leave (the
same Python floats), so blocks and single records interleave freely.

The columns here are built to hit the edges of that contract: sparse
and absent GPS fixes, radar dropouts longer than 1 s, a compass that
crosses +/-pi, stretches of zero odometry, NaN odometry, GPS, range and
steering, and record times on a dyadic grid so that window edges land
exactly on a record.  Each case is split at every chunk boundary and
fed in interleaved chunks and single records.

It also pins what the kernels buy: a default-catalog monitor steps no
scalar margin and builds at most two rows per chunk, and the offline
checker builds no record.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.core.catalog import default_catalog, make_assertion
from repro.core.checker import check_trace
from repro.core.monitor import OnlineMonitor
from repro.trace.schema import (
    Trace,
    TraceColumns,
    TraceMeta,
    TraceRecord,
    TraceRow,
)

KERNEL_IDS = ("A4", "A5", "A6", "A7", "A8", "A15", "A16", "A18", "A19")
CASES = ("sparse", "absent_gps", "dense", "nan")
"""Split at every boundary; ``"long"`` is checked as whole blocks."""


def _times(case: str) -> np.ndarray:
    """Dyadic 0.125 s steps (window edges fall exactly on records), then
    0.05 s steps, a 1.6 s gap, and jittered steps.  The long case is
    1200 jittered steps: enough distinct values that ``np.hypot`` or
    ``np.exp`` in place of their ``math`` twins changes a margin."""
    rng = np.random.default_rng(11)
    if case == "long":
        steps = 0.05 + rng.uniform(-0.01, 0.01, size=1199)
    else:
        steps = np.concatenate((
            np.full(48, 0.125), np.full(40, 0.05), [1.6],
            0.05 + rng.uniform(-0.01, 0.01, size=60)))
    return np.concatenate(([0.0], np.cumsum(steps)))


def _hold(values: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """Zero-order hold: non-fresh records repeat the last fresh value."""
    idx = np.maximum.accumulate(np.where(fresh, np.arange(values.size), 0))
    return values[idx]


@functools.lru_cache(maxsize=None)
def columns(case: str) -> TraceColumns:
    t = _times(case)
    n = t.size
    rng = np.random.default_rng((*CASES, "long").index(case))
    arrays = {name: np.full(n, "") if name in Trace.string_channels
              else np.zeros(n) for name in Trace.field_names}
    arrays["step"] = np.arange(n)
    arrays["t"] = t
    # Odometry: cruising, stopped (zero) for a stretch, then cruising.
    odom = 8.0 + rng.normal(0.0, 0.2, n)
    odom[30:55] = 0.0
    arrays["odom_speed"] = odom
    # GPS: positions along the path, a jump, a frozen stretch.
    x = np.cumsum(odom * np.diff(t, prepend=0.0))
    gx = x + rng.normal(0.0, 0.3, n)
    gy = 2.0 + rng.normal(0.0, 0.3, n)
    if case == "long":  # diagonal: both legs of each hypot matter
        gy += 0.75 * x
    gx[70:] += 6.0
    gx[100:115] = gx[100]
    gy[100:115] = gy[100]
    fresh = np.zeros(n, dtype=bool)
    if case == "sparse":
        fresh[::4] = True
        fresh[60:80] = False  # a 1+ s stretch without a fix
    elif case in ("dense", "long"):
        fresh[:] = True
    elif case == "nan":
        fresh[::2] = True
    arrays["gps_fresh"] = fresh
    arrays["gps_x"] = _hold(gx, fresh)
    arrays["gps_y"] = _hold(gy, fresh)
    # Compass: yaw sweeps through +pi and wraps to -pi; fresh every
    # second record but for a dropout, held in between.
    yaw = 2.6 + 0.012 * np.arange(n)
    yaw = np.where(yaw > math.pi, yaw - 2.0 * math.pi, yaw)
    compass_fresh = np.arange(n) % 2 == 0
    compass_fresh[80:110] = False  # a dropout: gyro-propagated heading
    arrays["compass_yaw"] = _hold(yaw + rng.normal(0.0, 0.01, n),
                                  compass_fresh)
    arrays["compass_fresh"] = compass_fresh
    arrays["imu_yaw_rate"] = 0.1 + rng.normal(0.0, 0.02, n)
    # Radar: lead present but for a stretch; fresh every second record
    # with a dropout over 1 s (and the 1.6 s gap in t); a ghost step.
    lead = np.ones(n, dtype=bool)
    lead[20:26] = False
    radar_fresh = np.arange(n) % 2 == 1
    radar_fresh[110:135] = False
    rng_range = 30.0 - 0.1 * np.arange(n) + rng.normal(0.0, 0.05, n)
    rng_range[120:] += 8.0
    arrays["lead_present"] = lead
    arrays["radar_fresh"] = radar_fresh
    arrays["radar_range"] = rng_range
    arrays["radar_range_rate"] = -2.0 + rng.normal(0.0, 0.3, n)
    # Steering beyond the actuator limit, and an applied angle that
    # lags it with an offset.
    steer = (0.3 if case == "long" else 0.8) * np.sin(0.2 * np.arange(n))
    arrays["steer_cmd"] = steer
    arrays["steer_applied"] = 0.9 * np.roll(steer, 3) + 0.01
    # Distance to goal: shrinking, through 0.0 and -0.0, then negative
    # (closed route) and NaN.
    goal = np.maximum(40.0 - 0.5 * np.arange(n), 0.0)
    goal[90] = -0.0
    goal[120:125] = -1.0
    arrays["dist_to_goal"] = goal
    if case == "nan":
        for name, start in (("odom_speed", 12), ("gps_x", 40),
                            ("gps_y", 41), ("radar_range", 61),
                            ("radar_range_rate", 77), ("steer_cmd", 95),
                            ("dist_to_goal", 140), ("imu_yaw_rate", 128)):
            arrays[name][start:start + 3] = np.nan
    return Trace.from_columns(TraceMeta(), arrays).columns()


def block(cols: TraceColumns, a: int, b: int) -> TraceColumns:
    return TraceColumns({name: cols.get(name)[a:b]
                         for name in Trace.field_names})


def _canon(value):
    """State as comparable data: floats by bits and exact type."""
    if isinstance(value, float):
        return (type(value).__name__, float.hex(value))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    if isinstance(value, np.ndarray):
        raise AssertionError("unexpected array in state")
    return value


def state(assertion) -> dict:
    """Every attribute, a window read in its list form without
    converting the stored value."""
    out = {}
    for key, value in vars(assertion).items():
        if key.endswith("_store"):
            key = key[: -len("_store")]
            if not isinstance(value, list):
                value = list(zip(*(c.tolist() for c in value)))
        out[key] = _canon(value)
    return out


def same(a: float, b: float) -> bool:
    if a != a or b != b:
        return a != a and b != b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@functools.lru_cache(maxsize=None)
def reference(case: str, aid: str):
    """Per-record margins and the state after every record."""
    assertion = make_assertion(aid)
    margins, states = [], []
    for row in columns(case).rows():
        margins.append(assertion.margin(row))
        states.append(state(assertion))
    return margins, states


def assert_block(got, expected: list, where) -> None:
    margins, applicable = got
    if applicable is None:
        applicable = np.ones(margins.size, dtype=bool)
    assert margins.dtype == np.float64 and margins.size == len(expected)
    assert applicable.tolist() == [m is not None for m in expected], where
    for i, (m, e) in enumerate(zip(margins.tolist(), expected)):
        if e is not None:
            assert same(m, e), (where, i, m, e)


@pytest.mark.parametrize("aid", KERNEL_IDS)
@pytest.mark.parametrize("case", CASES)
class TestKernelEqualsScalar:

    def test_split_at_every_boundary(self, case, aid):
        cols = columns(case)
        expected, states = reference(case, aid)
        for k in range(1, cols.n):
            assertion = make_assertion(aid)
            assert_block(assertion.margin_chunk(block(cols, 0, k)),
                         expected[:k], k)
            assert state(assertion) == states[k - 1], k
            assert_block(assertion.margin_chunk(block(cols, k, cols.n)),
                         expected[k:], k)
            assert state(assertion) == states[-1], k

    @pytest.mark.parametrize("sizes", [[1], [3, 1, 7], [64], [5, 29, 2]])
    def test_interleaved_with_scalar_steps(self, case, aid, sizes):
        cols = columns(case)
        rows = cols.rows()
        expected, states = reference(case, aid)
        assertion = make_assertion(aid)
        start, i = 0, 0
        while start < cols.n:
            stop = min(start + sizes[i % len(sizes)], cols.n)
            if i % 3 == 2:  # every third piece steps record by record
                got = [assertion.margin(row) for row in rows[start:stop]]
                assert all(same(g, e) if e is not None else g is None
                           for g, e in zip(got, expected[start:stop]))
            else:
                assert_block(assertion.margin_chunk(block(cols, start, stop)),
                             expected[start:stop], start)
            assert state(assertion) == states[stop - 1], stop
            start, i = stop, i + 1


@pytest.mark.parametrize("aid", KERNEL_IDS)
@pytest.mark.parametrize("case", (*CASES, "long"))
def test_one_block(case, aid):
    expected, states = reference(case, aid)
    assertion = make_assertion(aid)
    assert_block(assertion.margin_chunk(columns(case)), expected, "whole")
    assert state(assertion) == states[-1]


class TestCases:
    def test_columns_hit_the_edges(self):
        sparse, absent, nan = (columns(c) for c in ("sparse", "absent_gps",
                                                     "nan"))
        assert not absent.gps_fresh.any()
        fix_t = sparse.t[sparse.gps_fresh]
        assert np.diff(fix_t).max() > 1.0
        track_t = sparse.t[sparse.lead_present & sparse.radar_fresh]
        assert np.diff(track_t).max() > 1.0
        yaw = sparse.compass_yaw
        assert (np.abs(np.diff(yaw)) > math.pi).any()  # crosses +/-pi
        assert (sparse.odom_speed == 0.0).sum() > 20
        for name in ("odom_speed", "gps_x", "radar_range", "steer_cmd"):
            assert np.isnan(nan.get(name)).any()
        # A window that ends exactly on a record: t - 1.0 (A7's
        # baseline, A8's window / 4) is another record's time.
        t = sparse.t
        assert np.isin(t - 1.0, t).sum() > 10

    @pytest.mark.parametrize("aid", KERNEL_IDS)
    def test_every_kernel_evaluates_somewhere(self, aid):
        applicable = [m is not None for case in CASES
                      for m in reference(case, aid)[0]]
        if aid == "A15":  # liveness: judged at the end, from the state
            assert reference("sparse", aid)[1][-1]["_applicable"]
        else:
            assert any(applicable)


class TestNoRowPath:
    def test_monitor_steps_no_margin_and_two_rows_per_chunk(
            self, monkeypatch):
        cols = columns("sparse")
        monitor = OnlineMonitor(default_catalog())
        margin_calls = []
        for assertion in monitor.assertions:
            scalar = assertion.margin

            def counting(record, scalar=scalar):
                margin_calls.append(1)
                return scalar(record)

            monkeypatch.setattr(assertion, "margin", counting)
        made = []
        make = TraceRow._make

        def counting_make(cls, iterable):
            made.append(1)
            return make(iterable)

        monkeypatch.setattr(TraceRow, "_make", classmethod(counting_make))
        chunks = 0
        for a in range(0, cols.n, 64):
            before = len(made)
            monitor.feed_columns(block(cols, a, min(a + 64, cols.n)))
            assert len(made) - before <= 2
            chunks += 1
        assert chunks > 1
        assert margin_calls == []

    def test_check_trace_builds_no_record(self, monkeypatch):
        cols = columns("sparse")
        trace = Trace.from_columns(
            TraceMeta(), {name: cols.get(name) for name in Trace.field_names})
        built = []
        init = TraceRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TraceRecord, "__init__", counting_init)
        report = check_trace(trace)
        monkeypatch.undo()
        assert built == []
        assert report.summaries["A15"].evaluated  # read the end row
        assert report.to_dict() == check_trace(trace, engine="step").to_dict()
