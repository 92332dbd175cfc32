"""Chunked monitoring equals per-record monitoring, for every split.

:meth:`OnlineMonitor.feed_columns` is what the ingest service runs on
each chunk.  It must return exactly the violations, in the same order,
that per-record :meth:`OnlineMonitor.feed` returns over the same
records, and leave the same state behind.  So every split of a trace
into chunks, and every interleaving of chunks with single-record feeds,
must give the per-record live violations piece by piece and a final
report dict-equal to :func:`check_trace`.

Between them the simulated traces fire every catalog assertion:
attacks, benign faults (one with NaN bursts written into its channels,
one with its route station snapping back), a supervised safe-stop run,
runs with a lead vehicle and radar, and a controller defect.  Synthetic margin streams drive the debounce state
across chunk boundaries through arbitrary on/off/NaN/settle patterns.
"""

from __future__ import annotations

import asyncio
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.attacks.campaign import standard_attack
from repro.control.defects import make_defect
from repro.core.catalog import CATALOG_IDS, default_catalog
from repro.core.checker import check_trace
from repro.core.dsl import BoundAssertion, FunctionAssertion
from repro.core.monitor import OnlineMonitor
from repro.faults.campaign import combined_fault, standard_fault
from repro.service.client import stream_trace
from repro.sim.engine import lane_spec
from repro.sim.scenario import acc_scenario
from repro.trace.schema import Trace, TraceColumns, TraceRecord

from conftest import make_trace, short_scenario
from service_utils import reference_verdict, serving

NAN_CHANNELS = (
    "cte_true", "heading_err_true", "true_v", "gps_x", "gps_y",
    "imu_yaw_rate", "odom_speed", "radar_range", "gap_true", "est_v",
    "nis_gps", "nis_speed", "nis_compass", "cte_est", "station_est",
    "target_speed", "steer_cmd", "accel_cmd", "steer_applied",
)
"""Channels that get NaN bursts.  The compass stays finite: its angle
arithmetic rejects NaN on every path alike."""


def _run(scenario, controller="pure_pursuit", **options) -> Trace:
    return lane_spec(scenario, controller, **options).run().trace


def _nan_bursts(trace: Trace) -> Trace:
    cols = trace.columns()
    arrays = {name: np.array(cols.get(name)) for name in Trace.field_names}
    rng = np.random.default_rng(3)
    for name in NAN_CHANNELS:
        for start in rng.integers(0, cols.n - 8, size=3):
            arrays[name][start:start + rng.integers(1, 8)] = np.nan
    return Trace.from_columns(trace.meta, arrays)


def _station_wraps(trace: Trace) -> Trace:
    """The trace with its route station snapping back twice (what a
    closed route's lap or a projection snap looks like)."""
    cols = trace.columns()
    arrays = {name: cols.get(name) for name in Trace.field_names}
    station = np.array(cols.station_est)
    for start in (cols.n // 3, 2 * cols.n // 3):
        station[start:] -= 60.0
    arrays["station_est"] = station
    return Trace.from_columns(trace.meta, arrays)


def _s_curve(duration=20.0):
    return short_scenario("s_curve", duration=duration)


BUILDERS = {
    "gps_freeze_fault": lambda: _run(
        _s_curve(), faults=standard_fault("gps_freeze", onset=5.0)),
    "imu_dropout_fault": lambda: _run(
        _s_curve(), faults=standard_fault("imu_dropout", onset=5.0)),
    "nan_bursts": lambda: _nan_bursts(_run(
        _s_curve(), faults=standard_fault("imu_dropout", onset=5.0))),
    "station_wraps": lambda: _station_wraps(_run(
        _s_curve(), faults=standard_fault("gps_freeze", onset=5.0))),
    "supervised_safe_stop": lambda: _run(
        _s_curve(), supervised=True,
        faults=combined_fault(["gps_dropout", "compass_dropout"],
                              onset=5.0)),
    "unsupervised_sensor_loss": lambda: _run(
        _s_curve(16.0),
        faults=combined_fault(["gps_dropout", "compass_dropout"],
                              onset=5.0)),
    "radar_ghost": lambda: _run(
        acc_scenario(seed=7, duration=16.0),
        campaign=standard_attack("radar_ghost", onset=4.0)),
    "radar_blind": lambda: _run(
        acc_scenario(seed=7, duration=35.0),
        campaign=standard_attack("radar_blind", onset=4.0)),
    "stale_input_slalom": lambda: _run(
        short_scenario("slalom", duration=20.0),
        defect=make_defect("ctrl_stale_input")),
    "odom_scale": lambda: _run(
        _s_curve(), campaign=standard_attack("odom_scale", intensity=3.0,
                                             onset=4.0)),
    "cmd_delay": lambda: _run(
        _s_curve(), campaign=standard_attack("cmd_delay", onset=4.0)),
}
NAMES = tuple(BUILDERS)


@functools.lru_cache(maxsize=None)
def simulated(name: str) -> Trace:
    trace = BUILDERS[name]()
    trace.records  # materialise once: the oracle feeds records
    return trace


@functools.lru_cache(maxsize=None)
def oracle(name: str) -> tuple[list[list], dict]:
    """Per-record ``feed`` results and the offline report."""
    trace = simulated(name)
    monitor = OnlineMonitor(default_catalog())
    per_record = [monitor.feed(record) for record in trace.records]
    return per_record, check_trace(trace).to_dict()


def block(cols: TraceColumns, a: int, b: int) -> TraceColumns:
    return TraceColumns({name: cols.get(name)[a:b]
                         for name in Trace.field_names})


def pieces(n: int, sizes: list[int], modes: list[str]):
    """``(start, stop, mode)`` covering ``range(n)``, cycling the drawn
    sizes and modes."""
    start, i = 0, 0
    while start < n:
        stop = min(start + sizes[i % len(sizes)], n)
        yield start, stop, modes[i % len(modes)]
        start, i = stop, i + 1


def run_pieces(monitor: OnlineMonitor, trace: Trace, sizes, modes):
    """Feed ``trace`` piece by piece; the violations each piece returned."""
    cols = trace.columns()
    records = trace.records
    out = []
    for a, b, mode in pieces(len(trace), sizes, modes):
        if mode == "chunk":
            got = monitor.feed_columns(block(cols, a, b))
        else:
            got = [v for record in records[a:b]
                   for v in monitor.feed(record)]
        out.append((a, b, got))
    return out


def assert_matches_oracle(name: str, sizes, modes) -> None:
    trace = simulated(name)
    per_record, report = oracle(name)
    monitor = OnlineMonitor(default_catalog())
    for a, b, got in run_pieces(monitor, trace, sizes, modes):
        assert got == [v for vs in per_record[a:b] for v in vs], (a, b)
    assert monitor.finish(meta=trace.meta).to_dict() == report


split_sizes = st.lists(
    st.one_of(st.integers(min_value=1, max_value=4),
              st.integers(min_value=1, max_value=150)),
    min_size=1, max_size=12)
SETTINGS = settings(max_examples=12, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestSimulatedTraces:
    def test_traces_fire_every_assertion(self):
        fired = set()
        for name in NAMES:
            _, report = oracle(name)
            fired |= {aid for aid, summary in report["summaries"].items()
                      if summary["fired"]}
        assert fired == set(CATALOG_IDS)
        modes = simulated("supervised_safe_stop").columns().supervisor_mode
        assert "safe_stop" in set(modes.tolist())
        nan = simulated("nan_bursts").columns()
        assert all(np.isnan(nan.get(ch)).any() for ch in NAN_CHANNELS)
        station = simulated("station_wraps").columns().station_est
        assert (station[1:] < station[:-1] - 10.0).sum() == 2
        radar = simulated("radar_ghost").columns()
        assert (radar.lead_present & radar.radar_fresh).any()

    def test_oracle_report_is_the_offline_report(self):
        for name in NAMES:
            trace = simulated(name)
            monitor = OnlineMonitor(default_catalog())
            monitor.feed_all(trace.records)
            assert monitor.finish(trace).to_dict() == oracle(name)[1]

    @pytest.mark.parametrize("name", NAMES)
    @SETTINGS
    @given(sizes=split_sizes)
    @example(sizes=[1])
    @example(sizes=[2, 3])
    @example(sizes=[64])
    @example(sizes=[10_000])
    def test_every_chunk_split(self, name, sizes):
        assert_matches_oracle(name, sizes, ["chunk"])

    @pytest.mark.parametrize("name", NAMES)
    @SETTINGS
    @given(sizes=split_sizes,
           modes=st.lists(st.sampled_from(["chunk", "feed"]),
                          min_size=1, max_size=12))
    @example(sizes=[1], modes=["chunk", "feed"])
    @example(sizes=[7, 1, 30], modes=["feed", "chunk", "chunk"])
    def test_every_interleaving_with_feed(self, name, sizes, modes):
        assert_matches_oracle(name, sizes, modes)


# ---------------------------------------------------------------------------
# Synthetic margin streams: the episode state across chunk boundaries
# ---------------------------------------------------------------------------
margin_values = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.sampled_from([-1e-9, 0.0, 1e-9, -0.5, 0.5]),
)


def margin_trace(stream):
    def mutate(step, record):
        value = stream[step]
        if value is None:
            return record.replace(gps_fresh=False, cte_true=0.0)
        return record.replace(gps_fresh=True, cte_true=value)

    return make_trace(len(stream), mutate=mutate)


def stream_catalog(on, off, settle, scale):
    """A row-path assertion reading margins verbatim and a vectorized
    bound over the same channel."""

    def fn(record, state):
        return record.cte_true if record.gps_fresh else None

    return [
        FunctionAssertion("S1", "margin stream", fn, settle_time=settle,
                          debounce_on=on, debounce_off=off),
        BoundAssertion("S2", "cte bound", "cte_true", 1.5,
                       settle_time=settle, debounce_on=on,
                       debounce_off=off).scale_bound(scale),
    ]


class TestMarginStreams:
    @settings(max_examples=150, deadline=None)
    @given(stream=st.lists(margin_values, min_size=1, max_size=90),
           debounce=st.tuples(st.integers(1, 5), st.integers(1, 12)),
           settle=st.sampled_from([0.0, 0.2, 1.0]),
           scale=st.sampled_from([1.0, 1.7]),
           sizes=split_sizes,
           modes=st.lists(st.sampled_from(["chunk", "feed"]),
                          min_size=1, max_size=6))
    def test_episode_state_resumes_across_pieces(
            self, stream, debounce, settle, scale, sizes, modes):
        trace = margin_trace(stream)
        on, off = debounce
        reference = OnlineMonitor(stream_catalog(on, off, settle, scale))
        per_record = [reference.feed(r) for r in trace.records]
        monitor = OnlineMonitor(stream_catalog(on, off, settle, scale))
        for a, b, got in run_pieces(monitor, trace, sizes, modes):
            assert got == [v for vs in per_record[a:b] for v in vs]
        expected = check_trace(
            trace, stream_catalog(on, off, settle, scale)).to_dict()
        assert monitor.finish(trace).to_dict() == expected
        assert reference.finish(trace).to_dict() == expected


class TestMonitorContract:
    def test_empty_block_is_a_no_op(self):
        trace = make_trace(3)
        monitor = OnlineMonitor(default_catalog())
        assert monitor.feed_columns(block(trace.columns(), 0, 0)) == []
        assert monitor.finish().duration == 0.0

    def test_finished_monitor_refuses_blocks(self):
        trace = make_trace(3)
        monitor = OnlineMonitor(default_catalog())
        monitor.finish()
        with pytest.raises(RuntimeError, match="finished"):
            monitor.feed_columns(trace.columns())


class TestServing:
    def test_a_served_session_builds_no_trace_record(
            self, tmp_path, monkeypatch):
        """The server decodes, checks, checkpoints and finishes a
        session on columns: not one TraceRecord is constructed."""
        trace = simulated("radar_ghost")
        built = []
        real_init = TraceRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        async def go():
            async with serving(tmp_path) as server:
                monkeypatch.setattr(TraceRecord, "__init__", counting_init)
                try:
                    return await stream_trace(
                        trace, "127.0.0.1", server.port, "veh-cols",
                        chunk_records=64)
                finally:
                    monkeypatch.undo()

        outcome = asyncio.run(go())
        assert built == []
        assert outcome.verdict == reference_verdict(trace)
        live = [v for vs in oracle("radar_ghost")[0] for v in vs]
        assert outcome.live_violations == [v.to_dict() for v in live]
