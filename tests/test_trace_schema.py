"""Tests for repro.trace.schema."""

import numpy as np
import pytest

from repro.trace.io import TraceIOError, columns_to_npz_bytes, trace_from_bytes
from repro.trace.schema import Trace, TraceColumns, TraceMeta, TraceRecord

from conftest import make_record, make_trace


class TestTraceRecord:
    def test_replace(self):
        r = make_record(0)
        r2 = r.replace(gps_x=99.0)
        assert r2.gps_x == 99.0
        assert r.gps_x != 99.0

    def test_frozen(self):
        r = make_record(0)
        with pytest.raises(Exception):
            r.gps_x = 1.0  # type: ignore[misc]


class TestTraceContainer:
    def test_append_and_len(self):
        trace = make_trace(10)
        assert len(trace) == 10

    def test_append_requires_increasing_steps(self):
        trace = Trace()
        trace.append(make_record(5))
        with pytest.raises(ValueError):
            trace.append(make_record(5))
        with pytest.raises(ValueError):
            trace.append(make_record(3))

    def test_constructor_requires_increasing_steps(self):
        records = [make_record(5), make_record(3), make_record(3)]
        with pytest.raises(ValueError, match=r"got step 3 after step 5"):
            Trace(TraceMeta(), records)
        with pytest.raises(ValueError, match="strictly increase"):
            Trace(TraceMeta(), [make_record(2), make_record(2)])

    def test_from_columns_requires_increasing_steps(self):
        cols = TraceColumns.from_records(
            [make_record(0), make_record(1), make_record(1)])
        arrays = {name: cols.get(name) for name in Trace.field_names}
        with pytest.raises(ValueError, match=r"got step 1 after step 1"):
            Trace.from_columns(TraceMeta(), arrays)

    def test_bad_steps_do_not_decode(self):
        payload = columns_to_npz_bytes(TraceMeta(), TraceColumns.from_records(
            [make_record(5), make_record(3), make_record(3)]))
        with pytest.raises(TraceIOError, match=r"got step 3 after step 5"):
            trace_from_bytes(payload)

    def test_getitem_and_slice(self):
        trace = make_trace(10)
        assert trace[0].step == 0
        sub = trace[2:5]
        assert isinstance(sub, Trace)
        assert len(sub) == 3
        assert sub.meta is trace.meta

    def test_iteration(self):
        steps = [r.step for r in make_trace(5)]
        assert steps == [0, 1, 2, 3, 4]

    def test_duration_and_dt(self):
        trace = make_trace(101)
        assert trace.duration == pytest.approx(5.0)
        assert trace.dt == pytest.approx(0.05)

    def test_empty_duration(self):
        assert Trace().duration == 0.0


class TestColumns:
    def test_column_values(self):
        trace = make_trace(4)
        xs = trace.column("true_x")
        assert isinstance(xs, np.ndarray)
        assert xs[1] == pytest.approx(8.0 * 0.05)

    def test_bool_column_as_float(self):
        trace = make_trace(3)
        fresh = trace.column("gps_fresh")
        assert set(fresh) <= {0.0, 1.0}

    def test_unknown_column(self):
        with pytest.raises(KeyError):
            make_trace(3).column("nope")

    def test_string_column_rejected(self):
        with pytest.raises(TypeError):
            make_trace(3).column("attack_name")

    def test_times(self):
        t = make_trace(3).times()
        assert t[2] == pytest.approx(0.1)


class TestWindowAndOnset:
    def test_window(self):
        trace = make_trace(100)
        w = trace.window(1.0, 2.0)
        assert all(1.0 <= r.t < 2.0 for r in w)

    def test_attack_onset(self):
        def mutate(step, record):
            if step >= 50:
                return record.replace(attack_active=True, attack_name="x")
            return record

        trace = make_trace(100, mutate=mutate)
        assert trace.attack_onset() == pytest.approx(50 * 0.05)

    def test_no_attack_onset(self):
        assert make_trace(10).attack_onset() is None


class TestMeta:
    def test_roundtrip(self):
        meta = TraceMeta(scenario="s", controller="c", attack="a", seed=3,
                         dt=0.02, route_length=123.0, extra={"k": 1})
        back = TraceMeta.from_dict(meta.to_dict())
        assert back.scenario == "s"
        assert back.extra == {"k": 1}
        assert back.dt == 0.02

    def test_from_partial_dict(self):
        meta = TraceMeta.from_dict({})
        assert meta.attack == "none"
