"""Tests for repro.core.dsl: assertion base + combinators."""

import pytest

from repro.core.dsl import (
    BoundAssertion,
    FunctionAssertion,
    WindowMeanBoundAssertion,
)

from repro.core.checker import check_trace
from repro.trace.schema import Trace

from conftest import make_record, make_trace


def feed(assertion, records):
    """Feed records and finish; returns (closed_during, summary)."""
    assertion.reset()
    closed = []
    last = None
    for record in records:
        v = assertion.step(record)
        if v is not None:
            closed.append(v)
        last = record
    closed.extend(assertion.finish(last))
    return closed, assertion.summarize()


def cte_records(values, start_step=0):
    return [make_record(start_step + i, cte_true=v)
            for i, v in enumerate(values)]


class TestBoundAssertion:
    def make(self, **kw):
        defaults = dict(debounce_on=3, debounce_off=5)
        defaults.update(kw)
        return BoundAssertion("T1", "test bound", channel="cte_true",
                              bound=2.0, **defaults)

    def test_holds_within_bound(self):
        violations, summary = feed(self.make(), cte_records([1.0] * 50))
        assert violations == []
        assert not summary.fired
        assert summary.worst_margin == pytest.approx(0.5)

    def test_fires_beyond_bound(self):
        values = [0.0] * 10 + [3.0] * 20 + [0.0] * 20
        violations, summary = feed(self.make(), cte_records(values))
        assert len(violations) == 1
        assert summary.fired
        assert summary.episodes == 1
        v = violations[0]
        assert v.worst_margin == pytest.approx(-0.5)
        assert v.severity == pytest.approx(0.5)

    def test_debounce_on_suppresses_blips(self):
        # Two bad samples (debounce_on=3) never open an episode.
        values = [0.0] * 10 + [3.0] * 2 + [0.0] * 20
        violations, summary = feed(self.make(), cte_records(values))
        assert violations == []
        assert not summary.fired
        # ... but the worst margin is still recorded.
        assert summary.worst_margin == pytest.approx(-0.5)

    def test_debounce_off_merges_nearby_episodes(self):
        # Violation, 2 good samples (debounce_off=5), violation again:
        # stays one episode.
        values = [3.0] * 10 + [0.0] * 2 + [3.0] * 10 + [0.0] * 20
        violations, _ = feed(self.make(), cte_records(values))
        assert len(violations) == 1

    def test_separate_episodes_when_gap_long(self):
        values = [3.0] * 10 + [0.0] * 10 + [3.0] * 10 + [0.0] * 10
        violations, summary = feed(self.make(), cte_records(values))
        assert len(violations) == 2
        assert summary.episodes == 2

    def test_open_episode_closed_at_finish(self):
        values = [0.0] * 10 + [3.0] * 20  # still violating at trace end
        violations, summary = feed(self.make(), cte_records(values))
        assert len(violations) == 1
        assert summary.fired
        assert violations[0].t_end == pytest.approx(29 * 0.05)

    def test_settle_time_discards_early_verdicts(self):
        assertion = self.make(settle_time=1.0)
        values = [5.0] * 10 + [0.0] * 30  # violation only before t=1.0 s
        violations, summary = feed(assertion, cte_records(values))
        assert violations == []
        assert not summary.fired

    def test_episode_timing(self):
        values = [0.0] * 20 + [3.0] * 20 + [0.0] * 20
        violations, _ = feed(self.make(), cte_records(values))
        v = violations[0]
        # Episode opens at the debounce_on-th violating sample.
        assert v.t_start == pytest.approx((20 + 2) * 0.05)
        assert v.duration > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundAssertion("X", "x", channel="cte_true", bound=0.0)
        with pytest.raises(ValueError):
            BoundAssertion("X", "x", channel="cte_true", bound=1.0,
                           debounce_on=0)


class TestWindowMeanBound:
    def make(self):
        return WindowMeanBoundAssertion(
            "T2", "window mean", channel="cte_true", bound=1.0, window=1.0,
            debounce_on=2, debounce_off=5,
        )

    def test_ignores_isolated_spike(self):
        values = [0.0] * 30 + [5.0] + [0.0] * 30
        violations, _ = feed(self.make(), cte_records(values))
        assert violations == []

    def test_fires_on_sustained_elevation(self):
        values = [0.0] * 30 + [2.0] * 40 + [0.0] * 40
        violations, _ = feed(self.make(), cte_records(values))
        assert len(violations) == 1

    def test_not_applicable_until_window_fills(self):
        assertion = self.make()
        assertion.reset()
        assert assertion.step(make_record(0, cte_true=100.0)) is None
        summary_before = assertion.summarize()
        assert not summary_before.fired


class TestFunctionAssertion:
    def test_margin_fn_and_state(self):
        def fn(record, state):
            state.setdefault("count", 0)
            state["count"] += 1
            return 1.0 - record.est_v / 10.0

        assertion = FunctionAssertion("U1", "custom", fn, debounce_on=1,
                                      debounce_off=1)
        records = [make_record(i, est_v=12.0) for i in range(5)]
        violations, summary = feed(assertion, records)
        assert summary.fired
        assert assertion._state["count"] == 5

    def test_state_reset_between_traces(self):
        def fn(record, state):
            state["seen"] = state.get("seen", 0) + 1
            return 1.0

        assertion = FunctionAssertion("U1", "custom", fn)
        feed(assertion, [make_record(0)])
        feed(assertion, [make_record(0)])
        assert assertion._state["seen"] == 1

    def test_end_fn_liveness(self):
        def fn(record, state):
            state["max_x"] = max(state.get("max_x", 0.0), record.true_x)
            return None

        def end_fn(record, state):
            return state.get("max_x", 0.0) - 100.0  # must travel 100 m

        assertion = FunctionAssertion("U2", "travels far", fn, end_fn=end_fn)
        violations, summary = feed(assertion,
                                   [make_record(i) for i in range(10)])
        assert summary.fired  # only ~3.6 m travelled
        assert violations[-1].t_start == violations[-1].t_end

    def test_both_engines_agree_on_a_field_access_function(self):
        """``fn``/``end_fn`` get a TraceRecord per step and a TraceRow
        from the block path; field access reads the same on both."""
        seen = {"vector": set(), "step": set()}

        def run(engine):
            def fn(record, state):
                seen[engine].add(type(record).__name__)
                state["far"] = max(state.get("far", 0.0), record.true_x)
                return 1.0 - record.est_v / 8.5 if record.gps_fresh else None

            def end_fn(record, state):
                seen[engine].add(type(record).__name__)
                return state["far"] / record.true_x - 1.0

            assertion = FunctionAssertion("U4", "custom", fn, end_fn=end_fn,
                                          debounce_on=1, debounce_off=1)
            return check_trace(trace, [assertion], engine=engine)

        def mutate(step, record):
            return record.replace(est_v=9.0 if 20 <= step < 30 else 8.0,
                                  gps_fresh=step % 3 != 0)

        source = make_trace(60, mutate=mutate)
        cols = source.columns()
        trace = Trace.from_columns(
            source.meta, {n: cols.get(n) for n in Trace.field_names})
        vector, step = run("vector"), run("step")
        assert vector.violations and vector.violations == step.violations
        assert vector.summaries == step.summaries
        assert seen == {"vector": {"TraceRow"}, "step": {"TraceRecord"}}

    def test_none_margin_not_applicable(self):
        assertion = FunctionAssertion("U3", "never", lambda r, s: None)
        violations, summary = feed(assertion,
                                   [make_record(i) for i in range(10)])
        assert violations == []
        assert summary.worst_margin == 0.0


class TestEpisodeInvariants:
    def test_episodes_ordered_and_disjoint(self):
        values = ([3.0] * 10 + [0.0] * 10) * 5
        violations, _ = feed(
            BoundAssertion("T", "t", channel="cte_true", bound=2.0,
                           debounce_on=2, debounce_off=3),
            cte_records(values),
        )
        assert len(violations) >= 2
        for a, b in zip(violations, violations[1:]):
            assert a.t_end <= b.t_start

    def test_monitor_reuse_requires_reset(self):
        assertion = BoundAssertion("T", "t", channel="cte_true", bound=2.0)
        _, first = feed(assertion, cte_records([3.0] * 20))
        _, second = feed(assertion, cte_records([0.0] * 20))
        assert first.fired
        assert not second.fired  # reset cleared the violations
