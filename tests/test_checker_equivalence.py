"""Differential tests: vectorized checker vs the per-step oracle.

The vectorized engine (``check_trace(engine="vector")``) must reproduce
the per-step state machine (``engine="step"``, i.e. the
:class:`~repro.core.monitor.OnlineMonitor`) *exactly* — same
:class:`AssertionSummary` fields, same :class:`Violation` episodes, same
floats bit for bit.  Two layers of evidence:

* property-based margin streams (hypothesis) drive the shared episode
  state machine through arbitrary debounce/NaN/applicability patterns;
* a full attack x fault x controller grid of real simulated runs is
  checked with both engines against the complete catalog.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catalog import default_catalog
from repro.core.checker import check_trace
from repro.core.dsl import BoundAssertion, FunctionAssertion
from repro.sim.engine import run_scenario
from repro.sim.scenario import acc_scenario, standard_scenarios

from conftest import make_trace, short_scenario

# ---------------------------------------------------------------------------
# Property-based margin streams
# ---------------------------------------------------------------------------

# One stream element is either None (assertion not applicable at that
# step) or a margin value; NaN is legal and means "applicable but the
# margin computation degenerated" (it counts as a non-violating sample,
# matching `margin < 0` being False for NaN).
margin_values = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    # Cluster around the threshold where episode logic is most sensitive.
    st.sampled_from([-1e-9, 0.0, 1e-9, -0.5, 0.5]),
)
margin_streams = st.lists(margin_values, min_size=0, max_size=120)
debounces = st.tuples(st.integers(min_value=1, max_value=5),
                      st.integers(min_value=1, max_value=12))


def stream_assertion(debounce_on, debounce_off, settle_time=0.0,
                     vectorized=True):
    """An assertion whose margin is read verbatim from ``cte_true``,
    with ``gps_fresh=False`` marking inapplicable steps."""

    def fn(record, state):
        if not record.gps_fresh:
            return None
        return record.cte_true

    def fn_array(cols):
        return cols.cte_true, cols.gps_fresh

    return FunctionAssertion(
        "ST1", "margin stream", fn,
        fn_array=fn_array if vectorized else None,
        settle_time=settle_time,
        debounce_on=debounce_on, debounce_off=debounce_off,
    )


def stream_trace(stream):
    def mutate(step, record):
        value = stream[step]
        if value is None:
            return record.replace(gps_fresh=False)
        return record.replace(gps_fresh=True, cte_true=value)

    return make_trace(len(stream), mutate=mutate)


def assert_reports_identical(report_a, report_b):
    assert report_a.summaries == report_b.summaries
    assert report_a.violations == report_b.violations
    assert report_a.duration == report_b.duration


class TestPropertyStreams:
    @settings(max_examples=200, deadline=None)
    @given(stream=margin_streams, debounce=debounces)
    def test_vectorized_matches_step_oracle(self, stream, debounce):
        trace = stream_trace(stream)
        on, off = debounce
        vec = check_trace(trace, [stream_assertion(on, off)],
                          engine="vector")
        step = check_trace(trace, [stream_assertion(on, off)],
                           engine="step")
        assert_reports_identical(vec, step)

    @settings(max_examples=100, deadline=None)
    @given(stream=margin_streams, debounce=debounces,
           settle=st.sampled_from([0.0, 0.2, 1.0]))
    def test_sequential_fallback_matches_step_oracle(self, stream, debounce,
                                                     settle):
        # Without fn_array the offline engine walks margin() per record —
        # the fallback path every stateful catalog assertion uses.
        trace = stream_trace(stream)
        on, off = debounce
        vec = check_trace(
            trace, [stream_assertion(on, off, settle, vectorized=False)],
            engine="vector")
        step = check_trace(
            trace, [stream_assertion(on, off, settle, vectorized=False)],
            engine="step")
        assert_reports_identical(vec, step)

    @settings(max_examples=100, deadline=None)
    @given(stream=st.lists(
        st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
        min_size=0, max_size=100))
    def test_bound_assertion_with_scaling(self, stream):
        trace = make_trace(
            len(stream),
            mutate=lambda step, r: r.replace(cte_true=stream[step]))

        def bound():
            return BoundAssertion("B1", "cte bound", "cte_true", 2.5,
                                  debounce_on=2, debounce_off=4).scale_bound(1.7)

        vec = check_trace(trace, [bound()], engine="vector")
        step = check_trace(trace, [bound()], engine="step")
        assert_reports_identical(vec, step)


# ---------------------------------------------------------------------------
# Full-grid differential test on real simulated runs
# ---------------------------------------------------------------------------

GRID = [
    # (attack, fault, controller, supervised)
    ("none", None, "pure_pursuit", False),
    ("gps_bias", None, "pure_pursuit", False),
    ("gps_freeze", None, "stanley", False),
    ("radar_scale", None, "mpc", False),
    ("steer_offset", None, "lqr", False),
    ("none", "imu_dropout", "pure_pursuit", False),
    ("gps_bias", "radar_dropout", "stanley", False),
    ("none", "compass_nan", "pure_pursuit", True),
    ("none", "gps_dropout+compass_dropout", "pure_pursuit", True),
]


def _simulate(attack, fault, controller, supervised):
    from repro.attacks.campaign import standard_attack
    from repro.faults.campaign import combined_fault, standard_fault

    campaign = (standard_attack(attack, onset=4.0)
                if attack != "none" else None)
    faults = None
    if fault is not None:
        classes = fault.split("+")
        faults = (combined_fault(classes, onset=5.0) if len(classes) > 1
                  else standard_fault(fault, onset=5.0))
    return run_scenario(short_scenario("s_curve", duration=14.0),
                        controller=controller, campaign=campaign,
                        faults=faults, supervised=supervised)


class TestFullGrid:
    @pytest.mark.parametrize("attack,fault,controller,supervised", GRID)
    def test_engines_agree_on_full_catalog(self, attack, fault, controller,
                                           supervised):
        result = _simulate(attack, fault, controller, supervised)
        vec = check_trace(result.trace, default_catalog(), engine="vector")
        step = check_trace(result.trace, default_catalog(), engine="step")
        assert_reports_identical(vec, step)
        # Spot-check nothing silently became NaN on the vector path.
        for summary in vec.summaries.values():
            assert not math.isnan(summary.worst_margin)

    def test_engines_agree_on_acc_scenario(self):
        for attack in ("none", "radar_ghost", "radar_blind"):
            from repro.attacks.campaign import standard_attack

            campaign = (standard_attack(attack, onset=4.0)
                        if attack != "none" else None)
            scenario = acc_scenario(seed=7, duration=14.0)
            result = run_scenario(scenario, campaign=campaign)
            vec = check_trace(result.trace, default_catalog(),
                              engine="vector")
            step = check_trace(result.trace, default_catalog(),
                               engine="step")
            assert_reports_identical(vec, step)


# ---------------------------------------------------------------------------
# Engine selection plumbing
# ---------------------------------------------------------------------------

class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown checker engine"):
            check_trace(make_trace(5), [], engine="quantum")

    def test_duplicate_assertion_ids_rejected(self):
        pair = [BoundAssertion("D1", "a", "cte_true", 1.0),
                BoundAssertion("D1", "b", "cte_true", 2.0)]
        with pytest.raises(ValueError, match="duplicate"):
            check_trace(make_trace(5), pair, engine="vector")
