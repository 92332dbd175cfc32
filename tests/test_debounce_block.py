"""The catalog-wide debounce pass against per-assertion ``advance``.

:func:`~repro.core.dsl.debounce_block` runs the debounce of every
assertion over one block in a single pass, and only calls
:meth:`~repro.core.dsl.TraceAssertion.advance` for the assertions that
can open or close an episode there.  This property holds it to the
``advance`` calls it replaces: the same violations in the same order,
and every episode field left the same, chunk after chunk, over random
margins (NaN included), applicability masks, settle times, debounce
counts, bound scales, open episodes and chunk splits.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dsl import TraceAssertion, debounce_block

STATE = ("_bad_streak", "_good_streak", "_episode_start", "_episode_worst",
         "_pending_worst", "_worst_overall", "_evaluated", "_last_step_t")


class _Probe(TraceAssertion):
    """An assertion whose margins the test supplies as arrays."""

    def margin(self, record):
        return None


def _same(a, b) -> bool:
    """Equal, NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def _same_violation(a, b) -> bool:
    return all(_same(getattr(a, f), getattr(b, f))
               for f in ("assertion_id", "name", "category", "t_start",
                         "t_end", "worst_margin", "message"))


margin_values = st.one_of(
    st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, math.nan, -1e-9]))


@st.composite
def cases(draw):
    n = draw(st.integers(1, 48))
    dt = draw(st.sampled_from([0.05, 0.5, 1.0]))
    t = np.arange(n) * dt + draw(st.sampled_from([0.0, 1.0, 4.0]))
    if draw(st.booleans()):  # a NaN time (settle compares false)
        t[draw(st.integers(0, n - 1))] = math.nan
    probes = []
    for i in range(draw(st.integers(1, 6))):
        probe = _Probe(f"P{i}", f"probe {i}", "test",
                       settle_time=draw(st.sampled_from([0.0, 2.0, 6.0])),
                       debounce_on=draw(st.integers(1, 4)),
                       debounce_off=draw(st.integers(1, 5)))
        probe.scale_bound(draw(st.sampled_from([1.0, 1.0, 0.5, 3.0])))
        bias = draw(st.sampled_from([-1.0, 0.0, 1.0]))  # quiet or loud
        margins = np.array(draw(st.lists(margin_values, min_size=n,
                                         max_size=n))) + bias
        applicable = (None if draw(st.booleans()) else np.array(
            draw(st.lists(st.booleans(), min_size=n, max_size=n))))
        probes.append((probe, margins, applicable))
    cuts = sorted(set(draw(st.lists(st.integers(1, max(n - 1, 1)),
                                    max_size=5))) - {n})
    return t, probes, [0, *cuts, n]


@settings(max_examples=400, deadline=None)
@given(case=cases())
def test_debounce_block_equals_advance_per_assertion(case):
    t, probes, bounds = case
    together = [probe for probe, _, _ in probes]
    apart = [_Probe(p.assertion_id, p.name, p.category,
                    settle_time=p.settle_time, debounce_on=p.debounce_on,
                    debounce_off=p.debounce_off).scale_bound(p.bound_scale)
             for p in together]
    for s, e in zip(bounds[:-1], bounds[1:]):
        computed = [(margins[s:e],
                     None if applicable is None else applicable[s:e])
                    for _, margins, applicable in probes]
        got = debounce_block(together, t[s:e], computed)
        want = [(row, i, v) for i, probe in enumerate(apart)
                for row, v in probe.advance(t[s:e], *computed[i])]
        assert [(row, i) for row, i, _ in got] == \
            [(row, i) for row, i, _ in want]
        assert all(_same_violation(a, b)
                   for (_, _, a), (_, _, b) in zip(got, want))
        for a, b in zip(together, apart):
            for name in STATE:
                assert _same(getattr(a, name), getattr(b, name)), name
            assert len(a.violations) == len(b.violations)


def test_a_block_that_opens_and_closes_an_episode():
    """The deterministic core of the property: one assertion goes bad
    and recovers inside the block, the other stays quiet."""
    t = np.arange(12) * 1.0
    loud = _Probe("L", "loud", "test", debounce_on=2, debounce_off=2)
    quiet = _Probe("Q", "quiet", "test", settle_time=3.0)
    margins = np.array([1, -1, -2, -1, 1, 1, 1, 1, 1, 1, 1, 1], float)
    closed = debounce_block([loud, quiet], t,
                            [(margins, None), (np.ones(12), None)])
    assert [(row, i) for row, i, _ in closed] == [(5, 0)]
    violation = closed[0][2]
    assert (violation.t_start, violation.t_end) == (2.0, 5.0)
    assert violation.worst_margin == -2.0
    assert quiet._good_streak == 9 and quiet._worst_overall == 1.0
    assert quiet._last_step_t == loud._last_step_t == 11.0
