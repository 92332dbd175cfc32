"""Stacked projection queries: every row gets what it gets alone.

The batch engine answers the ground-truth projection and the lateral
controllers' first projections with one ``Polyline.nearest_segments``
call (``BatchRoute.project_many``).  That is exact only because each row
of the kernel is independent of the others: its own candidate window, the
padding to the widest row repeating its own last candidate, and a
first-minimum ``argmin``.  These properties pin that row independence on
closed and open routes, with unhinted rows, seam windows, NaN and
infinite hints and windows of every width mixed in one call.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geom.polyline import HINT_WINDOW, Polyline
from repro.geom.routes import s_curve_route, urban_loop_route
from repro.geom.vec import Vec2
from repro.sim.batch.route import BatchRoute

ROUTES = {
    "loop": urban_loop_route(),
    "open": s_curve_route(),
    # Closed but shorter than two windows: every row scans every segment.
    "short_loop": Polyline([Vec2(0, 0), Vec2(12, 0), Vec2(12, 12),
                            Vec2(0, 12)], closed=True),
}
BATCH_ROUTES = {name: BatchRoute(route) for name, route in ROUTES.items()}

HINTS = st.one_of(
    st.none(),  # has_hint False: the whole route
    st.floats(min_value=-0.5, max_value=0.5),  # near the point's station
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([0.0, HINT_WINDOW / 2, -HINT_WINDOW, 1e4]),  # far/seam
)

ROWS = st.lists(
    st.tuples(
        st.floats(min_value=-0.1, max_value=1.1),  # station, route fraction
        st.floats(min_value=-20.0, max_value=20.0),  # offset x
        st.floats(min_value=-20.0, max_value=20.0),  # offset y
        HINTS,
    ),
    min_size=1, max_size=12,
)


def queries(route: Polyline, rows) -> tuple:
    """``(px, py, hint, has_hint)`` arrays for the drawn rows."""
    px, py, hint, has_hint = [], [], [], []
    for frac, off_x, off_y, h in rows:
        station = frac * route.length
        point = route.sample(station).point
        px.append(point.x + off_x)
        py.append(point.y + off_y)
        has_hint.append(h is not None)
        if h is None:
            hint.append(0.0)
        elif -1.0 <= h <= 1.0:
            hint.append(station + h)
        else:
            hint.append(h)
    return (np.array(px), np.array(py), np.array(hint),
            np.array(has_hint, dtype=bool))


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@settings(max_examples=150, deadline=None)
@given(route_name=st.sampled_from(sorted(ROUTES)), rows=ROWS)
def test_stacked_rows_equal_lone_rows(route_name, rows):
    route = ROUTES[route_name]
    px, py, hint, has_hint = queries(route, rows)
    with np.errstate(invalid="ignore"):
        idx, t = route.nearest_segments(px, py, hint, has_hint)
        for i in range(len(px)):
            one = slice(i, i + 1)
            idx1, t1 = route.nearest_segments(px[one], py[one], hint[one],
                                              has_hint[one])
            assert idx[i] == idx1[0]
            assert bits(t[one]) == bits(t1)


@settings(max_examples=100, deadline=None)
@given(route_name=st.sampled_from(sorted(ROUTES)), rows=ROWS,
       cuts=st.lists(st.integers(min_value=0, max_value=12), max_size=3))
def test_project_many_equals_separate_projections(route_name, rows, cuts):
    broute = BATCH_ROUTES[route_name]
    px, py, hint, has_hint = queries(ROUTES[route_name], rows)
    bounds = sorted({0, len(px), *(c for c in cuts if c < len(px))})
    sets = [tuple(a[lo:hi] for a in (px, py, hint, has_hint))
            for lo, hi in zip(bounds, bounds[1:])]
    with np.errstate(invalid="ignore"):
        stacked = broute.project_many(sets)
        alone = [broute.project(*query) for query in sets]
    assert len(stacked) == len(sets)
    for a, b in zip(stacked, alone):
        for name in ("station", "cross_track", "heading"):
            assert bits(getattr(a, name)) == bits(getattr(b, name)), name


def test_mixed_widths_in_one_call():
    # An unhinted row pads every other row to the route's segment count.
    route = ROUTES["loop"]
    rows = [(0.01, 0.5, -0.5, 0.0), (0.5, 1.0, 2.0, None),
            (0.99, -1.0, 0.3, 0.2), (0.3, 0.0, 0.0, math.nan)]
    px, py, hint, has_hint = queries(route, rows)
    wrap, start, last = route._hint_windows(hint, has_hint)  # noqa: SLF001
    widths = wrap + (last - start) + 1
    assert len(set(widths.tolist())) >= 3
    assert wrap[0] > 0 and wrap[2] > 0  # both ends of the seam
    idx, t = route.nearest_segments(px, py, hint, has_hint)
    for i in range(len(rows)):
        one = slice(i, i + 1)
        idx1, t1 = route.nearest_segments(px[one], py[one], hint[one],
                                          has_hint[one])
        assert (idx[i], bits(t[one])) == (idx1[0], bits(t1))
