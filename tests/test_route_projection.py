"""Route projection at a closed route's seam, in both engines.

``Polyline.project`` and the batch engine's ``BatchRoute.project`` share
one nearest-segment kernel (``Polyline.nearest_segments``).  This suite
pins that kernel against a scalar reference scan written out here: the
candidate windows (a hinted window on a closed route wraps across
station 0 as ``[0, h) ∪ [a, nseg)``) and the strict-< scan over them in
ascending segment order, so the lower index wins an exact tie.

* ``Polyline.project`` must equal the reference bit for bit;
* ``BatchRoute.project`` must equal ``Polyline.project`` lane by lane,
  with seam, windowed and unhinted lanes mixed in one call.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geom.polyline import HINT_WINDOW, Polyline, Projection
from repro.geom.routes import urban_loop_route
from repro.geom.vec import Vec2
from repro.sim.batch.route import BatchRoute

LOOP = urban_loop_route()
SQUARE = Polyline([Vec2(0, 0), Vec2(40, 0), Vec2(40, 40), Vec2(0, 40)],
                  closed=True)
SHORT_LOOP = Polyline([Vec2(0, 0), Vec2(12, 0), Vec2(12, 12), Vec2(0, 12)],
                      closed=True)


# ---------------------------------------------------------------------------
# Scalar reference
# ---------------------------------------------------------------------------

def reference_candidates(route: Polyline, hint: float | None) -> list[int]:
    """The segments a projection with ``hint`` searches, ascending."""
    nseg = route.num_segments
    length = route.length
    if hint is None or (route.closed and length < 2 * HINT_WINDOW):
        return list(range(nseg))
    cum = route.segments.cum
    if route.closed:
        s = float(hint % length)
    else:
        s = float(min(max(hint, 0.0), length))
    lo, hi = s - HINT_WINDOW, s + HINT_WINDOW

    def first_touching(station: float) -> int:
        idx = int(np.searchsorted(cum, max(station, 0.0), side="right") - 1)
        return min(max(idx, 0), nseg - 1)

    def past_touching(station: float) -> int:
        return int(np.searchsorted(cum, min(station, length), side="left"))

    if route.closed and lo < 0:
        pieces = (range(past_touching(hi)), range(first_touching(lo + length), nseg))
    elif route.closed and hi > length:
        pieces = (range(past_touching(hi - length)), range(first_touching(lo), nseg))
    else:
        lo_idx = first_touching(lo)
        hi_idx = min(max(past_touching(hi), lo_idx + 1), nseg)
        pieces = (range(lo_idx, hi_idx),)
    return sorted(set().union(*pieces))


def reference_project(route: Polyline, point: Vec2,
                      hint: float | None = None) -> Projection:
    """A scalar best-so-far scan over :func:`reference_candidates`."""
    seg = route.segments
    best = None  # (dist_sq, idx, t)
    px, py = point.x, point.y
    for idx in reference_candidates(route, hint):
        ax, ay = float(seg.start_x[idx]), float(seg.start_y[idx])
        dx, dy = float(seg.dx[idx]), float(seg.dy[idx])
        t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
        t = min(max(t, 0.0), 1.0)
        ex, ey = px - (ax + t * dx), py - (ay + t * dy)
        dist_sq = ex * ex + ey * ey
        if best is None or dist_sq < best[0]:
            best = (dist_sq, idx, t)
    _, idx, t = best
    points = route.points
    closest = points[idx].lerp(points[idx + 1], t)
    heading = float(seg.headings[idx])
    tangent = Vec2(math.cos(heading), math.sin(heading))
    return Projection(
        point=closest,
        station=float(seg.cum[idx] + t * seg.lengths[idx]),
        cross_track=tangent.cross(point - closest),
        heading=heading,
        segment_index=idx,
        distance=point.distance_to(closest),
    )


def bits(proj: Projection) -> tuple:
    """Every float of a projection as its exact bit pattern."""
    return (proj.point.x.hex(), proj.point.y.hex(), proj.station.hex(),
            proj.cross_track.hex(), proj.heading.hex(), proj.segment_index,
            proj.distance.hex())


def assert_batch_matches(route: Polyline, queries) -> None:
    """One BatchRoute call over ``(point, hint)`` lanes equals per-lane
    ``Polyline.project`` bit for bit."""
    px = np.array([p.x for p, _ in queries])
    py = np.array([p.y for p, _ in queries])
    hint = np.array([0.0 if h is None else h for _, h in queries])
    has_hint = np.array([h is not None for _, h in queries])
    batch = BatchRoute(route).project(px, py, hint, has_hint)
    for lane, (point, h) in enumerate(queries):
        serial = route.project(point, hint_station=h)
        assert batch.station[lane].hex() == serial.station.hex(), lane
        assert batch.cross_track[lane].hex() == serial.cross_track.hex(), lane
        assert batch.heading[lane].hex() == serial.heading.hex(), lane


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

near_seam = st.floats(min_value=-45.0, max_value=45.0)
offsets = st.floats(min_value=-45.0, max_value=45.0)


@settings(max_examples=150, deadline=None)
@given(station=near_seam, off_x=offsets, off_y=offsets,
       hint_delta=st.floats(min_value=-5.0, max_value=5.0))
def test_polyline_matches_reference_near_seam(station, off_x, off_y,
                                              hint_delta):
    point = LOOP.sample(station).point + Vec2(off_x, off_y)
    hint = station + hint_delta
    assert bits(LOOP.project(point, hint_station=hint)) == bits(
        reference_project(LOOP, point, hint))


@settings(max_examples=60, deadline=None)
@given(station=st.floats(min_value=0.0, max_value=LOOP.length),
       off_x=offsets, off_y=offsets)
def test_polyline_matches_reference_anywhere(station, off_x, off_y):
    point = LOOP.sample(station).point + Vec2(off_x, off_y)
    for hint in (None, station):
        assert bits(LOOP.project(point, hint_station=hint)) == bits(
            reference_project(LOOP, point, hint))


@settings(max_examples=40, deadline=None)
@given(lanes=st.lists(
    st.tuples(st.floats(min_value=-60.0, max_value=LOOP.length + 60.0),
              offsets, offsets,
              st.sampled_from(["near", "far", "none"])),
    min_size=1, max_size=12))
def test_batch_matches_polyline_lane_by_lane(lanes):
    queries = []
    for station, off_x, off_y, kind in lanes:
        point = LOOP.sample(station).point + Vec2(off_x, off_y)
        hint = {"near": station, "far": station + LOOP.length / 2,
                "none": None}[kind]
        queries.append((point, hint))
    assert_batch_matches(LOOP, queries)


@settings(max_examples=80, deadline=None)
@given(station=near_seam, off_x=offsets, off_y=offsets)
def test_seam_window_agrees_with_full_scan_when_nearest_is_inside(
        station, off_x, off_y):
    # The wrapped window changes a result only when the global nearest
    # segment lies outside it.
    point = LOOP.sample(station).point + Vec2(off_x, off_y)
    full = LOOP.project(point)
    if full.segment_index in reference_candidates(LOOP, station):
        assert bits(LOOP.project(point, hint_station=station)) == bits(full)


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("hint", [None, 0.0, 1.0, 20.0, 150.0, 159.0, 160.0,
                                  -1.0])
@pytest.mark.parametrize("point", [Vec2(0.0, 0.0), Vec2(-1.0, -1.0)])
def test_seam_vertex_tie_goes_to_segment_zero(point, hint):
    # Segment 3 at t=1 and segment 0 at t=0 are exactly as far from the
    # seam vertex; the ascending scan keeps the lower index.
    proj = SQUARE.project(point, hint_station=hint)
    assert proj.segment_index == 0
    assert proj.station == 0.0
    assert bits(proj) == bits(reference_project(SQUARE, point, hint))
    assert_batch_matches(SQUARE, [(point, hint)])


@pytest.mark.parametrize("hint", [0.0, LOOP.length, float("nan"), None,
                                  -0.0, 2 * LOOP.length + 3.0])
@pytest.mark.parametrize("station", [0.0, 5.0, LOOP.length - 5.0])
def test_special_hints(hint, station):
    point = LOOP.sample(station).point + Vec2(0.4, -0.3)
    assert bits(LOOP.project(point, hint_station=hint)) == bits(
        reference_project(LOOP, point, hint))
    assert_batch_matches(LOOP, [(point, hint), (point, 100.0), (point, None)])


def test_nan_hint_searches_the_last_segment():
    proj = LOOP.project(LOOP.sample(100.0).point, hint_station=float("nan"))
    assert proj.segment_index == LOOP.num_segments - 1


@pytest.mark.parametrize("hint", [None, 0.0, 100.0, float("nan")])
def test_nan_point(hint):
    point = Vec2(float("nan"), 3.0)
    proj = LOOP.project(point, hint_station=hint)
    ref = reference_project(LOOP, point, hint)
    assert proj.segment_index == ref.segment_index
    assert bits(proj) == bits(ref)
    assert_batch_matches(LOOP, [(point, hint), (Vec2(1.0, 2.0), 3.0)])


@pytest.mark.parametrize("station", [0.0, 10.0, 25.0, 40.0])
@pytest.mark.parametrize("off", [(0.0, 0.0), (3.0, -2.0), (50.0, 45.0)])
def test_points_far_off_the_route(station, off):
    point = LOOP.sample(station).point + Vec2(*off)
    for hint in (station, station + 20.0, station - 20.0):
        assert bits(LOOP.project(point, hint_station=hint)) == bits(
            reference_project(LOOP, point, hint))


@pytest.mark.parametrize("hint", [0.0, 6.0, 24.0, 47.9, float("nan")])
@pytest.mark.parametrize("point", [Vec2(6.0, -1.0), Vec2(12.5, 6.0),
                                   Vec2(-20.0, 30.0)])
def test_short_closed_route_scans_every_segment(point, hint):
    # Shorter than two windows: a hinted window would overlap itself, so
    # every hint searches the whole route, like no hint at all.
    assert SHORT_LOOP.length < 2 * HINT_WINDOW
    proj = SHORT_LOOP.project(point, hint_station=hint)
    assert bits(proj) == bits(SHORT_LOOP.project(point))
    assert bits(proj) == bits(reference_project(SHORT_LOOP, point, hint))
    assert_batch_matches(SHORT_LOOP, [(point, hint), (point, None)])


def test_open_route_windows_clamp_to_the_ends():
    route = Polyline([Vec2(float(i), 0.1 * i * i) for i in range(80)])
    for station in (-10.0, 0.0, 15.0, route.length - 3.0, route.length + 9.0):
        point = route.sample(station).point + Vec2(0.5, -0.5)
        assert bits(route.project(point, hint_station=station)) == bits(
            reference_project(route, point, station))
    assert_batch_matches(route, [(Vec2(3.0, 1.0), -10.0),
                                 (Vec2(70.0, 400.0), 1e4),
                                 (Vec2(20.0, 2.0), None)])


def test_seam_window_is_two_disjoint_pieces():
    candidates = reference_candidates(LOOP, 5.0)
    nseg = LOOP.num_segments
    assert candidates[0] == 0 and candidates[-1] == nseg - 1
    assert len(candidates) < nseg // 2
    wrap, start, last = LOOP._hint_windows(  # noqa: SLF001
        np.array([5.0, LOOP.length - 5.0, 100.0]), np.ones(3, dtype=bool))
    for lane, hint in enumerate((5.0, LOOP.length - 5.0, 100.0)):
        got = (list(range(wrap[lane]))
               + list(range(start[lane], last[lane] + 1)))
        assert got == reference_candidates(LOOP, hint)
