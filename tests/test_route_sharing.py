"""Routes are shared, read-only values: pickling and memoized constructors.

A pickled :class:`~repro.geom.polyline.Polyline` keeps its base arrays and
rebuilds everything else on load, the waypoints included; a state pickled
while the waypoints were still stored (every older run-cache entry) loads
as before.  The route constructors return one shared, read-only polyline
per argument set.
"""

import math
import pickle

import numpy as np
import pytest

from repro.geom.polyline import Polyline
from repro.geom.routes import (
    arc_route,
    lane_change_route,
    s_curve_route,
    slalom_route,
    straight_route,
    urban_loop_route,
)
from repro.geom.vec import Vec2
from repro.sim.scenario import standard_scenarios

ROUTES = {
    "open": s_curve_route(),
    "closed": urban_loop_route(),
    "int_points": Polyline([Vec2(0, 0), Vec2(40, 0), Vec2(40, 40)]),
}

CONSTRUCTORS = (straight_route, arc_route, s_curve_route, slalom_route,
                lane_change_route, urban_loop_route)


def assert_same_route(a: Polyline, b: Polyline) -> None:
    assert a.closed == b.closed
    assert a.points == b.points
    for name in ("start_x", "start_y", "dx", "dy", "lengths", "cum",
                 "headings", "curvatures"):
        x, y = getattr(a.segments, name), getattr(b.segments, name)
        assert x.tobytes() == y.tobytes(), name
    assert a.length == b.length
    for station in (0.0, 3.3, a.length / 2, a.length - 0.1):
        point = a.sample(station).point + Vec2(0.4, -1.7)
        assert a.project(point, station) == b.project(point, station)
        assert a.project(point) == b.project(point)
        assert a.sample(station) == b.sample(station)


@pytest.mark.parametrize("kind", sorted(ROUTES))
def test_pickle_round_trip(kind):
    route = ROUTES[kind]
    loaded = pickle.loads(pickle.dumps(route))
    assert_same_route(route, loaded)
    for p in loaded.points:
        assert type(p.x) is float and type(p.y) is float


@pytest.mark.parametrize("kind", sorted(ROUTES))
def test_pickled_state_has_no_waypoint_objects(kind):
    state = ROUTES[kind].__getstate__()
    assert "_points" not in state
    assert "_segments" not in state and "_table" not in state
    assert all(isinstance(v, (bool, np.ndarray)) for v in state.values())


@pytest.mark.parametrize("kind", sorted(ROUTES))
def test_state_with_waypoints_still_loads(kind):
    # The layout an older pickle carries: the waypoints plus base arrays.
    route = ROUTES[kind]
    old = {"_points": list(route.points), "_closed": route.closed}
    old.update((name, getattr(route, name).copy()) for name in (
        "_xy", "_seg_lengths", "_cum", "_headings", "_curvatures"))
    loaded = Polyline.__new__(Polyline)
    loaded.__setstate__(old)
    assert_same_route(route, loaded)
    assert loaded.points == route.points


def test_loaded_route_is_read_only():
    loaded = pickle.loads(pickle.dumps(urban_loop_route()))
    with pytest.raises(ValueError):
        loaded.segments.cum[0] = 1.0
    with pytest.raises(ValueError):
        loaded._xy[0, 0] = 1.0  # noqa: SLF001


@pytest.mark.parametrize("make_route", CONSTRUCTORS,
                         ids=lambda f: f.__name__)
def test_constructor_returns_one_shared_read_only_route(make_route):
    route = make_route()
    assert make_route() is route
    seg = route.segments
    for array in (seg.start_x, seg.dx, seg.lengths, seg.cum, seg.headings,
                  seg.curvatures):
        assert not array.flags.writeable
    assert not route._xy.flags.writeable  # noqa: SLF001
    assert isinstance(route.points, tuple)


def test_constructors_key_on_their_arguments():
    assert straight_route(length=120.0) is straight_route(length=120.0)
    assert straight_route(length=120.0) is not straight_route(length=121.0)
    assert straight_route(length=121.0).length == pytest.approx(121.0)
    assert arc_route(radius=30.0, sweep=math.pi / 2) is not arc_route()
    with pytest.raises(ValueError):
        straight_route(length=-1.0)


def test_scenario_sets_share_routes():
    first = standard_scenarios(seed=1)
    second = standard_scenarios(seed=2)
    for name, scenario in first.items():
        assert scenario.route is second[name].route, name
