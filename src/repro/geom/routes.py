"""Reference routes for the evaluation scenarios.

Each constructor returns a densely sampled :class:`~repro.geom.polyline.Polyline`
that plays the role of the CARLA waypoint route the paper's vehicle follows.
All routes start at the origin heading along +x unless noted, so scenarios
can spawn the vehicle from ``route.start_pose()``.

Every constructor is memoized: equal arguments return the same polyline.
Sharing is safe because a polyline is read-only (no method mutates it and
its arrays refuse writes).  Scenario sets built more than once then share
their routes, and the batch engine's compatibility check sees the same
object instead of comparing geometry.
"""

from __future__ import annotations

import functools
import math

from repro.geom.polyline import Polyline
from repro.geom.vec import Vec2

__all__ = [
    "straight_route",
    "arc_route",
    "s_curve_route",
    "slalom_route",
    "lane_change_route",
    "urban_loop_route",
]

_DEFAULT_SPACING = 1.0  # meters between generated waypoints

_memoized = functools.lru_cache(maxsize=32)


@_memoized
def straight_route(length: float = 200.0, spacing: float = _DEFAULT_SPACING) -> Polyline:
    """A straight segment along +x of the given length."""
    if length <= 0:
        raise ValueError("length must be positive")
    n = max(int(round(length / spacing)), 1)
    pts = [Vec2(i * length / n, 0.0) for i in range(n + 1)]
    return Polyline(pts)


@_memoized
def arc_route(
    radius: float = 40.0,
    sweep: float = math.pi,
    spacing: float = _DEFAULT_SPACING,
    lead_in: float = 20.0,
) -> Polyline:
    """A straight lead-in followed by a constant-radius left turn.

    Args:
        radius: turn radius in meters (positive = left turn).
        sweep: swept angle of the arc, radians.
        spacing: approximate waypoint spacing.
        lead_in: straight distance before the arc starts.
    """
    if radius <= 0 or sweep <= 0:
        raise ValueError("radius and sweep must be positive")
    pts = [Vec2(0.0, 0.0)]
    n_lead = max(int(round(lead_in / spacing)), 1)
    for i in range(1, n_lead + 1):
        pts.append(Vec2(i * lead_in / n_lead, 0.0))
    center = Vec2(lead_in, radius)
    arc_len = radius * sweep
    n_arc = max(int(round(arc_len / spacing)), 2)
    for i in range(1, n_arc + 1):
        theta = -math.pi / 2.0 + sweep * i / n_arc
        pts.append(center + Vec2.from_polar(radius, theta))
    return Polyline(pts)


@_memoized
def s_curve_route(
    length: float = 240.0,
    amplitude: float = 12.0,
    periods: float = 1.5,
    spacing: float = _DEFAULT_SPACING,
) -> Polyline:
    """A sinusoidal sweep: alternating left/right curvature.

    The route is ``y = A * sin(2*pi*periods*x/length)`` sampled along x, a
    standard curvature-rich tracking benchmark.
    """
    if length <= 0 or amplitude < 0:
        raise ValueError("length must be positive and amplitude non-negative")
    n = max(int(round(length / spacing)), 2)
    omega = 2.0 * math.pi * periods / length
    pts = [Vec2(x, amplitude * math.sin(omega * x)) for x in
           (i * length / n for i in range(n + 1))]
    return Polyline(pts)


@_memoized
def slalom_route(
    gate_spacing: float = 30.0,
    num_gates: int = 6,
    offset: float = 3.0,
    spacing: float = _DEFAULT_SPACING,
) -> Polyline:
    """A slalom weaving around ``num_gates`` alternating lateral offsets.

    Smooth transitions are produced with a cosine blend between gates, which
    keeps heading continuous (unlike a raw zig-zag polyline).
    """
    if num_gates < 1:
        raise ValueError("need at least one gate")
    length = gate_spacing * (num_gates + 1)
    n = max(int(round(length / spacing)), 2)

    def lateral(x: float) -> float:
        gate = x / gate_spacing
        return offset * math.sin(math.pi * gate)

    pts = [Vec2(x, lateral(x)) for x in (i * length / n for i in range(n + 1))]
    return Polyline(pts)


@_memoized
def lane_change_route(
    approach: float = 60.0,
    maneuver: float = 40.0,
    lane_offset: float = 3.5,
    tail: float = 60.0,
    spacing: float = _DEFAULT_SPACING,
) -> Polyline:
    """A single lane change: straight, smooth lateral shift, straight.

    The lateral shift uses a smoothstep (C1-continuous) profile, matching
    how a lane-change reference is generated by a behavior planner.
    """
    length = approach + maneuver + tail
    n = max(int(round(length / spacing)), 2)

    def lateral(x: float) -> float:
        if x <= approach:
            return 0.0
        if x >= approach + maneuver:
            return lane_offset
        t = (x - approach) / maneuver
        return lane_offset * (3.0 * t * t - 2.0 * t * t * t)

    pts = [Vec2(x, lateral(x)) for x in (i * length / n for i in range(n + 1))]
    return Polyline(pts)


@_memoized
def urban_loop_route(
    straight: float = 120.0,
    corner_radius: float = 18.0,
    width: float = 80.0,
    spacing: float = _DEFAULT_SPACING,
) -> Polyline:
    """A closed rounded-rectangle circuit — the "urban block" scenario.

    Two long straights of ``straight`` meters joined by two short straights
    of ``width`` meters, with quarter-circle corners of ``corner_radius``.
    The loop is traversed counter-clockwise starting on the bottom straight.
    """
    if corner_radius <= 0:
        raise ValueError("corner_radius must be positive")
    if straight < 2 * corner_radius or width < 2 * corner_radius:
        raise ValueError("straights must be longer than twice the corner radius")
    pts: list[Vec2] = []

    def add_straight(a: Vec2, b: Vec2) -> None:
        dist = a.distance_to(b)
        n = max(int(round(dist / spacing)), 1)
        for i in range(n):
            pts.append(a.lerp(b, i / n))

    def add_corner(center: Vec2, start_angle: float) -> None:
        arc_len = corner_radius * math.pi / 2.0
        n = max(int(round(arc_len / spacing)), 3)
        for i in range(n):
            theta = start_angle + (math.pi / 2.0) * i / n
            pts.append(center + Vec2.from_polar(corner_radius, theta))

    r = corner_radius
    sx = straight - 2 * r  # flat part of the long sides
    wy = width - 2 * r  # flat part of the short sides
    # Bottom straight (left -> right), starting after the bottom-left corner.
    add_straight(Vec2(0.0, 0.0), Vec2(sx, 0.0))
    add_corner(Vec2(sx, r), -math.pi / 2.0)
    # Right side going up.
    add_straight(Vec2(sx + r, r), Vec2(sx + r, r + wy))
    add_corner(Vec2(sx, r + wy), 0.0)
    # Top straight (right -> left).
    add_straight(Vec2(sx, width), Vec2(0.0, width))
    add_corner(Vec2(0.0, r + wy), math.pi / 2.0)
    # Left side going down.
    add_straight(Vec2(-r, r + wy), Vec2(-r, r))
    add_corner(Vec2(0.0, r), math.pi)
    return Polyline(pts, closed=True)
