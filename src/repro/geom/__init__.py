"""2-D geometry substrate used by the simulator, controllers and assertions.

The package provides the small set of geometric primitives an autonomous
driving control stack needs:

* :mod:`repro.geom.vec` — immutable 2-D vectors and planar poses.
* :mod:`repro.geom.angles` — angle normalization and circular statistics.
* :mod:`repro.geom.polyline` — arc-length parametrized polylines with
  projection, interpolation and curvature queries (the route primitive).
* :mod:`repro.geom.routes` — constructors for the reference routes used by
  the evaluation scenarios (straight, arc, s-curve, slalom, urban loop).
"""

from repro._lazy import lazy_exports

__all__ = [
    "Vec2",
    "Pose",
    "normalize_angle",
    "angle_diff",
    "unwrap_angles",
    "circular_mean",
    "Polyline",
    "Projection",
    "PathSample",
    "straight_route",
    "arc_route",
    "s_curve_route",
    "slalom_route",
    "lane_change_route",
    "urban_loop_route",
]

__getattr__ = lazy_exports(__name__, {
    ".angles": (
        "angle_diff", "circular_mean", "normalize_angle", "unwrap_angles",
    ),
    ".polyline": ("PathSample", "Polyline", "Projection"),
    ".routes": (
        "arc_route", "lane_change_route", "s_curve_route", "slalom_route",
        "straight_route", "urban_loop_route",
    ),
    ".vec": ("Pose", "Vec2"),
})
