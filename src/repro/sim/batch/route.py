"""Vectorized route queries: project/sample over all batch lanes at once.

:class:`BatchRoute` wraps one shared :class:`~repro.geom.polyline.Polyline`
(every lane in a batch drives the same route geometry) and answers the
three tracker queries for ``n`` query points per call.  It reads the
polyline's own segment arrays, and :meth:`BatchRoute.project` picks each
lane's segment with the same nearest-segment kernel that
``Polyline.project`` runs on one point
(:meth:`~repro.geom.polyline.Polyline.nearest_segments`, hint windows
wrapping across a closed route's seam included).  The derived floats
mirror the serial expressions — same associativity, same ``min``/``max``
semantics — so every lane is bit-identical to what the serial
``Polyline`` returns (the batch engine's differential contract).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geom.polyline import Polyline
from repro.sim.batch import ops

__all__ = ["BatchProjection", "BatchSample", "BatchRoute"]


@dataclass(frozen=True, slots=True)
class BatchProjection:
    """Per-lane arrays of the :class:`~repro.geom.polyline.Projection`
    fields the batch engine reads."""

    station: np.ndarray
    cross_track: np.ndarray
    heading: np.ndarray


@dataclass(frozen=True, slots=True)
class BatchSample:
    """Per-lane arrays of :class:`~repro.geom.polyline.PathSample` fields."""

    point_x: np.ndarray
    point_y: np.ndarray
    heading: np.ndarray
    curvature: np.ndarray
    station: np.ndarray


class BatchRoute:
    """Struct-of-arrays view of a polyline for batched queries."""

    def __init__(self, route: Polyline):
        self.route = route
        self.closed = route.closed
        self.length = route.length
        seg = route.segments
        self._ax = seg.start_x
        self._ay = seg.start_y
        self._dx = seg.dx
        self._dy = seg.dy
        self._seg_lengths = seg.lengths
        self._cum = seg.cum
        self._headings = seg.headings
        self._curvatures = seg.curvatures
        self.num_segments = route.num_segments
        # What project reads at each lane's segment, stacked so one gather
        # fetches it all.  np.cos/np.sin match math.cos/math.sin bitwise
        # on this platform, so precomputing the tangents is safe.
        self._at_segment = np.stack((
            seg.start_x, seg.start_y, seg.dx, seg.dy, seg.cum[:-1],
            seg.lengths, seg.headings, np.cos(seg.headings),
            np.sin(seg.headings),
        ))

    # ------------------------------------------------------------------
    def wrap_station(self, s: np.ndarray) -> np.ndarray:
        """Vectorized ``Polyline._wrap_station``."""
        if self.closed:
            return np.mod(s, self.length)
        return ops.pymin(ops.pymax(s, 0.0), self.length)

    def remaining(self, s: np.ndarray) -> np.ndarray:
        """Vectorized ``Polyline.remaining``."""
        if self.closed:
            return np.full(np.shape(s), self.length)
        return self.length - self.wrap_station(s)

    # ------------------------------------------------------------------
    def sample(self, stations: np.ndarray) -> BatchSample:
        """Vectorized ``Polyline.sample`` over per-lane stations."""
        s = self.wrap_station(stations)
        idx = np.searchsorted(self._cum, s, side="right") - 1
        idx = np.minimum(np.maximum(idx, 0), self.num_segments - 1)
        ds = s - self._cum[idx]
        frac = ds / self._seg_lengths[idx]
        px = self._ax[idx] + self._dx[idx] * frac
        py = self._ay[idx] + self._dy[idx] * frac
        heading = self._headings[idx]
        curvature = (1.0 - frac) * self._curvatures[idx] + frac * self._curvatures[idx + 1]
        return BatchSample(
            point_x=px, point_y=py, heading=heading, curvature=curvature, station=s
        )

    # ------------------------------------------------------------------
    def project(
        self,
        px: np.ndarray,
        py: np.ndarray,
        hint: np.ndarray,
        has_hint: np.ndarray,
    ) -> BatchProjection:
        """Vectorized ``Polyline.project`` with per-lane hint windows.

        Lanes with ``has_hint`` False (first step) search every segment,
        exactly like a serial ``hint_station=None`` call.
        """
        best, t = self.route.nearest_segments(px, py, hint, has_hint)
        ax, ay, dx, dy, cum, seg_len, heading, cos_h, sin_h = (
            self._at_segment.take(best, axis=1)
        )
        closest_x = ax + dx * t
        closest_y = ay + dy * t
        rx = px - closest_x
        ry = py - closest_y
        cross = cos_h * ry - sin_h * rx
        station = cum + t * seg_len
        return BatchProjection(
            station=station, cross_track=cross, heading=heading
        )
