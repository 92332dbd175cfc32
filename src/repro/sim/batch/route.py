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
        self._cum = seg.cum
        self.num_segments = nseg = route.num_segments
        # min(max(j - 1, 0), nseg - 1) for every searchsorted result j in
        # [0, nseg + 1]: the segment a station falls on, as one lookup.
        self._segment_of = np.clip(np.arange(-1, nseg + 1), 0, nseg - 1)
        # What each query reads at its segment, stacked so one gather
        # fetches it all.  np.cos/np.sin match math.cos/math.sin bitwise
        # on this platform, so precomputing the tangents is safe.
        self._at_segment = np.stack((
            seg.start_x, seg.start_y, seg.dx, seg.dy, seg.cum[:-1],
            seg.lengths, seg.headings, np.cos(seg.headings),
            np.sin(seg.headings),
        ))
        self._at_station = np.stack((
            seg.cum[:-1], seg.lengths, seg.curvatures[:-1],
            seg.curvatures[1:], seg.start_x, seg.start_y, seg.dx, seg.dy,
            seg.headings,
        ))

    # ------------------------------------------------------------------
    def wrap_station(self, s: np.ndarray) -> np.ndarray:
        """Vectorized ``Polyline._wrap_station``."""
        if self.closed:
            return np.mod(s, self.length)
        s = np.where(0.0 > s, 0.0, s)
        np.copyto(s, self.length, where=s > self.length)
        return s

    def remaining(self, s: np.ndarray) -> np.ndarray:
        """Vectorized ``Polyline.remaining``."""
        if self.closed:
            return np.full(np.shape(s), self.length)
        return self.length - self.wrap_station(s)

    # ------------------------------------------------------------------
    def _locate(self, stations: np.ndarray, rows: int):
        """The wrapped stations, the first ``rows`` rows of
        ``_at_station`` at their segments, and the fraction along each."""
        s = self.wrap_station(stations)
        idx = self._segment_of.take(
            self._cum.searchsorted(s, side="right"))
        at = self._at_station[:rows].take(idx, axis=1)
        frac = (s - at[0]) / at[1]
        return s, at, frac

    def sample(self, stations: np.ndarray) -> BatchSample:
        """Vectorized ``Polyline.sample`` over per-lane stations."""
        s, at, frac = self._locate(stations, 9)
        _, _, curv_a, curv_b, ax, ay, dx, dy, heading = at
        return BatchSample(
            point_x=ax + dx * frac,
            point_y=ay + dy * frac,
            heading=heading,
            curvature=(1.0 - frac) * curv_a + frac * curv_b,
            station=s,
        )

    def curvature(self, stations: np.ndarray) -> np.ndarray:
        """``sample(stations).curvature`` without the rest of the sample."""
        _, at, frac = self._locate(stations, 4)
        return (1.0 - frac) * at[2] + frac * at[3]

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

    def project_many(self, queries: list) -> list[BatchProjection]:
        """:meth:`project` of several ``(px, py, hint, has_hint)`` query
        sets with one kernel call, one projection per set.

        Every row of the kernel is independent of the others (its own
        window, padding that repeats its own last candidate, a
        first-minimum ``argmin``), so each set gets exactly what a call
        of its own returns.
        """
        proj = self.project(*(np.concatenate(column)
                              for column in zip(*queries)))
        out = []
        lo = 0
        for query in queries:
            hi = lo + len(query[0])
            out.append(BatchProjection(station=proj.station[lo:hi],
                                       cross_track=proj.cross_track[lo:hi],
                                       heading=proj.heading[lo:hi]))
            lo = hi
        return out
