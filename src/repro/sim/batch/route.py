"""Vectorized route queries: project/sample over all batch lanes at once.

:class:`BatchRoute` wraps one shared :class:`~repro.geom.polyline.Polyline`
(every lane in a batch drives the same route geometry) and answers the
three tracker queries for ``n`` query points per call.  Each operation
mirrors the serial method expression-for-expression — same associativity,
same ``min``/``max`` semantics, same first-minimum tie-breaking — so the
segment choice and every derived float is bit-identical to what the serial
``Polyline`` returns per lane (the batch engine's differential contract).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geom.polyline import Polyline
from repro.sim.batch import ops

__all__ = ["BatchProjection", "BatchSample", "BatchRoute"]

_WINDOW = 30.0  # meters; matches Polyline.project's hint window


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
        xy = np.array([[p.x, p.y] for p in route.points], dtype=float)
        deltas = np.diff(xy, axis=0)
        self._ax = xy[:-1, 0].copy()
        self._ay = xy[:-1, 1].copy()
        self._dx = deltas[:, 0].copy()
        self._dy = deltas[:, 1].copy()
        # Same elementwise expression the serial scan evaluates per segment.
        self._seg_len_sq = self._dx * self._dx + self._dy * self._dy
        self._seg_lengths = np.hypot(deltas[:, 0], deltas[:, 1])
        self._cum = np.concatenate(([0.0], np.cumsum(self._seg_lengths)))
        self._headings = np.arctan2(deltas[:, 1], deltas[:, 0])
        # np.cos/np.sin match math.cos/math.sin bitwise on this platform,
        # so precomputing the tangents is safe.
        self._cos_h = np.cos(self._headings)
        self._sin_h = np.sin(self._headings)
        self._curvatures = self._vertex_curvatures(route)
        self.num_segments = len(self._seg_lengths)

    @staticmethod
    def _vertex_curvatures(route: Polyline) -> np.ndarray:
        # The polyline computed these once at construction; reuse the exact
        # values rather than re-deriving them.
        return np.asarray(route._curvatures, dtype=float)  # noqa: SLF001

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
        idx = np.clip(idx, 0, self.num_segments - 1)
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
        n = len(px)
        nseg = self.num_segments
        lo_idx = np.zeros(n, dtype=np.int64)
        hi_idx = np.full(n, nseg, dtype=np.int64)
        if has_hint.any():
            s = self.wrap_station(hint)
            lo = s - _WINDOW
            hi = s + _WINDOW
            windowed = has_hint.copy()
            if self.closed:
                # Seam-wrapping windows fall back to a full search.
                windowed &= ~((lo < 0) | (hi > self.length))
            if windowed.any():
                lo_w = np.searchsorted(
                    self._cum, ops.pymax(lo, 0.0), side="right"
                ) - 1
                hi_w = np.searchsorted(
                    self._cum, ops.pymin(hi, self.length), side="left"
                )
                lo_w = np.clip(lo_w, 0, nseg - 1)
                hi_w = np.clip(hi_w, lo_w + 1, nseg)
                lo_idx = np.where(windowed, lo_w, lo_idx)
                hi_idx = np.where(windowed, hi_w, hi_idx)

        width = int((hi_idx - lo_idx).max())
        idx = lo_idx[:, None] + np.arange(width)
        valid = idx < hi_idx[:, None]
        idx_c = np.where(valid, idx, 0)

        ax = self._ax[idx_c]
        ay = self._ay[idx_c]
        dx = self._dx[idx_c]
        dy = self._dy[idx_c]
        pxc = px[:, None]
        pyc = py[:, None]
        t = ((pxc - ax) * dx + (pyc - ay) * dy) / self._seg_len_sq[idx_c]
        t = ops.pymin(ops.pymax(t, 0.0), 1.0)
        cx = ax + t * dx
        cy = ay + t * dy
        ex = pxc - cx
        ey = pyc - cy
        dist_sq = ex * ex + ey * ey
        dist_sq = np.where(valid, dist_sq, np.inf)
        # argmin takes the first minimum, matching the serial strict-<
        # best-so-far scan over ascending segment indices.
        off = np.argmin(dist_sq, axis=1)
        rows = np.arange(n)
        best = lo_idx + off
        t_best = t[rows, off]

        closest_x = self._ax[best] + self._dx[best] * t_best
        closest_y = self._ay[best] + self._dy[best] * t_best
        heading = self._headings[best]
        rx = px - closest_x
        ry = py - closest_y
        cross = self._cos_h[best] * ry - self._sin_h[best] * rx
        station = self._cum[best] + t_best * self._seg_lengths[best]
        return BatchProjection(
            station=station, cross_track=cross, heading=heading
        )
