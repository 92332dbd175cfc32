"""Arc-length parametrized polylines — the route primitive.

A :class:`Polyline` is an ordered sequence of waypoints with precomputed
cumulative arc length.  It supports the three queries a path tracker needs:

* ``project(point)`` — nearest point on the path, with signed cross-track
  error (positive = point is left of the path) and the arc-length station.
  Given a hint station, only the segments within :data:`HINT_WINDOW` of it
  are searched; on a closed path that window wraps across the seam.
* ``sample(s)`` — position/heading/curvature at arc-length station ``s``.
* ``lookahead(s, distance)`` — the point ``distance`` meters further along.

Headings and curvatures are derived from the segment geometry; curvature is
estimated per-vertex from the turning angle over the adjacent segment
lengths (a standard discrete approximation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from repro.geom.angles import angle_diff
from repro.geom.vec import Vec2

__all__ = ["HINT_WINDOW", "Polyline", "Projection", "PathSample", "SegmentArrays"]

HINT_WINDOW = 30.0
"""Meters either side of the hint station that a hinted projection searches."""

_WINDOW_OFFSETS = np.array([[-HINT_WINDOW], [HINT_WINDOW]])
"""Added to a row of stations, the window's ``lo`` and ``hi`` rows in one
call (``s + -W`` is ``s - W`` exactly)."""

_PICKLED = ("_closed", "_xy", "_seg_lengths", "_cum", "_headings",
            "_curvatures")
"""The attributes a pickled polyline keeps; the rest is derived on load."""


@dataclass(frozen=True, slots=True)
class Projection:
    """Result of projecting a point onto a polyline."""

    point: Vec2
    """Closest point on the path."""
    station: float
    """Arc length from the path start to :attr:`point`, meters."""
    cross_track: float
    """Signed lateral offset of the query point; positive = left of path."""
    heading: float
    """Path tangent heading at the projection, radians."""
    segment_index: int
    """Index of the segment containing the projection."""
    distance: float = 0.0
    """Euclidean distance from the query point to :attr:`point`.

    Equals ``|cross_track|`` in the interior of a segment but exceeds it
    when the projection clamps to a vertex (the query point then also has
    a longitudinal offset).
    """


@dataclass(frozen=True, slots=True)
class PathSample:
    """Path state at a given arc-length station."""

    point: Vec2
    heading: float
    curvature: float
    station: float


@dataclass(frozen=True, slots=True)
class SegmentArrays:
    """The per-segment arrays a :class:`Polyline` derives at construction.

    Segment ``i`` runs from vertex ``i`` to vertex ``i + 1``; ``cum`` (the
    station of each vertex) and ``curvatures`` are per vertex, one longer.
    The arrays are read-only and shared with the polyline.
    """

    start_x: np.ndarray
    start_y: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    lengths: np.ndarray
    cum: np.ndarray
    headings: np.ndarray
    curvatures: np.ndarray


class Polyline:
    """An open or closed polyline with arc-length parametrization.

    Args:
        points: at least two distinct waypoints, in order.
        closed: if True the path wraps around (last point connects back to
            the first) and stations are taken modulo the total length.

    Raises:
        ValueError: on fewer than two points or zero-length segments.
    """

    def __init__(self, points: Iterable[Vec2], closed: bool = False):
        pts = [p if isinstance(p, Vec2) else Vec2(*p) for p in points]
        if len(pts) < 2:
            raise ValueError("a polyline needs at least two points")
        if closed and pts[0].distance_to(pts[-1]) > 1e-9:
            pts.append(pts[0])
        self._points = pts
        self._closed = closed
        self._xy = np.array([[p.x, p.y] for p in pts], dtype=float)
        deltas = np.diff(self._xy, axis=0)
        seg_lengths = np.hypot(deltas[:, 0], deltas[:, 1])
        if np.any(seg_lengths < 1e-12):
            raise ValueError("polyline contains zero-length segments")
        self._seg_lengths = seg_lengths
        self._cum = np.concatenate(([0.0], np.cumsum(seg_lengths)))
        self._headings = np.arctan2(deltas[:, 1], deltas[:, 0])
        self._curvatures = self._vertex_curvatures()
        self._index_segments()

    def _index_segments(self) -> None:
        """Derive :attr:`segments` and the nearest-segment scan's table."""
        deltas = np.diff(self._xy, axis=0)
        dx, dy = deltas[:, 0], deltas[:, 1]
        # Rows ax, ay, dx, dy, |d|^2: what the nearest-segment scan reads
        # per candidate, stacked so one gather fetches all five.
        self._table = np.stack(
            (self._xy[:-1, 0], self._xy[:-1, 1], dx, dy, dx * dx + dy * dy)
        )
        nseg = len(self._seg_lengths)
        self._length = float(self._cum[-1])
        # A closed path shorter than two windows would overlap itself.
        self._full_scan = self._closed and self._length < 2 * HINT_WINDOW
        # min(j - 1, nseg - 1) for every searchsorted result j in
        # [0, nseg + 1]: the window arithmetic as one lookup.
        self._below = np.minimum(np.arange(-1, nseg + 1), nseg - 1)
        for array in (self._xy, self._table, self._seg_lengths, self._cum,
                      self._headings, self._curvatures, self._below):
            array.setflags(write=False)
        self._segments = SegmentArrays(
            *self._table[:4],  # start_x, start_y, dx, dy: read-only rows
            lengths=self._seg_lengths,
            cum=self._cum,
            headings=self._headings,
            curvatures=self._curvatures,
        )

    def __getstate__(self) -> dict:
        # The run cache pickles a route with every scored entry: store the
        # base arrays only and derive the rest on load.  The waypoints are
        # ``_xy`` again (unpickling a Vec2 per vertex costs far more).
        return {name: self.__dict__[name] for name in _PICKLED}

    def __setstate__(self, state: dict) -> None:
        # A state pickled before the waypoints were dropped still carries
        # ``_points``; it loads as it was.
        self.__dict__.update(state)
        if "_points" not in state:
            self._points = [Vec2(x, y) for x, y in self._xy.tolist()]
        self._index_segments()

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def points(self) -> Sequence[Vec2]:
        """The waypoints (read-only view)."""
        return tuple(self._points)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def length(self) -> float:
        """Total arc length, meters."""
        return self._length

    @property
    def num_segments(self) -> int:
        return len(self._seg_lengths)

    @property
    def segments(self) -> SegmentArrays:
        """The per-segment arrays (read-only, shared, not copied)."""
        return self._segments

    def start_pose(self) -> tuple[Vec2, float]:
        """Initial point and tangent heading (useful to spawn a vehicle)."""
        return self._points[0], float(self._headings[0])

    def end_point(self) -> Vec2:
        """The final waypoint (== first waypoint for closed paths)."""
        return self._points[-1]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _wrap_station(self, s: float) -> float:
        if self._closed:
            return float(s % self.length)
        return float(min(max(s, 0.0), self.length))

    def sample(self, station: float) -> PathSample:
        """Path point/heading/curvature at arc-length ``station``.

        Open paths clamp the station to ``[0, length]``; closed paths wrap.
        """
        s = self._wrap_station(station)
        idx = int(np.searchsorted(self._cum, s, side="right") - 1)
        idx = min(max(idx, 0), self.num_segments - 1)
        ds = s - self._cum[idx]
        frac = ds / self._seg_lengths[idx]
        a = self._points[idx]
        b = self._points[idx + 1]
        point = a.lerp(b, float(frac))
        heading = float(self._headings[idx])
        curvature = self._interp_curvature(idx, float(frac))
        return PathSample(point=point, heading=heading, curvature=curvature, station=s)

    def lookahead(self, station: float, distance: float) -> PathSample:
        """Path sample ``distance`` meters beyond ``station``."""
        return self.sample(station + distance)

    def project(self, point: Vec2, hint_station: float | None = None) -> Projection:
        """Project a point onto the path: the nearest point among the candidates.

        Args:
            point: query point.
            hint_station: if given, only segments within :data:`HINT_WINDOW`
                meters of this station are candidates (the window wraps
                across the seam of a closed path).  That keeps tracking
                cheap per step and avoids snapping to the far side of
                closed circuits.  Without a hint every segment is a
                candidate.
        """
        has_hint = hint_station is not None
        idx, t = self.nearest_segments(
            np.array([point.x]), np.array([point.y]),
            np.array([hint_station if has_hint else 0.0]),
            np.array([has_hint]),
        )
        idx = int(idx[0])
        t = float(t[0])
        a = self._points[idx]
        b = self._points[idx + 1]
        closest = a.lerp(b, t)
        heading = float(self._headings[idx])
        tangent = Vec2(math.cos(heading), math.sin(heading))
        cross = tangent.cross(point - closest)
        station = float(self._cum[idx] + t * self._seg_lengths[idx])
        return Projection(
            point=closest,
            station=station,
            cross_track=cross,
            heading=heading,
            segment_index=idx,
            distance=point.distance_to(closest),
        )

    def nearest_segments(
        self,
        px: np.ndarray,
        py: np.ndarray,
        hint: np.ndarray,
        has_hint: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest segment and clamped segment parameter per query point.

        The kernel behind :meth:`project` and the batch engine's
        ``BatchRoute.project``.  Query ``i`` scans the candidates of
        :meth:`_hint_windows` in ascending segment order and keeps the
        first minimum of the squared distance, so of two segments at
        exactly the same distance the lower index wins.

        Returns:
            ``(idx, t)``: per query, the segment index and the parameter
            ``t`` in ``[0, 1]`` of the closest point on it.
        """
        wrap, start, last = self._hint_windows(hint, has_hint)
        k = np.arange(int((wrap + (last - start)).max()) + 1)
        # Candidate k of query i is k itself while k < wrap[i], then
        # start[i] + (k - wrap[i]).  Slots past the query's own count
        # repeat its last candidate, which a first-minimum scan never
        # picks over the original.
        if np.count_nonzero(wrap):
            idx = np.where(k < wrap[:, None], k, k + (start - wrap)[:, None])
        else:
            idx = k + start[:, None]
        np.minimum(idx, last[:, None], out=idx)
        # One workspace per call for every per-candidate float: the
        # gathered rows ax, ay, dx, dy, |d|^2, then (x, y) pairs and t.
        # A single block keeps malloc from trimming and regrowing its
        # heap (page faults on every call) when a stacked call is wide.
        work = np.empty((8,) + idx.shape)
        cand = self._table.take(idx, axis=1, out=work[:5], mode="clip")
        start_xy, d_xy, len_sq = cand[:2], cand[2:4], cand[4]
        e, t = work[5:7], work[7]
        q = np.array((px, py))[:, :, None]
        # The scalar scan's expressions, evaluated in place, the x and y
        # halves together on stacked rows:
        # t = ((qx - ax) * dx + (qy - ay) * dy) / len_sq, then Python's
        # min(max(t, 0.0), 1.0), which keeps NaN (np.clip need not; the
        # upper clamp is np.minimum, which returns a NaN operand).
        np.subtract(q, start_xy, out=e)
        e *= d_xy
        np.add(e[0], e[1], out=t)
        t /= len_sq
        np.copyto(t, 0.0, where=t < 0.0)
        np.minimum(t, 1.0, out=t)
        # dist_sq = ex * ex + ey * ey with ex = qx - (ax + t * dx), ...
        np.multiply(t, d_xy, out=e)
        e += start_xy
        np.subtract(q, e, out=e)
        e *= e
        dist_sq = np.add(e[0], e[1], out=e[0])
        # argmin takes the first minimum: a strict-< best-so-far scan.
        off = dist_sq.argmin(axis=1)
        rows = np.arange(len(off))
        return idx[rows, off], t[rows, off]

    def remaining(self, station: float) -> float:
        """Arc length from ``station`` to the end (length for closed paths)."""
        if self._closed:
            return self.length
        return self.length - self._wrap_station(station)

    def resampled(self, spacing: float) -> "Polyline":
        """A new polyline with (approximately) uniform waypoint spacing."""
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        n = max(int(math.ceil(self.length / spacing)), 1)
        stations = [i * self.length / n for i in range(n + 1)]
        if self._closed:
            stations = stations[:-1]
        pts = [self.sample(s).point for s in stations]
        return Polyline(pts, closed=self._closed)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _hint_windows(
        self, hint: np.ndarray, has_hint: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidate segments per query: ``[0, wrap)`` then ``[start, last]``.

        A hinted query's window holds the segments within
        :data:`HINT_WINDOW` meters of its (wrapped) hint station.  On a
        closed path a window that crosses the seam wraps around it:
        ``[0, wrap)`` is the piece past station 0 and ``[start, nseg)``
        the piece before it.  Queries without a hint, and every query on
        a closed path shorter than two windows (whose window would
        overlap itself), get all segments.
        """
        nseg = len(self._seg_lengths)
        # np.count_nonzero: far cheaper than ndarray.all/any on a few rows.
        n_hinted = np.count_nonzero(has_hint)
        if not n_hinted or self._full_scan:
            n = len(hint)
            return (np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp),
                    np.full(n, nseg - 1, dtype=np.intp))
        length = self._length
        if self._closed:
            bounds = np.mod(hint, length) + _WINDOW_OFFSETS
            lo, hi = bounds
            lo_seam = lo < 0.0
            hi_seam = hi > length
            seam = lo_seam | hi_seam
            np.add(lo, length, out=lo, where=lo_seam)
            np.subtract(hi, length, out=hi, where=hi_seam)
        else:
            # min(max(hint, 0.0), length), then max(lo, 0.0) and
            # min(hi, length), each keeping NaN like Python's min/max.
            s = np.where(0.0 > hint, 0.0, hint)
            np.copyto(s, length, where=s > length)
            bounds = s + _WINDOW_OFFSETS
            lo, hi = bounds
            np.copyto(lo, 0.0, where=lo < 0.0)
            np.copyto(hi, length, where=hi > length)
        # lo >= 0, so only a NaN or an end station needs the clamp:
        # lo_idx = min(searchsorted(lo, "right") - 1, nseg - 1).
        lo_idx = self._below.take(self._cum.searchsorted(lo, side="right"))
        hi_idx = self._cum.searchsorted(hi, side="left")
        # min(max(hi_idx - 1, lo_idx), nseg - 1), as lo_idx <= nseg - 1.
        last = np.maximum(self._below.take(hi_idx), lo_idx)
        if self._closed:
            wrap = hi_idx * seam
            # A seam window's second piece starts no lower than its first
            # ends, so the two stay disjoint.
            start = np.maximum(lo_idx, wrap)
            np.copyto(last, nseg - 1, where=seam)
        else:
            wrap = np.zeros(len(hint), dtype=np.intp)
            start = lo_idx
        if n_hinted != len(has_hint):
            wrap *= has_hint
            start *= has_hint
            last = np.where(has_hint, last, nseg - 1)
        return wrap, start, last

    def _vertex_curvatures(self) -> np.ndarray:
        """Discrete curvature at each vertex from the turning angle."""
        n_vertices = len(self._points)
        curv = np.zeros(n_vertices)
        for i in range(1, n_vertices - 1):
            turn = angle_diff(float(self._headings[i]), float(self._headings[i - 1]))
            ds = 0.5 * (self._seg_lengths[i - 1] + self._seg_lengths[i])
            curv[i] = turn / ds
        if self._closed:
            turn = angle_diff(float(self._headings[0]), float(self._headings[-1]))
            ds = 0.5 * (self._seg_lengths[-1] + self._seg_lengths[0])
            curv[0] = curv[-1] = turn / ds
        else:
            curv[0] = curv[1] if n_vertices > 2 else 0.0
            curv[-1] = curv[-2] if n_vertices > 2 else 0.0
        return curv

    def _interp_curvature(self, seg_idx: int, frac: float) -> float:
        return float(
            (1.0 - frac) * self._curvatures[seg_idx]
            + frac * self._curvatures[seg_idx + 1]
        )

    def __repr__(self) -> str:
        kind = "closed" if self._closed else "open"
        return (
            f"Polyline({len(self._points)} pts, {kind}, "
            f"length={self.length:.1f} m)"
        )
