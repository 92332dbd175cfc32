"""The built-in assertion catalog.

Each assertion encodes one domain-expert expectation about a healthy AD
control loop.  The catalog deliberately mixes four families (the E8
ablation quantifies their complementary value):

* **behaviour** (A1-A3, A12-A15) — the vehicle's actual motion stays within
  lane/comfort/progress envelopes.  These use ground-truth channels where
  available (we are debugging in simulation, as the paper does in CARLA)
  and detect that *something* is wrong, slowly.
* **consistency** (A4-A9) — redundant observable channels must agree:
  GPS vs. dead reckoning, GPS-derived speed vs. wheel speed, gyro vs.
  compass, EKF innovations vs. their chi-square envelope.  These localize
  *which channel* lies, and they fire before the vehicle visibly deviates.
* **stability** (A10-A11, A13) — the control loop itself behaves: progress
  is made, steering does not limit-cycle or saturate persistently.
* **actuation** (A16) — the plant executes what the controller commanded.

A sixth, later-authored group scores *graceful degradation* under benign
sensor faults (:mod:`repro.faults`): A21 bounds tracking error inside
fault windows, A22 demands a safe-stop response to multi-sensor loss.
Both read only trace channels, so they judge supervised and unsupervised
stacks alike — experiment E14 is built on that symmetry.

Every assertion documents its rationale, its threshold provenance, and the
attack/fault signatures it is designed to catch.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.core.dsl import (
    BoundAssertion,
    TraceAssertion,
    WindowBuffer,
    WindowMeanBoundAssertion,
    carry_sums,
    window_means,
)
from repro.geom.angles import angle_diff
from repro.trace.schema import TraceColumns, TraceRecord

__all__ = [
    "default_catalog",
    "make_assertion",
    "CATALOG_IDS",
    "CATALOG_STAGES",
]

_SETTLE = 8.0  # seconds of launch transient excluded from behaviour checks

def _intervals(t: np.ndarray, last_t: float | None) -> np.ndarray:
    """``t - previous t`` per record, the first against the carried
    ``last_t`` (0.0 when there is none: the per-step code then skips that
    record's increments, and the kernels restart there instead)."""
    prev = np.empty_like(t)
    prev[0] = t[0] if last_t is None else last_t
    prev[1:] = t[:-1]
    return t - prev


def _restart_sums(steps: np.ndarray, restart: np.ndarray,
                  values: np.ndarray | None, carry) -> np.ndarray:
    """Running sums that restart: ``out[..., i]`` is ``values[..., i]``
    where ``restart[i]``, else ``out[..., i - 1] + steps[..., i]``
    (``carry`` before the first record).

    ``steps`` and ``values`` are ``(n,)`` or ``(k, n)`` (k sums sharing
    one restart pattern, ``carry`` then has k entries; ``values`` is only
    read where ``restart`` is set).  Each run between restarts is one
    seeded cumsum, which adds strictly left to right, so every element
    equals the scalar ``acc += step`` / ``acc = value`` sequence bit for
    bit.  A sum that restarts every few records costs less as
    :func:`_stepped`.
    """
    n = restart.size
    starts = restart.nonzero()[0].tolist()
    out = np.empty_like(steps)
    first = starts[0] if starts else n
    if first:
        head = np.empty(steps.shape[:-1] + (first + 1,))
        head[..., 0] = carry
        head[..., 1:] = steps[..., :first]
        out[..., :first] = head.cumsum(axis=-1)[..., 1:]
    for s, e in zip(starts, starts[1:] + [n]):
        run = steps[..., s:e].copy()
        run[..., 0] = values[..., s]
        out[..., s:e] = run.cumsum(axis=-1)
    return out


def _stepped(steps: list, flags: list, values: list, acc) -> np.ndarray:
    """One :func:`_restart_sums` sum over plain floats: the scalar loop
    itself."""
    out = []
    for step, is_start, value in zip(steps, flags, values):
        acc = value if is_start else acc + step
        out.append(acc)
    return np.array(out, dtype=np.float64)


def _window_columns(window: list, width: int) -> tuple[np.ndarray, ...]:
    """A per-step window, a list of ``width``-tuples of floats, as one
    array per tuple position."""
    flat = np.fromiter(itertools.chain.from_iterable(window), np.float64,
                       width * len(window))
    return tuple(flat.reshape(-1, width).T)


def _window_rows(*columns: np.ndarray) -> list[tuple]:
    """The list of tuples :meth:`margin` keeps, from a kernel's window
    columns (the same Python floats)."""
    return list(zip(*(column.tolist() for column in columns)))


def _hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Elementwise ``math.hypot`` (``np.hypot`` differs in the last ulp)."""
    return np.array(list(map(math.hypot, dx.tolist(), dy.tolist())),
                    dtype=np.float64)


# ---------------------------------------------------------------------------
# Consistency assertions (custom state machines)
# ---------------------------------------------------------------------------
class GpsDeadReckoningAssertion(TraceAssertion):
    """A4 — GPS fixes must agree with wheel/compass dead reckoning.

    The monitor integrates wheel speed along compass heading from a
    periodically re-anchored origin; every fresh GPS fix is compared to
    the dead-reckoned position.  The allowed divergence grows slowly with
    distance travelled (odometry scale error + heading noise) from a base
    of ~3x GPS noise.

    Signatures: a *bias/jump* spoof violates at onset only (offset is
    consistent afterwards); a *drift* spoof re-violates every anchor
    window; *freeze* and *replay* diverge as the vehicle moves.
    """

    def __init__(self, anchor_window: float = 8.0, base_bound: float = 1.4,
                 per_meter: float = 0.015, min_travel: float = 3.0):
        super().__init__(
            "A4", "GPS / dead-reckoning consistency", "consistency",
            settle_time=2.0, debounce_on=2, debounce_off=10,
        )
        self.anchor_window = anchor_window
        self.base_bound = base_bound
        self.per_meter = per_meter
        self.min_travel = min_travel
        self.on_reset()

    def on_reset(self) -> None:
        self._anchor: tuple[float, float, float] | None = None  # (t, x, y)
        self._dr_x = 0.0
        self._dr_y = 0.0
        self._dist = 0.0
        self._heading: float | None = None
        self._last_t: float | None = None

    def margin(self, record: TraceRecord) -> float | None:
        # Heading for dead reckoning: compass-anchored, gyro-propagated
        # between compass samples (removes the staleness error a raw
        # zero-order-held compass would add in corners).
        if record.compass_fresh or self._heading is None:
            self._heading = record.compass_yaw
        if self._last_t is not None:
            dt = record.t - self._last_t
            if not record.compass_fresh:
                self._heading += record.imu_yaw_rate * dt
            mid_heading = self._heading - 0.5 * record.imu_yaw_rate * dt
            step = record.odom_speed * dt
            self._dr_x += step * math.cos(mid_heading)
            self._dr_y += step * math.sin(mid_heading)
            self._dist += abs(step)
        self._last_t = record.t

        if not record.gps_fresh:
            return None
        if self._anchor is None or (record.t - self._anchor[0]) >= self.anchor_window:
            self._anchor = (record.t, record.gps_x, record.gps_y)
            self._dr_x = record.gps_x
            self._dr_y = record.gps_y
            self._dist = 0.0
            return None
        if self._dist < self.min_travel:
            # A stationary (or barely moved) vehicle gives the comparison
            # no leverage: the residual is pure receiver noise/walk.
            return None
        error = math.hypot(record.gps_x - self._dr_x, record.gps_y - self._dr_y)
        bound = self.base_bound + self.per_meter * self._dist
        return 1.0 - error / bound

    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        t = cols.get("t")
        n = t.size
        yaw_rate = cols.get("imu_yaw_rate")
        gps_x, gps_y = cols.get("gps_x"), cols.get("gps_y")
        gps_fresh = cols.get("gps_fresh")
        first = self._last_t is None
        dt = _intervals(t, self._last_t)
        # Heading: restarts at each fresh compass sample (and at the very
        # first record), gyro-propagated in between: a restart every few
        # records, so the scalar loop.
        restart = cols.get("compass_fresh").tolist()
        if self._heading is None:
            restart[0] = True
        heading = _stepped((yaw_rate * dt).tolist(), restart,
                           cols.get("compass_yaw").tolist(), self._heading)
        # Anchors: the first fix at least anchor_window after the last
        # (a chain over the fix times).
        fixes = gps_fresh.nonzero()[0]
        anchor_t = None if self._anchor is None else self._anchor[0]
        picked = []
        if fixes.size and (anchor_t is None or t[fixes[-1]] - anchor_t
                           >= self.anchor_window):  # else none is due
            for i, fix_t in enumerate(t[fixes].tolist()):
                if anchor_t is None or fix_t - anchor_t >= self.anchor_window:
                    picked.append(i)
                    anchor_t = fix_t
        anchors = fixes[picked]
        # Dead reckoning (x, y) and distance: one increment row each,
        # restarting at anchors (seconds apart, so seeded cumsums); the
        # first record ever adds nothing.
        step = cols.get("odom_speed") * dt
        mid_heading = heading - 0.5 * yaw_rate * dt
        increments = np.empty((3, n))
        increments[0] = step * np.cos(mid_heading)
        increments[1] = step * np.sin(mid_heading)
        increments[2] = np.abs(step)
        carry = (self._dr_x, self._dr_y, self._dist)
        is_anchor = np.zeros(n, dtype=bool)
        is_anchor[anchors] = True
        restart = is_anchor
        values = None  # read only where a sum restarts
        if anchors.size or first:
            values = np.empty((3, n))
            values[0], values[1], values[2] = gps_x, gps_y, 0.0
        if first:
            restart = is_anchor.copy()
            restart[0] = True
            if not is_anchor[0]:
                values[:, 0] = carry
        dr_x, dr_y, dist = _restart_sums(increments, restart, values, carry)
        if anchors.size:
            a = anchors[-1]
            self._anchor = (float(t[a]), float(gps_x[a]), float(gps_y[a]))
        self._heading = float(heading[-1])
        self._dr_x, self._dr_y = float(dr_x[-1]), float(dr_y[-1])
        self._dist = float(dist[-1])
        self._last_t = float(t[-1])
        applicable = gps_fresh & ~is_anchor & ~(dist < self.min_travel)
        margins = np.zeros(n)
        rows = applicable.nonzero()[0]
        if rows.size:
            error = _hypot(gps_x[rows] - dr_x[rows], gps_y[rows] - dr_y[rows])
            bound = self.base_bound + self.per_meter * dist[rows]
            margins[rows] = 1.0 - error / bound
        return margins, applicable


class GpsJumpAssertion(TraceAssertion):
    """A5 — consecutive GPS fixes must be kinematically plausible.

    The distance between consecutive fixes is bounded by the wheel-speed
    envelope over the fix interval plus a noise allowance.  Catches
    jump-and-hold spoofs, replay onsets, and jamming-grade noise; a slow
    drift is (by design) invisible to this assertion.
    """

    def __init__(self, speed_margin: float = 3.0, base_allowance: float = 2.2):
        super().__init__(
            "A5", "GPS jump plausibility", "consistency",
            settle_time=1.0, debounce_on=1, debounce_off=3,
        )
        self.speed_margin = speed_margin
        self.base_allowance = base_allowance
        self.on_reset()

    def on_reset(self) -> None:
        self._prev_fix: tuple[float, float, float] | None = None

    def margin(self, record: TraceRecord) -> float | None:
        if not record.gps_fresh:
            return None
        prev = self._prev_fix
        self._prev_fix = (record.t, record.gps_x, record.gps_y)
        if prev is None:
            return None
        dt_fix = record.t - prev[0]
        if dt_fix <= 0:
            return None
        dist = math.hypot(record.gps_x - prev[1], record.gps_y - prev[2])
        bound = (record.odom_speed + self.speed_margin) * dt_fix + self.base_allowance
        return 1.0 - dist / bound

    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        margins = np.zeros(cols.n, dtype=np.float64)
        applicable = np.zeros(cols.n, dtype=bool)
        rows = cols.gps_fresh.nonzero()[0]
        if not rows.size:
            return margins, applicable
        # Each fix pairs with the one before it, the first with the
        # carried fix.
        fix_t, fix_x, fix_y = cols.t[rows], cols.gps_x[rows], cols.gps_y[rows]
        prev = self._prev_fix
        self._prev_fix = (float(fix_t[-1]), float(fix_x[-1]),
                          float(fix_y[-1]))
        if prev is None:
            prev_t, prev_x, prev_y = fix_t[:-1], fix_x[:-1], fix_y[:-1]
            rows, fix_t, fix_x, fix_y = rows[1:], fix_t[1:], fix_x[1:], fix_y[1:]
        else:
            prev_t, prev_x, prev_y = (np.concatenate(([p], c[:-1])) for p, c
                                      in zip(prev, (fix_t, fix_x, fix_y)))
        dt_fix = fix_t - prev_t
        ok = ~(dt_fix <= 0)
        rows, dt_fix = rows[ok], dt_fix[ok]
        dist = _hypot(fix_x[ok] - prev_x[ok], fix_y[ok] - prev_y[ok])
        bound = ((cols.odom_speed[rows] + self.speed_margin) * dt_fix
                 + self.base_allowance)
        margins[rows] = 1.0 - dist / bound
        applicable[rows] = True
        return margins, applicable


class GpsFreezeAssertion(TraceAssertion):
    """A6 — a moving vehicle must see moving GPS fixes.

    Tracks wheel-odometry distance accumulated since the last material GPS
    position change; a frozen receiver lets that distance grow without
    bound.  Noise cannot fake movement out of a literally frozen fix, and
    genuine fixes at driving speed move far more than the change
    threshold per fix interval.
    """

    def __init__(self, move_threshold: float = 0.25, allowed_distance: float = 6.0):
        super().__init__(
            "A6", "GPS freeze detection", "consistency",
            settle_time=2.0, debounce_on=3, debounce_off=5,
        )
        self.move_threshold = move_threshold
        self.allowed_distance = allowed_distance
        self.on_reset()

    def on_reset(self) -> None:
        self._last_fix: tuple[float, float] | None = None
        self._odom_since_move = 0.0
        self._last_t: float | None = None

    def margin(self, record: TraceRecord) -> float | None:
        if self._last_t is not None:
            self._odom_since_move += record.odom_speed * (record.t - self._last_t)
        self._last_t = record.t
        if record.gps_fresh:
            fix = (record.gps_x, record.gps_y)
            if self._last_fix is None or (
                math.hypot(fix[0] - self._last_fix[0], fix[1] - self._last_fix[1])
                > self.move_threshold
            ):
                self._last_fix = fix
                self._odom_since_move = 0.0
        return 1.0 - self._odom_since_move / self.allowed_distance

    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, None]:
        t = cols.get("t")
        # Which fixes moved: each is compared with the last fix that did,
        # a recurrence over the fresh fixes only.
        last_fix = self._last_fix
        moved = []
        rows = cols.get("gps_fresh").nonzero()[0]
        for row, x, y in zip(rows.tolist(), cols.get("gps_x")[rows].tolist(),
                             cols.get("gps_y")[rows].tolist()):
            if last_fix is None or (
                math.hypot(x - last_fix[0], y - last_fix[1])
                > self.move_threshold
            ):
                last_fix = (x, y)
                moved.append(row)
        self._last_fix = last_fix
        # The distance since then restarts at 0.0 at each of them (at
        # driving speed, every fix: the scalar loop); the first record
        # ever adds nothing.
        restart = [False] * t.size
        for row in moved:
            restart[row] = True
        values = [0.0] * t.size
        if self._last_t is None and not restart[0]:
            restart[0] = True
            values[0] = self._odom_since_move
        since_move = _stepped(
            (cols.get("odom_speed") * _intervals(t, self._last_t)).tolist(),
            restart, values, self._odom_since_move)
        self._odom_since_move = float(since_move[-1])
        self._last_t = float(t[-1])
        return 1.0 - since_move / self.allowed_distance, None


class SpeedConsistencyAssertion(TraceAssertion):
    """A7 — GPS-derived ground speed must match wheel speed.

    Positions of fixes ~1 s apart give an independent speed estimate; a
    scaled wheel-speed message (or a frozen/replayed GPS) breaks the
    agreement.  The bound absorbs GPS noise differentiated over the
    baseline (~0.7 m/s) with 3x headroom.
    """

    def __init__(self, baseline: float = 1.0, bound: float = 2.2):
        super().__init__(
            "A7", "GPS / wheel-speed consistency", "consistency",
            settle_time=3.0, debounce_on=2, debounce_off=8,
        )
        self.baseline = baseline
        self.bound = bound
        self.on_reset()

    def on_reset(self) -> None:
        self._fixes: list[tuple[float, float, float]] = []
        self._odom: list[tuple[float, float]] = []

    def margin(self, record: TraceRecord) -> float | None:
        self._odom.append((record.t, record.odom_speed))
        cutoff = record.t - 2.0 * self.baseline
        while self._odom and self._odom[0][0] < cutoff:
            self._odom.pop(0)
        if not record.gps_fresh:
            return None
        self._fixes.append((record.t, record.gps_x, record.gps_y))
        while self._fixes and self._fixes[0][0] < cutoff:
            self._fixes.pop(0)
        old = None
        for fix in self._fixes:
            if record.t - fix[0] >= self.baseline:
                old = fix
        if old is None:
            return None
        span = record.t - old[0]
        v_gps = math.hypot(record.gps_x - old[1], record.gps_y - old[2]) / span
        odom_in_span = [v for (tt, v) in self._odom if tt >= old[0]]
        if not odom_in_span:
            return None
        v_odom = sum(odom_in_span) / len(odom_in_span)
        return 1.0 - abs(v_gps - v_odom) / self.bound
    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        t = cols.t
        n = t.size
        cutoff = t - 2.0 * self.baseline
        tail_t, tail_v = _window_columns(self._odom, 2)
        odom_t = np.concatenate((tail_t, t))
        odom_v = np.concatenate((tail_v, cols.odom_speed))
        cut = int(odom_t.searchsorted(cutoff[-1], side="left"))
        self._odom = _window_rows(odom_t[cut:], odom_v[cut:])
        margins = np.zeros(n, dtype=np.float64)
        applicable = np.zeros(n, dtype=bool)
        rows = cols.gps_fresh.nonzero()[0]
        if not rows.size:
            return margins, applicable
        tail = _window_columns(self._fixes, 3)
        fix_t, fix_x, fix_y = (
            np.concatenate((c, new[rows])) for c, new
            in zip(tail, (t, cols.gps_x, cols.gps_y)))
        lo = fix_t.searchsorted(cutoff[rows], side="left")
        cut = int(lo[-1])
        self._fixes = _window_rows(fix_t[cut:], fix_x[cut:], fix_y[cut:])
        # The old fix: the newest one at least a baseline back.  The
        # per-step test is ``t - fix_t >= baseline``, monotone along the
        # sorted fixes; searchsorted places the boundary and the loops
        # settle it on that exact test.
        now = t[rows]
        here = np.arange(tail[0].size, fix_t.size)  # each record's own fix
        count = np.minimum(
            fix_t.searchsorted(now - self.baseline, side="right"),
            here + 1)
        while True:
            up = (count <= here) & (
                now - fix_t[np.minimum(count, here)] >= self.baseline)
            if not up.any():
                break
            count += up
        while True:
            down = (count > 0) & ~(
                now - fix_t[np.maximum(count - 1, 0)] >= self.baseline)
            if not down.any():
                break
            count -= down
        old = count - 1
        ok = old >= lo
        rows, now, old, here = rows[ok], now[ok], old[ok], here[ok]
        if not rows.size:
            return margins, applicable
        span = now - fix_t[old]
        v_gps = _hypot(fix_x[here] - fix_x[old], fix_y[here] - fix_y[old]) / span
        # Wheel speeds since the old fix: builtin sum() of each slice,
        # as per step (its float rounding differs between versions).
        first = odom_t.searchsorted(fix_t[old], side="left").tolist()
        ends = (rows + tail_t.size + 1).tolist()
        speeds = odom_v.tolist()
        v_odom = np.array([sum(speeds[a:b]) / (b - a)
                           for a, b in zip(first, ends)])
        margins[rows] = 1.0 - np.abs(v_gps - v_odom) / self.bound
        applicable[rows] = True
        return margins, applicable


class ImuCompassConsistencyAssertion(TraceAssertion):
    """A8 — integrated gyro rate must match the compass heading change.

    Over a sliding window, the heading change implied by integrating the
    gyro is compared with the absolute heading change reported by the
    compass.  An injected gyro bias accumulates linearly in the window; a
    compass spoof appears as a step while the window spans its onset.
    """

    def __init__(self, window: float = 4.0, bound: float = 0.15):
        super().__init__(
            "A8", "IMU / compass consistency", "consistency",
            settle_time=2.0, debounce_on=3, debounce_off=10,
        )
        self.window = window
        self.bound = bound
        self.on_reset()

    def on_reset(self) -> None:
        self._gyro_integral = 0.0
        self._compass_unwrapped: float | None = None
        self._buffer: list[tuple[float, float, float]] = []  # (t, gyro_int, compass)
        self._last_t: float | None = None

    def margin(self, record: TraceRecord) -> float | None:
        if self._last_t is not None:
            self._gyro_integral += record.imu_yaw_rate * (record.t - self._last_t)
        self._last_t = record.t

        if self._compass_unwrapped is None:
            self._compass_unwrapped = record.compass_yaw
        else:
            self._compass_unwrapped += angle_diff(
                record.compass_yaw, self._compass_unwrapped
            )
        self._buffer.append((record.t, self._gyro_integral, self._compass_unwrapped))
        cutoff = record.t - self.window
        while self._buffer and self._buffer[0][0] < cutoff:
            self._buffer.pop(0)
        if self._buffer[-1][0] - self._buffer[0][0] < 0.75 * self.window:
            return None
        gyro_delta = self._buffer[-1][1] - self._buffer[0][1]
        compass_delta = self._buffer[-1][2] - self._buffer[0][2]
        return 1.0 - abs(gyro_delta - compass_delta) / self.bound
    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        t = cols.t
        # The gyro integral is a running sum (the first record ever adds
        # nothing); np.cumsum seeded with it continues it exactly.
        increments = cols.imu_yaw_rate * _intervals(t, self._last_t)
        if self._last_t is None:
            increments = increments[1:]
        gyro = np.concatenate(([self._gyro_integral], increments)).cumsum()
        gyro = gyro[-t.size:]
        # Unwrapping is a recurrence through angle_diff: a scalar loop.
        unwrapped = self._compass_unwrapped
        compass = []
        for yaw in cols.compass_yaw.tolist():
            unwrapped = (yaw if unwrapped is None
                         else unwrapped + angle_diff(yaw, unwrapped))
            compass.append(unwrapped)
        compass = np.array(compass, dtype=np.float64)
        tail_t, tail_gyro, tail_compass = _window_columns(self._buffer, 3)
        times = np.concatenate((tail_t, t))
        gyros = np.concatenate((tail_gyro, gyro))
        compasses = np.concatenate((tail_compass, compass))
        lo = times.searchsorted(t - self.window, side="left")
        cut = int(lo[-1])
        self._buffer = _window_rows(times[cut:], gyros[cut:], compasses[cut:])
        self._gyro_integral = float(gyro[-1])
        self._compass_unwrapped = unwrapped
        self._last_t = float(t[-1])
        gyro_delta = gyro - gyros[lo]
        compass_delta = compass - compasses[lo]
        return (1.0 - np.abs(gyro_delta - compass_delta) / self.bound,
                ~(t - times[lo] < 0.75 * self.window))


# ---------------------------------------------------------------------------
# Stability / progress assertions
# ---------------------------------------------------------------------------
class RouteProgressAssertion(TraceAssertion):
    """A10 — when commanded to move, the (estimated) route station advances.

    Over each sliding window with a meaningful commanded speed, the
    station must advance at least a fraction of the commanded distance.
    A frozen estimate, a stopped vehicle, or a controller chasing a
    spoofed position all stall the station.
    """

    _buffer = WindowBuffer(np.float64, np.float64, np.float64)

    def __init__(self, window: float = 5.0, min_fraction: float = 0.3,
                 min_target: float = 1.5):
        super().__init__(
            "A10", "route progress", "stability",
            settle_time=_SETTLE, debounce_on=3, debounce_off=10,
        )
        self.window = window
        self.min_fraction = min_fraction
        self.min_target = min_target
        self.on_reset()

    def on_reset(self) -> None:
        self._buffer: list[tuple[float, float, float]] = []  # (t, station, target_v)
        # Prefix sums over target speed (reset on station wrap): the
        # window mean is (cum - prev_cum) / len(buffer), which the
        # vectorized path reproduces bit-for-bit via np.cumsum.
        self._cum = 0.0
        self._prev_cum = 0.0

    def margin(self, record: TraceRecord) -> float | None:
        buf = self._buffer
        if buf and record.station_est < buf[-1][1] - 10.0:
            # Station wrapped (closed route) or projection snapped; restart.
            buf.clear()
            self._cum = 0.0
            self._prev_cum = 0.0
        buf.append((record.t, record.station_est, record.target_speed))
        self._cum = self._cum + record.target_speed
        cutoff = record.t - self.window
        while buf and buf[0][0] < cutoff:
            self._prev_cum = self._prev_cum + buf.pop(0)[2]
        span = buf[-1][0] - buf[0][0]
        if span < 0.75 * self.window:
            return None
        mean_target = (self._cum - self._prev_cum) / len(buf)
        if mean_target < self.min_target:
            return None
        expected = mean_target * span * self.min_fraction
        actual = buf[-1][1] - buf[0][1]
        return actual / expected - 1.0

    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        t = cols.t
        n = t.size
        station = np.asarray(cols.station_est, dtype=np.float64)
        target = np.asarray(cols.target_speed, dtype=np.float64)
        margins = np.zeros(n, dtype=np.float64)
        applicable = np.zeros(n, dtype=bool)
        tail = type(self)._buffer.columns(self)
        cum, prev = self._cum, self._prev_cum
        wraps = np.flatnonzero(station[1:] < station[:-1] - 10.0) + 1
        bounds = [0, *wraps.tolist(), n]
        for a, b in zip(bounds[:-1], bounds[1:]):
            tail_t, tail_station, tail_target = tail
            if tail_t.size and station[a] < tail_station[-1] - 10.0:
                # The per-step wrap test against the previous record.
                tail_t, tail_station, tail_target = (c[:0] for c in tail)
                cum = prev = 0.0
            tail_cum = np.cumsum(np.concatenate(([prev], tail_target)))[1:]
            mean_target, lo, times, cums = window_means(
                t[a:b], target[a:b], tail_t, tail_cum, cum, prev,
                self.window)
            stations = np.concatenate((tail_station, station[a:b]))
            span = t[a:b] - times[lo]
            ok = (~(span < 0.75 * self.window)
                  & ~(mean_target < self.min_target))
            expected = mean_target * span * self.min_fraction
            actual = station[a:b] - stations[lo]
            with np.errstate(divide="ignore", invalid="ignore"):
                margins[a:b] = np.where(ok, actual / expected - 1.0, 0.0)
            applicable[a:b] = ok
            cum, prev, cut = carry_sums(cums, prev, lo)
            targets = np.concatenate((tail_target, target[a:b]))
            tail = (times[cut:], stations[cut:], targets[cut:])
        self._cum, self._prev_cum = cum, prev
        self._buffer = tail
        return margins, applicable


class SteeringOscillationAssertion(TraceAssertion):
    """A11 — the steering command must not limit-cycle.

    Counts deadband-filtered sign changes of the steering command's
    deviation from its window mean; a healthy tuned loop produces well
    under 1 Hz, while added actuation latency or excessive gain produces a
    sustained multi-hertz oscillation.
    """

    _buffer = WindowBuffer(np.float64, np.float64)

    def __init__(self, window: float = 4.0, max_rate_hz: float = 0.4,
                 deadband: float = 0.15, min_speed: float = 2.0):
        super().__init__(
            "A11", "steering oscillation", "stability",
            settle_time=_SETTLE, debounce_on=3, debounce_off=20,
        )
        self.window = window
        self.max_rate_hz = max_rate_hz
        self.deadband = deadband
        self.min_speed = min_speed
        self.on_reset()

    def on_reset(self) -> None:
        self._buffer: list[tuple[float, float]] = []
        self._cum = 0.0
        self._prev_cum = 0.0

    def margin(self, record: TraceRecord) -> float | None:
        buf = self._buffer
        buf.append((record.t, record.steer_cmd))
        self._cum = self._cum + record.steer_cmd
        cutoff = record.t - self.window
        while buf and buf[0][0] < cutoff:
            self._prev_cum = self._prev_cum + buf.pop(0)[1]
        span = buf[-1][0] - buf[0][0]
        if span < 0.75 * self.window or record.est_v < self.min_speed:
            return None
        mean = (self._cum - self._prev_cum) / len(buf)
        last_sign = 0
        changes = 0
        for _, s in buf:
            dev = s - mean
            sign = 1 if dev > self.deadband else -1 if dev < -self.deadband else 0
            if sign != 0:
                if last_sign != 0 and sign != last_sign:
                    changes += 1
                last_sign = sign
        rate = changes / span
        return 1.0 - rate / self.max_rate_hz

    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        t = cols.t
        steer = np.asarray(cols.steer_cmd, dtype=np.float64)
        tail_t, tail_steer = type(self)._buffer.columns(self)
        tail_cum = np.cumsum(
            np.concatenate(([self._prev_cum], tail_steer)))[1:]
        means, lo, times, cums = window_means(
            t, steer, tail_t, tail_cum, self._cum, self._prev_cum,
            self.window)
        values = np.concatenate((tail_steer, steer))
        span = t - times[lo]
        applicable = (~(span < 0.75 * self.window)
                      & ~(cols.est_v < self.min_speed))
        margins = np.zeros(t.size, dtype=np.float64)
        rows = np.flatnonzero(applicable)
        if rows.size:
            changes = self._sign_changes(values, means[rows], lo[rows],
                                         rows + tail_t.size)
            rate = changes / span[rows]
            margins[rows] = 1.0 - rate / self.max_rate_hz
        self._cum, self._prev_cum, cut = carry_sums(
            cums, self._prev_cum, lo)
        self._buffer = (times[cut:], values[cut:])
        return margins, applicable

    def _sign_changes(self, values: np.ndarray, means: np.ndarray,
                      lo: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Deadband-filtered sign changes in each window
        ``values[lo:end + 1]`` around its mean.

        The count depends on the window *mean*, which moves every step
        (no shared prefix structure), so this builds one right-aligned 2D
        view of the windows.  Out-of-window cells are forced to sign 0,
        which the skip-zeros semantics ignores, exactly like the per-step
        deadband does; NaN deviations compare False on both sides -> sign
        0 there too.  The per-step count is then the number of adjacent
        unequal pairs among each row's nonzero signs, counted on the
        compressed nonzero cells alone.
        """
        width = int((ends - lo).max()) + 1
        padded = np.concatenate((np.zeros(width - 1), values))
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, width)[ends]
        dev = windows - means[:, None]
        in_window = (np.arange(width)[None, :]
                     >= (lo - ends + width - 1)[:, None])
        signs = (((dev > self.deadband).astype(np.int8)
                  - (dev < -self.deadband).astype(np.int8)) * in_window)
        cells = np.flatnonzero(signs)
        row = cells // width
        held = signs.ravel()[cells]
        change = (held[1:] != held[:-1]) & (row[1:] == row[:-1])
        return np.bincount(row[1:][change], minlength=means.size)


class SteeringSaturationAssertion(TraceAssertion):
    """A13 — the steering command must not sit at its limit for long.

    Persistent saturation means the controller has lost authority
    (divergence, an unreachable spoofed target, or a hard fault).
    """

    _buffer = WindowBuffer(np.float64, np.bool_)

    def __init__(self, window: float = 3.0, max_fraction: float = 0.6,
                 steer_limit: float = 0.61):
        super().__init__(
            "A13", "steering saturation", "stability",
            settle_time=_SETTLE, debounce_on=3, debounce_off=10,
        )
        self.window = window
        self.max_fraction = max_fraction
        self.threshold = 0.95 * steer_limit
        self.on_reset()

    def on_reset(self) -> None:
        self._buffer: list[tuple[float, bool]] = []

    def margin(self, record: TraceRecord) -> float | None:
        buf = self._buffer
        buf.append((record.t, abs(record.steer_cmd) >= self.threshold))
        cutoff = record.t - self.window
        while buf and buf[0][0] < cutoff:
            buf.pop(0)
        if buf[-1][0] - buf[0][0] < 0.75 * self.window:
            return None
        fraction = sum(1 for _, sat in buf if sat) / len(buf)
        return 1.0 - fraction / self.max_fraction

    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        # Saturated-sample fractions are integer-count ratios, so the
        # prefix-sum-of-counts form is exact (int64 counts, one division).
        t = cols.get("t")
        tail_t, tail_flags = type(self)._buffer.columns(self)
        times = np.concatenate((tail_t, t))
        flags = np.concatenate((
            tail_flags, np.abs(cols.get("steer_cmd")) >= self.threshold))
        cum = np.cumsum(flags.astype(np.int64))
        lo = np.searchsorted(times, t - self.window, side="left")
        ends = np.arange(tail_t.size, times.size)
        prev = np.where(lo > 0, cum[lo - 1], 0)
        fraction = (cum[ends] - prev) / (ends - lo + 1)
        cut = int(lo[-1])
        self._buffer = (times[cut:], flags[cut:])
        return (1.0 - fraction / self.max_fraction,
                ~(t - times[lo] < 0.75 * self.window))


class SpeedTrackingAssertion(TraceAssertion):
    """A14 — estimated speed tracks the commanded target speed.

    Window-mean of the absolute tracking error; sustained error means the
    longitudinal loop is broken (actuation fault, gross estimator error,
    or an infeasible speed profile).
    """

    _buffer = WindowBuffer(np.float64, np.float64)

    def __init__(self, window: float = 3.0, bound: float = 2.0):
        super().__init__(
            "A14", "speed tracking", "behaviour",
            settle_time=10.0, debounce_on=3, debounce_off=10,
        )
        self.window = window
        self.bound = bound
        self.on_reset()

    def on_reset(self) -> None:
        self._buffer: list[tuple[float, float]] = []
        self._cum = 0.0
        self._prev_cum = 0.0

    def _clear(self) -> None:
        self._buffer.clear()
        self._cum = 0.0
        self._prev_cum = 0.0

    def margin(self, record: TraceRecord) -> float | None:
        if record.target_speed < 1.0:
            # Stopping / stopped: tracking error is dominated by the
            # deliberate braking profile, not by a fault.
            self._clear()
            return None
        if record.lead_present and record.radar_range < (
            5.0 + 2.5 * record.est_v
        ):
            # ACC is (apparently) constraining the speed below the cruise
            # profile: tracking error against the profile is expected.
            self._clear()
            return None
        # Window mean as a prefix-sum difference (the running sum restarts
        # at every clear), matching the vectorized per-segment cumsum.
        self._cum = self._cum + abs(record.est_v - record.target_speed)
        buf = self._buffer
        buf.append((record.t, self._cum))
        cutoff = record.t - self.window
        while buf and buf[0][0] < cutoff:
            self._prev_cum = buf.pop(0)[1]
        if buf[-1][0] - buf[0][0] < 0.75 * self.window:
            return None
        mean = (self._cum - self._prev_cum) / len(buf)
        return 1.0 - mean / self.bound

    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        t = cols.get("t")
        n = t.size
        clear = (cols.get("target_speed") < 1.0) | (
            cols.get("lead_present")
            & (cols.get("radar_range") < (5.0 + 2.5 * cols.get("est_v")))
        )
        margins = np.zeros(n, dtype=np.float64)
        applicable = np.zeros(n, dtype=bool)
        errors = np.abs(cols.get("est_v") - cols.get("target_speed"))
        tail_t, tail_cum = type(self)._buffer.columns(self)
        cum, prev = self._cum, self._prev_cum
        # Alternating runs of cleared and kept records; the window state
        # restarts at each clear, so a kept run resumes the carried state
        # only when it opens the block.
        flips = np.flatnonzero(clear[1:] != clear[:-1]) + 1
        bounds = [0, *flips.tolist(), n]
        for s, e in zip(bounds[:-1], bounds[1:]):
            if clear[s]:
                tail_t, tail_cum, cum, prev = tail_t[:0], tail_cum[:0], 0.0, 0.0
                continue
            mean, lo, times, cums = window_means(
                t[s:e], errors[s:e], tail_t, tail_cum, cum, prev,
                self.window)
            margins[s:e] = 1.0 - mean / self.bound
            applicable[s:e] = ~(t[s:e] - times[lo] < 0.75 * self.window)
            cum, prev, cut = carry_sums(cums, prev, lo)
            tail_t, tail_cum = times[cut:], cums[cut:]
        self._cum, self._prev_cum = cum, prev
        self._buffer = (tail_t, tail_cum)
        return margins, applicable


class GoalReachedAssertion(TraceAssertion):
    """A15 — the vehicle eventually reaches the route goal (liveness).

    Evaluated once at end of trace: the minimum distance-to-goal seen must
    be below the goal radius.  Not applicable to closed (loop) routes,
    which the engine marks with a negative ``dist_to_goal``.
    """

    def __init__(self, goal_radius: float = 3.0):
        super().__init__(
            "A15", "goal reached", "liveness",
            settle_time=0.0, debounce_on=1, debounce_off=1,
        )
        self.goal_radius = goal_radius
        self.on_reset()

    def on_reset(self) -> None:
        self._min_dist = math.inf
        self._applicable = False

    def margin(self, record: TraceRecord) -> float | None:
        if record.dist_to_goal >= 0.0:
            self._applicable = True
            self._min_dist = min(self._min_dist, record.dist_to_goal)
        return None

    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        dist = cols.dist_to_goal
        dist = dist[dist >= 0.0]
        if dist.size:
            self._applicable = True
            # Python's min keeps the earlier of equal values (-0.0 and
            # 0.0 included): argmin's first occurrence, then a strict <.
            low = dist[np.argmin(dist)]
            if low < self._min_dist:
                self._min_dist = float(low)
        return (np.zeros(cols.n, dtype=np.float64),
                np.zeros(cols.n, dtype=bool))

    def end_margin(self, last_record: TraceRecord | None) -> float | None:
        if not self._applicable:
            return None
        return 1.0 - self._min_dist / self.goal_radius


class SafeHeadwayAssertion(TraceAssertion):
    """A17 — keep a minimum time gap to the lead vehicle.

    The fundamental car-following safety envelope: ground-truth gap over
    ego speed must stay above a minimum headway.  Only applicable while a
    lead vehicle is present and the ego is actually moving.
    """

    def __init__(self, min_headway: float = 1.0, min_speed: float = 2.0):
        super().__init__(
            "A17", "safe headway", "behaviour",
            settle_time=_SETTLE, debounce_on=3, debounce_off=15,
        )
        self.min_headway = min_headway
        self.min_speed = min_speed

    def margin(self, record: TraceRecord) -> float | None:
        if not record.lead_present or record.true_v < self.min_speed:
            return None
        headway = record.gap_true / record.true_v
        return headway / self.min_headway - 1.0

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        # Negated-comparison mask mirrors the per-step guard exactly
        # (including how a NaN speed compares).
        applicable = cols.get("lead_present") & ~(
            cols.get("true_v") < self.min_speed
        )
        margins = np.zeros(applicable.size, dtype=np.float64)
        idx = np.flatnonzero(applicable)
        if idx.size:
            headway = cols.get("gap_true")[idx] / cols.get("true_v")[idx]
            margins[idx] = headway / self.min_headway - 1.0
        return margins, applicable

    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        return self.margin_array(cols)  # stateless: every block is whole


class RadarJumpAssertion(TraceAssertion):
    """A18 — consecutive radar ranges must be kinematically plausible.

    The range to a real vehicle changes at most at the closing-speed
    envelope; a ghost-target injection appears as a step.  The direct
    radar analogue of the A5 GPS jump check.
    """

    def __init__(self, closing_margin: float = 10.0, base_allowance: float = 1.5):
        super().__init__(
            "A18", "radar range plausibility", "consistency",
            settle_time=2.0, debounce_on=1, debounce_off=5,
        )
        self.closing_margin = closing_margin
        self.base_allowance = base_allowance
        self.on_reset()

    def on_reset(self) -> None:
        self._prev: tuple[float, float] | None = None  # (t, range)

    def margin(self, record: TraceRecord) -> float | None:
        if not record.lead_present or not record.radar_fresh:
            return None
        prev = self._prev
        self._prev = (record.t, record.radar_range)
        if prev is None:
            return None
        dt_track = record.t - prev[0]
        if dt_track <= 0 or dt_track > 1.0:
            # Track was lost for a while; a re-acquire jump is legitimate.
            return None
        delta = abs(record.radar_range - prev[1])
        bound = ((record.odom_speed + self.closing_margin) * dt_track
                 + self.base_allowance)
        return 1.0 - delta / bound

    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        margins = np.zeros(cols.n, dtype=np.float64)
        applicable = np.zeros(cols.n, dtype=bool)
        rows = (cols.lead_present & cols.radar_fresh).nonzero()[0]
        if not rows.size:
            return margins, applicable
        # Each track sample pairs with the one before it, the first with
        # the carried sample.
        track_t, ranges = cols.t[rows], cols.radar_range[rows]
        prev = self._prev
        self._prev = (float(track_t[-1]), float(ranges[-1]))
        if prev is None:
            prev_t, prev_range = track_t[:-1], ranges[:-1]
            rows, track_t, ranges = rows[1:], track_t[1:], ranges[1:]
        else:
            prev_t = np.concatenate(([prev[0]], track_t[:-1]))
            prev_range = np.concatenate(([prev[1]], ranges[:-1]))
        dt_track = track_t - prev_t
        ok = ~((dt_track <= 0) | (dt_track > 1.0))
        rows, dt_track = rows[ok], dt_track[ok]
        delta = np.abs(ranges[ok] - prev_range[ok])
        bound = ((cols.odom_speed[rows] + self.closing_margin) * dt_track
                 + self.base_allowance)
        margins[rows] = 1.0 - delta / bound
        applicable[rows] = True
        return margins, applicable


class RadarRateConsistencyAssertion(TraceAssertion):
    """A19 — the radar's range derivative must match its range-rate.

    A radar track carries redundant information: differentiating the
    range over a short window must reproduce the reported Doppler
    range-rate.  Scaling attacks break exactly this self-consistency
    whenever the relative speed is non-zero.
    """

    def __init__(self, window: float = 1.5, bound: float = 0.9):
        super().__init__(
            "A19", "radar range-rate consistency", "consistency",
            settle_time=2.0, debounce_on=3, debounce_off=10,
        )
        self.window = window
        self.bound = bound
        self.on_reset()

    def on_reset(self) -> None:
        self._tracks: list[tuple[float, float, float]] = []  # (t, range, rate)

    def margin(self, record: TraceRecord) -> float | None:
        if not record.lead_present or not record.radar_fresh:
            return None
        tracks = self._tracks
        if tracks and record.t - tracks[-1][0] > 1.0:
            tracks.clear()  # track dropout: restart the window
        tracks.append((record.t, record.radar_range, record.radar_range_rate))
        cutoff = record.t - self.window
        while tracks and tracks[0][0] < cutoff:
            tracks.pop(0)
        span = tracks[-1][0] - tracks[0][0]
        if span < 0.75 * self.window:
            return None
        slope = (tracks[-1][1] - tracks[0][1]) / span
        mean_rate = sum(rate for _, _, rate in tracks) / len(tracks)
        return 1.0 - abs(slope - mean_rate) / self.bound

    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        margins = np.zeros(cols.n, dtype=np.float64)
        applicable = np.zeros(cols.n, dtype=bool)
        rows = (cols.lead_present & cols.radar_fresh).nonzero()[0]
        if not rows.size:
            return margins, applicable
        tail = _window_columns(self._tracks, 3)
        times, ranges, rates = (
            np.concatenate((c, new[rows])) for c, new
            in zip(tail, (cols.t, cols.radar_range, cols.radar_range_rate)))
        here = np.arange(tail[0].size, times.size)
        # A dropout restarts the window at the sample after it.
        index = np.arange(times.size)
        dropout = np.zeros(times.size, dtype=bool)
        dropout[1:] = times[1:] - times[:-1] > 1.0
        restart = np.maximum.accumulate(np.where(dropout, index, 0))[here]
        now = times[here]
        lo = np.maximum(
            times.searchsorted(now - self.window, side="left"), restart)
        cut = int(lo[-1])
        self._tracks = _window_rows(times[cut:], ranges[cut:], rates[cut:])
        span = now - times[lo]
        ok = ~(span < 0.75 * self.window)
        rows, here, lo, span = rows[ok], here[ok], lo[ok], span[ok]
        if not rows.size:
            return margins, applicable
        slope = (ranges[here] - ranges[lo]) / span
        # builtin sum() of each window, as per step (its float rounding
        # differs between versions).
        rate_list = rates.tolist()
        mean_rate = np.array([sum(rate_list[a:b]) / (b - a) for a, b
                              in zip(lo.tolist(), (here + 1).tolist())])
        margins[rows] = 1.0 - np.abs(slope - mean_rate) / self.bound
        applicable[rows] = True
        return margins, applicable


class ControlResponsivenessAssertion(TraceAssertion):
    """A20 — a persistent tracking error must provoke a steering response.

    Authored during the E13 refinement round: a deadband/truncation defect
    leaves the vehicle riding a steady sub-meter offset that every other
    assertion tolerates.  The signature is *silence where action is due*:
    the estimated cross-track error stays elevated over a window while the
    steering command remains (near) zero.
    """

    _buffer = WindowBuffer(np.float64, np.float64, np.float64)

    def __init__(self, window: float = 3.0, cte_threshold: float = 0.55,
                 min_response: float = 0.02, min_speed: float = 2.0):
        super().__init__(
            "A20", "control responsiveness", "stability",
            settle_time=_SETTLE, debounce_on=3, debounce_off=15,
        )
        self.window = window
        self.cte_threshold = cte_threshold
        self.min_response = min_response
        self.min_speed = min_speed
        self.on_reset()

    def on_reset(self) -> None:
        self._buffer: list[tuple[float, float, float]] = []  # (t, |cte|, |steer|)
        self._cum = 0.0
        self._prev_cum = 0.0

    def margin(self, record: TraceRecord) -> float | None:
        buf = self._buffer
        buf.append((record.t, abs(record.cte_est), abs(record.steer_cmd)))
        self._cum = self._cum + abs(record.cte_est)
        cutoff = record.t - self.window
        while buf and buf[0][0] < cutoff:
            self._prev_cum = self._prev_cum + buf.pop(0)[1]
        if buf[-1][0] - buf[0][0] < 0.75 * self.window:
            return None
        if record.est_v < self.min_speed:
            return None
        mean_cte = (self._cum - self._prev_cum) / len(buf)
        if mean_cte < self.cte_threshold:
            return None
        max_response = max(s for _, _, s in buf)
        return max_response / self.min_response - 1.0

    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        t = cols.t
        cte_abs = np.abs(np.asarray(cols.cte_est, dtype=np.float64))
        steer_abs = np.abs(np.asarray(cols.steer_cmd, dtype=np.float64))
        tail_t, tail_cte, tail_steer = type(self)._buffer.columns(self)
        tail_cum = np.cumsum(
            np.concatenate(([self._prev_cum], tail_cte)))[1:]
        mean_cte, lo, times, cums = window_means(
            t, cte_abs, tail_t, tail_cum, self._cum, self._prev_cum,
            self.window)
        span = t - times[lo]
        applicable = (~(span < 0.75 * self.window)
                      & ~(cols.est_v < self.min_speed)
                      & ~(mean_cte < self.cte_threshold))
        steers = np.concatenate((tail_steer, steer_abs))
        margins = np.zeros(t.size, dtype=np.float64)
        # The window max has no prefix structure; scan only the (rare)
        # applicable windows.  fmax skips NaN like the per-step Python
        # max does — unless the window *starts* on NaN, which Python max
        # propagates, so mirror that case explicitly.
        k = tail_t.size
        for i in np.flatnonzero(applicable).tolist():
            seg = steers[lo[i]:k + i + 1]
            mx = seg[0] if np.isnan(seg[0]) else np.fmax.reduce(seg)
            margins[i] = mx / self.min_response - 1.0
        self._cum, self._prev_cum, cut = carry_sums(
            cums, self._prev_cum, lo)
        ctes = np.concatenate((tail_cte, cte_abs))
        self._buffer = (times[cut:], ctes[cut:], steers[cut:])
        return margins, applicable


class ActuationConsistencyAssertion(TraceAssertion):
    """A16 — the measured actuator state matches the commanded one.

    Runs a reference model of the steering actuator (first-order lag +
    rate limit + saturation, using the published actuator datasheet
    parameters) on the command stream and compares it with the measured
    steering angle.  Offsets, stuck actuators and in-path command
    tampering all break the match; the closed loop hides them from every
    behavioural assertion.
    """

    def __init__(self, tolerance: float = 0.03, steer_tau: float = 0.15,
                 rate_max: float = 0.8, steer_max: float = 0.61):
        super().__init__(
            "A16", "actuation consistency", "actuation",
            settle_time=2.0, debounce_on=4, debounce_off=10,
        )
        self.tolerance = tolerance
        self.steer_tau = steer_tau
        self.rate_max = rate_max
        self.steer_max = steer_max
        self.on_reset()

    def on_reset(self) -> None:
        self._model_steer = 0.0
        self._last_t: float | None = None

    def margin(self, record: TraceRecord) -> float | None:
        if self._last_t is None:
            self._last_t = record.t
            self._model_steer = record.steer_applied
            return None
        dt = record.t - self._last_t
        self._last_t = record.t
        target = min(max(record.steer_cmd, -self.steer_max), self.steer_max)
        if self.steer_tau > 0:
            alpha = 1.0 - math.exp(-dt / self.steer_tau)
            desired = self._model_steer + alpha * (target - self._model_steer)
        else:
            desired = target
        delta = min(max(desired - self._model_steer, -self.rate_max * dt),
                    self.rate_max * dt)
        self._model_steer = min(max(self._model_steer + delta, -self.steer_max),
                                self.steer_max)
        error = abs(record.steer_applied - self._model_steer)
        return 1.0 - error / self.tolerance

    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        t = cols.t
        n = t.size
        applied = cols.steer_applied
        applicable = np.ones(n, dtype=bool)
        start = 0
        if self._last_t is None:  # the first record seeds the model
            self._model_steer = float(applied[0])
            self._last_t = float(t[0])
            applicable[0] = False
            start = 1
        dt = t[start:] - np.concatenate(([self._last_t], t[start:-1]))
        # Everything but the model's own recurrence, as arrays; the
        # clamps are Python's min/max (first argument kept on ties, NaN
        # positional).
        cmd = cols.steer_cmd[start:]
        target = np.where(-self.steer_max > cmd, -self.steer_max, cmd)
        target = np.where(self.steer_max < target, self.steer_max, target)
        if self.steer_tau > 0:
            # math.exp, not np.exp: they differ in the last ulp.
            alphas = [1.0 - decay for decay
                      in map(math.exp, (-dt / self.steer_tau).tolist())]
        else:
            alphas = [None] * dt.size
        rate = self.rate_max * dt
        model = self._model_steer
        lo_steer, hi_steer = -self.steer_max, self.steer_max
        models = []
        for target_i, alpha, lo, hi in zip(
                target.tolist(), alphas, (-self.rate_max * dt).tolist(),
                rate.tolist()):
            desired = (target_i if alpha is None
                       else model + alpha * (target_i - model))
            delta = desired - model
            delta = lo if lo > delta else delta
            delta = hi if hi < delta else delta
            model = model + delta
            model = lo_steer if lo_steer > model else model
            model = hi_steer if hi_steer < model else model
            models.append(model)
        margins = np.zeros(n, dtype=np.float64)
        if models:
            self._model_steer = model
            self._last_t = float(t[-1])
            margins[start:] = 1.0 - np.abs(applied[start:] - models) / self.tolerance
        return margins, applicable


class DegradedTrackingAssertion(TraceAssertion):
    """A21 — cross-track error stays bounded inside sensor-fault windows.

    The graceful-degradation contract: a single-sensor fault may cost
    tracking precision but must not cost the lane.  Gated on the trace's
    fault ground truth (``fault_active``), so it is silent on nominal and
    attack-only runs; the bound is tighter than A1's because a degraded
    stack is expected to slow down rather than cut corners.  Stands down
    once a supervisor's safe stop owns the vehicle — the trace-schema
    ``supervisor_mode`` value ``"safe_stop"`` — because a parked vehicle's
    offset from the route is A22's business, not a tracking failure.
    """

    def __init__(self, bound: float = 2.0):
        super().__init__(
            "A21", "degraded-mode tracking", "behaviour",
            settle_time=_SETTLE, debounce_on=3, debounce_off=20,
        )
        self.bound = bound

    def margin(self, record: TraceRecord) -> float | None:
        if not record.fault_active:
            return None
        if record.supervisor_mode == "safe_stop":
            return None
        return 1.0 - abs(record.cte_true) / self.bound

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        applicable = cols.get("fault_active") & (
            cols.get("supervisor_mode") != "safe_stop"
        )
        return 1.0 - np.abs(cols.get("cte_true")) / self.bound, applicable

    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        return self.margin_array(cols)  # stateless: every block is whole


class SafeStopEngagementAssertion(TraceAssertion):
    """A22 — multi-sensor loss must provoke a stop within a grace period.

    Re-derives channel staleness from the ``*_fresh`` trace flags rather
    than trusting any supervisor state, so it scores the *vehicle's
    response* symmetrically for supervised and unsupervised stacks: once
    two or more channels have been stale past their per-channel budget
    for longer than the engagement grace, the vehicle must either be
    braking (``accel_cmd`` at or below the braking floor) or already
    at rest.  An unsupervised stack that keeps cruising on a coasting
    estimate fires this within ``grace`` seconds of the loss.

    Staleness budgets mirror the supervisor defaults (a few nominal
    sample intervals per channel), and the grace covers the watchdog
    timeout plus one control-loop reaction.
    """

    _STALE_AFTER = {"gps": 1.0, "compass": 1.0, "odometry": 0.6, "imu": 0.4}

    def __init__(self, lost_channels: int = 2, grace: float = 1.5,
                 stop_speed: float = 0.5, brake_floor: float = 0.5):
        super().__init__(
            "A22", "safe-stop engagement", "liveness",
            settle_time=_SETTLE, debounce_on=3, debounce_off=10,
        )
        self.lost_channels = lost_channels
        self.grace = grace
        self.stop_speed = stop_speed
        self.brake_floor = brake_floor
        self.on_reset()

    def on_reset(self) -> None:
        self._last_fresh: dict[str, float] | None = None
        self._stale_since: float | None = None

    def margin(self, record: TraceRecord) -> float | None:
        if self._last_fresh is None:
            self._last_fresh = {ch: record.t for ch in self._STALE_AFTER}
        fresh = {
            "gps": record.gps_fresh,
            "compass": record.compass_fresh,
            "odometry": record.odom_fresh,
            "imu": record.imu_fresh,
        }
        for channel, is_fresh in fresh.items():
            if is_fresh:
                self._last_fresh[channel] = record.t
        stale = sum(
            record.t - self._last_fresh[ch] > budget
            for ch, budget in self._STALE_AFTER.items()
        )
        if stale < self.lost_channels:
            self._stale_since = None
            return None
        if self._stale_since is None:
            self._stale_since = record.t
        if record.t - self._stale_since <= self.grace:
            return None  # engagement window: the stop may still be coming
        return max(
            1.0 - record.true_v / self.stop_speed,
            -record.accel_cmd / self.brake_floor - 1.0,
        )

    _FLAG_CHANNELS = (("gps", "gps_fresh"), ("compass", "compass_fresh"),
                      ("odometry", "odom_fresh"), ("imu", "imu_fresh"))

    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        t = cols.t
        idx = np.arange(t.size)
        if self._last_fresh is None:
            # The first record seeds every channel, as per step.
            self._last_fresh = {ch: float(t[0]) for ch in self._STALE_AFTER}
        stale_cnt = np.zeros(t.size, dtype=np.int64)
        for channel, flag in self._FLAG_CHANNELS:
            # Time of the most recent fresh sample, carried into the block.
            latest = np.maximum.accumulate(np.where(cols.get(flag), idx, -1))
            last = np.where(latest >= 0, t[latest],
                            self._last_fresh[channel])
            stale_cnt += (t - last) > self._STALE_AFTER[channel]
            self._last_fresh[channel] = float(last[-1])
        active = stale_cnt >= self.lost_channels
        starts = active.copy()
        starts[1:] &= ~active[:-1]
        carried = self._stale_since
        if carried is not None:
            starts[0] = False  # the previous record was already stale
        begun = np.maximum.accumulate(np.where(starts, idx, -1))
        since = np.where(begun >= 0, t[begun],
                         math.nan if carried is None else carried)
        self._stale_since = float(since[-1]) if active[-1] else None
        applicable = active & ~(t - since <= self.grace)
        stopping = 1.0 - cols.get("true_v") / self.stop_speed
        braking = -cols.get("accel_cmd") / self.brake_floor - 1.0
        # np.where(b > a, b, a) is Python's max(a, b) exactly, NaN
        # ordering included.
        margins = np.where(applicable,
                           np.where(braking > stopping, braking, stopping),
                           0.0)
        return margins, applicable


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------
def _make_a1() -> TraceAssertion:
    # 2.5 m keeps the vehicle inside a standard 3.5 m lane with margin.
    return BoundAssertion(
        "A1", "cross-track bound", channel="cte_true", bound=2.5,
        category="behaviour", settle_time=_SETTLE, debounce_on=3, debounce_off=20,
    )


def _make_a2() -> TraceAssertion:
    return BoundAssertion(
        "A2", "heading-error bound", channel="heading_err_true", bound=0.5,
        category="behaviour", settle_time=_SETTLE, debounce_on=3, debounce_off=20,
    )


def _make_a3() -> TraceAssertion:
    # Sustained tracking quality: 5 s mean |cte| stays under 1.2 m.
    return WindowMeanBoundAssertion(
        "A3", "cross-track convergence", channel="cte_true", bound=1.2,
        window=5.0, category="behaviour", settle_time=_SETTLE + 2.0,
        debounce_on=2, debounce_off=20,
    )


def _make_a9g() -> TraceAssertion:
    # 2-dof chi-square mean is 2; a 1.5 s mean above 7 is far outside the
    # nominal envelope while tolerating individual spikes.
    return WindowMeanBoundAssertion(
        "A9G", "EKF GPS innovation bound", channel="nis_gps", bound=7.0,
        window=1.5, category="consistency", settle_time=3.0,
        debounce_on=2, debounce_off=10,
    )


def _make_a9s() -> TraceAssertion:
    return WindowMeanBoundAssertion(
        "A9S", "EKF speed innovation bound", channel="nis_speed", bound=5.0,
        window=1.5, category="consistency", settle_time=3.0,
        debounce_on=2, debounce_off=10,
    )


def _make_a9c() -> TraceAssertion:
    return WindowMeanBoundAssertion(
        "A9C", "EKF heading innovation bound", channel="nis_compass", bound=5.0,
        window=1.5, category="consistency", settle_time=3.0,
        debounce_on=2, debounce_off=10,
    )


def _make_a12() -> TraceAssertion:
    """Lateral-acceleration comfort/safety envelope from observables."""

    class LateralAccelAssertion(TraceAssertion):
        def __init__(self) -> None:
            super().__init__(
                "A12", "lateral acceleration bound", "behaviour",
                settle_time=_SETTLE, debounce_on=3, debounce_off=15,
            )

        def margin(self, record: TraceRecord) -> float:
            lat = abs(record.est_v * record.imu_yaw_rate)
            return 1.0 - lat / 4.5

        def margin_array(
            self, cols: TraceColumns
        ) -> tuple[np.ndarray, None]:
            lat = np.abs(cols.get("est_v") * cols.get("imu_yaw_rate"))
            return 1.0 - lat / 4.5, None

        def margin_chunk(
            self, cols: TraceColumns
        ) -> tuple[np.ndarray, None]:
            return self.margin_array(cols)  # stateless

    return LateralAccelAssertion()


_FACTORIES: dict[str, object] = {
    "A1": _make_a1,
    "A2": _make_a2,
    "A3": _make_a3,
    "A4": GpsDeadReckoningAssertion,
    "A5": GpsJumpAssertion,
    "A6": GpsFreezeAssertion,
    "A7": SpeedConsistencyAssertion,
    "A8": ImuCompassConsistencyAssertion,
    "A9G": _make_a9g,
    "A9S": _make_a9s,
    "A9C": _make_a9c,
    "A10": RouteProgressAssertion,
    "A11": SteeringOscillationAssertion,
    "A12": _make_a12,
    "A13": SteeringSaturationAssertion,
    "A14": SpeedTrackingAssertion,
    "A15": GoalReachedAssertion,
    "A16": ActuationConsistencyAssertion,
    "A17": SafeHeadwayAssertion,
    "A18": RadarJumpAssertion,
    "A19": RadarRateConsistencyAssertion,
    "A20": ControlResponsivenessAssertion,
    "A21": DegradedTrackingAssertion,
    "A22": SafeStopEngagementAssertion,
}

CATALOG_IDS: tuple[str, ...] = tuple(_FACTORIES)
"""All assertion ids, in catalog order."""

CATALOG_STAGES: dict[str, tuple[str, ...]] = {
    "behavioural": ("A1", "A2", "A3", "A12", "A14", "A15"),
    "gps_consistency": ("A4", "A5", "A6", "A7"),
    "inertial_innovation": ("A8", "A9G", "A9S", "A9C"),
    "stability_actuation": ("A10", "A11", "A13", "A16", "A20"),
    "radar_acc": ("A17", "A18", "A19"),
    "degradation": ("A21", "A22"),
}
"""The methodology's staged catalog growth (E9 refinement loop order)."""


def make_assertion(assertion_id: str) -> TraceAssertion:
    """A fresh instance of one catalog assertion by id."""
    if assertion_id not in _FACTORIES:
        raise ValueError(
            f"unknown assertion id {assertion_id!r}; "
            f"expected one of {list(CATALOG_IDS)}"
        )
    return _FACTORIES[assertion_id]()


def default_catalog(ids: tuple[str, ...] | list[str] | None = None) -> list[TraceAssertion]:
    """Fresh instances of the full catalog (or a subset by id)."""
    selected = CATALOG_IDS if ids is None else tuple(ids)
    return [make_assertion(aid) for aid in selected]
