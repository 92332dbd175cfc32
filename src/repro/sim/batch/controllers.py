"""Vectorized controller implementations for batch lanes.

Each ``_Batch*`` class mirrors one serial controller whose
``supports_batch`` capability flag is set, holding its per-lane parameters
and state as arrays.  Parameters are read off the *actual* controller
instances supplied per lane, so heterogeneous gains vectorize too; the LQR
gain lookup delegates to each instance's own DARE cache so the solved
gains are the very same objects the serial controller would use.

:class:`BatchFollower` is the vectorized ``WaypointFollower.decide``:
goal latch, curvature-limited speed profile, PID with conditional
integration, and ACC min-arbitration, all masked so that latched lanes
freeze their longitudinal state exactly like the serial early return.

A lateral implementation answers in two halves: ``query`` names its first
route projection and ``compute`` takes the result.  That lets
:meth:`BatchFollower.decide` make every group's first projection, and the
engine's ground-truth one, in one nearest-segment kernel call.
"""

from __future__ import annotations

import math

import numpy as np

from repro.control.acc import AccController
from repro.control.follower import WaypointFollower
from repro.control.lqr import LqrController
from repro.control.pid import PidSpeedController
from repro.control.pure_pursuit import PurePursuitController
from repro.control.stanley import StanleyController
from repro.sim.batch import ops
from repro.sim.batch.lanes import LaneState
from repro.sim.batch.route import BatchProjection, BatchRoute

__all__ = ["BatchFollower", "follower_key", "is_vectorizable"]


def is_vectorizable(follower) -> bool:
    """True if the follower can run on the fully vectorized batch path.

    Requires the plain follower/PID/ACC classes (subclasses may override
    behaviour the vector path cannot see) and a lateral controller that
    both declares ``supports_batch`` and has a registered implementation.
    """
    return (
        type(follower) is WaypointFollower
        and type(follower.speed_controller) is PidSpeedController
        and (follower.acc is None or type(follower.acc) is AccController)
        and getattr(follower.lateral, "supports_batch", False)
        and type(follower.lateral) in _LATERAL_IMPLS
    )


def _param_key(value):
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    return value


class _BatchPurePursuit(LaneState):
    PARAMS = ("wheelbase", "lookahead_gain", "min_lookahead",
              "max_lookahead", "max_steer")
    _LANE_FIELDS = ("wheelbase", "gain", "min_la", "max_la", "max_steer",
                    "hint", "has_hint", "_all")

    def __init__(self, controllers: list[PurePursuitController], route: BatchRoute):
        self.route = route
        self.wheelbase = np.array([c.wheelbase for c in controllers])
        self.gain = np.array([c.lookahead_gain for c in controllers])
        self.min_la = np.array([c.min_lookahead for c in controllers])
        self.max_la = np.array([c.max_lookahead for c in controllers])
        self.max_steer = np.array([c.max_steer for c in controllers])
        self.n = n = len(controllers)
        self.hint = np.zeros(n)
        self.has_hint = np.zeros(n, dtype=bool)
        self._all = np.ones(n, dtype=bool)

    def query(self, x, y, yaw):
        return x, y, self.hint, self.has_hint

    def compute(self, x, y, yaw, v, dt, proj):
        self.hint = proj.station
        self.has_hint = self._all

        lookahead = ops.pymin(
            ops.pymax(self.gain * v, self.min_la), self.max_la
        )
        target = self.route.sample(proj.station + lookahead)
        dx = target.point_x - x
        dy = target.point_y - y
        c = np.cos(-yaw)
        s = np.sin(-yaw)
        local_x = c * dx - s * dy
        local_y = s * dx + c * dy
        alpha = ops.map2(math.atan2, local_y, ops.pymax(local_x, 1e-6))
        dist = ops.pymax(ops.map2(math.hypot, local_x, local_y), 1e-3)
        steer = ops.map2(
            math.atan2, 2.0 * self.wheelbase * np.sin(alpha), dist
        )
        steer = ops.clamp(steer, -self.max_steer, self.max_steer)
        return steer, proj.cross_track, ops.angle_diff(yaw, proj.heading), proj.station


class _BatchStanley(LaneState):
    PARAMS = ("wheelbase", "k_cte", "v_soft", "k_damp", "max_steer")
    _LANE_FIELDS = PARAMS + ("hint", "has_hint", "_all", "prev_steer",
                             "_neg_k_cte", "_keep", "_damped")

    def __init__(self, controllers: list[StanleyController], route: BatchRoute):
        self.route = route
        self.wheelbase = np.array([c.wheelbase for c in controllers])
        self.k_cte = np.array([c.k_cte for c in controllers])
        self.v_soft = np.array([c.v_soft for c in controllers])
        self.k_damp = np.array([c.k_damp for c in controllers])
        self.max_steer = np.array([c.max_steer for c in controllers])
        self.n = n = len(controllers)
        self.hint = np.zeros(n)
        self.has_hint = np.zeros(n, dtype=bool)
        self._all = np.ones(n, dtype=bool)
        self.prev_steer = np.zeros(n)
        # Per-lane constants of compute's expressions.
        self._neg_k_cte = -self.k_cte
        self._keep = 1.0 - self.k_damp
        self._damped = self.k_damp > 0.0

    def query(self, x, y, yaw):
        front_x = x + np.cos(yaw) * self.wheelbase
        front_y = y + np.sin(yaw) * self.wheelbase
        return front_x, front_y, self.hint, self.has_hint

    def compute(self, x, y, yaw, v, dt, proj_front):
        self.hint = proj_front.station
        self.has_hint = self._all

        heading_err = ops.angle_diff(proj_front.heading, yaw)
        cross_term = ops.map2(
            math.atan2, self._neg_k_cte * proj_front.cross_track,
            v + self.v_soft
        )
        steer = heading_err + cross_term
        damped = self._keep * steer + self.k_damp * self.prev_steer
        steer = np.where(self._damped, damped, steer)
        steer = ops.clamp(steer, -self.max_steer, self.max_steer)
        self.prev_steer = steer

        proj_rear = self.route.project(
            x, y, proj_front.station, self._all
        )
        return (
            steer,
            proj_rear.cross_track,
            ops.angle_diff(yaw, proj_rear.heading),
            proj_rear.station,
        )


_SHARED_DARE_GAINS: dict[tuple, np.ndarray] = {}
"""Process-wide LQR DARE gain memo.  The gain is a deterministic pure
function of (weights, wheelbase, quantized speed, dt), so lanes — and
whole successive batch calls — with identical controller parameters can
share one solve and still match each serial instance's private cache bit
for bit.  Module scope (rather than per-``_BatchLqr``) makes the memo
survive across batch groups within a campaign."""

_DARE_MEMO = {"hits": 0, "solves": 0}
"""Process-lifetime reuse counters for :data:`_SHARED_DARE_GAINS`
(``--stats`` snapshots deltas into ``GridStats.dare_memo_*`` through
:func:`repro.sim.batch.engine.batch_counters`)."""


class _BatchLqr(LaneState):
    PARAMS = ("wheelbase", "q", "r", "preview", "max_steer")
    _LANE_FIELDS = ("controllers", "wheelbase", "preview", "max_steer",
                    "hint", "has_hint", "_all")

    def __init__(self, controllers: list[LqrController], route: BatchRoute):
        self.route = route
        self.n = n = len(controllers)
        # An object array, so forking re-indexes it like every other field.
        self.controllers = np.empty(n, dtype=object)
        self.controllers[:] = controllers
        self.wheelbase = np.array([c.wheelbase for c in controllers])
        self.preview = np.array([c.preview for c in controllers])
        self.max_steer = np.array([c.max_steer for c in controllers])
        self.hint = np.zeros(n)
        self.has_hint = np.zeros(n, dtype=bool)
        self._all = np.ones(n, dtype=bool)

    def _lane_gain(self, controller: LqrController, speed: float,
                   dt: float) -> np.ndarray:
        quantum = controller._SPEED_QUANTUM  # noqa: SLF001
        v = speed if speed > 0.5 else 0.5  # mirrors _gain's floor
        key = (
            int(round(v / quantum)), int(round(dt * 1e4)),
            controller.wheelbase,
            controller.q.tobytes(), controller.r.tobytes(),
        )
        gain = _SHARED_DARE_GAINS.get(key)
        if gain is None:
            gain = controller._gain(speed, dt)  # noqa: SLF001
            _SHARED_DARE_GAINS[key] = gain
            _DARE_MEMO["solves"] += 1
        else:
            _DARE_MEMO["hits"] += 1
        return gain

    def query(self, x, y, yaw):
        return x, y, self.hint, self.has_hint

    def compute(self, x, y, yaw, v, dt, proj):
        self.hint = proj.station
        self.has_hint = self._all

        cte = proj.cross_track
        heading_err = ops.angle_diff(yaw, proj.heading)
        kmat = np.empty((len(x), 1, 2))
        v_list = v.tolist()
        for i, controller in enumerate(self.controllers):
            kmat[i] = self._lane_gain(controller, v_list[i], dt)
        e = np.stack([cte, heading_err], axis=1)
        feedback = -(np.matmul(kmat, e[:, :, None])[:, 0, 0])

        kappa = self.route.curvature(proj.station + self.preview)
        feedforward = ops.map1(math.atan, self.wheelbase * kappa)
        steer = ops.clamp(feedback + feedforward, -self.max_steer, self.max_steer)
        return steer, cte, heading_err, proj.station


_LATERAL_IMPLS = {
    PurePursuitController: _BatchPurePursuit,
    StanleyController: _BatchStanley,
    LqrController: _BatchLqr,
}

_PID_PARAMS = ("kp", "ki", "kd", "accel_max", "brake_max", "integral_limit")

_PROFILE_SAMPLES = 4
"""``SpeedProfile.target_speed``'s preview samples past the station."""


def follower_key(follower: WaypointFollower) -> tuple:
    """Every parameter the vectorized path reads off a vectorizable follower.

    Two followers with equal keys evolve identically on the vector path
    from identical inputs; :func:`~repro.sim.batch.engine.prefix_key`
    relies on this to let their lanes share a simulated prefix.
    """
    lateral = follower.lateral
    impl = _LATERAL_IMPLS[type(lateral)]
    pid = follower.speed_controller
    return (
        type(lateral).__name__,
        tuple(_param_key(getattr(lateral, name)) for name in impl.PARAMS),
        follower.profile,
        tuple(getattr(pid, name) for name in _PID_PARAMS),
        follower.acc.config if follower.acc is not None else None,
    )


class BatchFollower(LaneState):
    """Vectorized ``WaypointFollower`` over a subset of batch lanes.

    Args:
        followers: one (vectorizable) follower per lane of the subset.
        route: the shared batched route.
    """

    _LANE_FIELDS = (
        "cruise", "budget", "preview", "brake_decel", "stop_at_goal",
        "kp", "ki", "kd", "pid_accel_max", "pid_brake_max", "int_limit",
        "integral", "prev_error", "has_prev", "has_acc", "acc_time_gap",
        "acc_d0", "acc_k_gap", "acc_k_rate", "acc_accel_max",
        "acc_brake_max", "last_radar_range", "last_radar_rate",
        "has_last_radar", "goal_latched", "preview_offsets",
    )

    def __init__(self, followers: list[WaypointFollower], route: BatchRoute):
        self.n = n = len(followers)
        self.route = route

        # Lateral controllers, grouped by concrete type.
        self._groups: list[tuple[np.ndarray, object]] = []
        by_type: dict[type, list[int]] = {}
        for i, follower in enumerate(followers):
            by_type.setdefault(type(follower.lateral), []).append(i)
        for lateral_type, lane_ids in by_type.items():
            impl = _LATERAL_IMPLS[lateral_type](
                [followers[i].lateral for i in lane_ids], route
            )
            self._groups.append((np.array(lane_ids), impl))

        profiles = [f.profile for f in followers]
        self.cruise = np.array([p.cruise_speed for p in profiles])
        self.budget = np.array([p.lat_accel_budget for p in profiles])
        self.preview = np.array([p.preview for p in profiles])
        self.brake_decel = np.array([p.brake_decel for p in profiles])
        self.stop_at_goal = np.array([p.stop_at_goal for p in profiles])
        # The speed profile's preview stations past the lane's station,
        # preview * i / samples as the serial loop computes them.
        self.preview_offsets = (
            self.preview[:, None] * np.arange(_PROFILE_SAMPLES + 1)
            / _PROFILE_SAMPLES
        )

        pids = [f.speed_controller for f in followers]
        (self.kp, self.ki, self.kd, self.pid_accel_max, self.pid_brake_max,
         self.int_limit) = (np.array([getattr(p, name) for p in pids])
                            for name in _PID_PARAMS)
        self.integral = np.zeros(n)
        self.prev_error = np.zeros(n)
        self.has_prev = np.zeros(n, dtype=bool)

        self.has_acc = np.array([f.acc is not None for f in followers])
        acc_cfg = [
            (f.acc.config if f.acc is not None else AccController().config)
            for f in followers
        ]
        self.acc_time_gap = np.array([c.time_gap for c in acc_cfg])
        self.acc_d0 = np.array([c.standstill_gap for c in acc_cfg])
        self.acc_k_gap = np.array([c.k_gap for c in acc_cfg])
        self.acc_k_rate = np.array([c.k_rate for c in acc_cfg])
        self.acc_accel_max = np.array([c.accel_max for c in acc_cfg])
        self.acc_brake_max = np.array([c.brake_max for c in acc_cfg])
        self.last_radar_range = np.zeros(n)
        self.last_radar_rate = np.zeros(n)
        self.has_last_radar = np.zeros(n, dtype=bool)

        self.goal_latched = np.zeros(n, dtype=bool)

    # ------------------------------------------------------------------
    def take(self, index) -> "BatchFollower":
        """Lanes ``index`` in that order, lateral groups re-indexed too."""
        index = np.asarray(index, dtype=np.int64)
        new = super().take(index)
        group_of = np.empty(self.n, dtype=np.int64)
        local_of = np.empty(self.n, dtype=np.int64)
        for g, (lane_ids, _) in enumerate(self._groups):
            group_of[lane_ids] = g
            local_of[lane_ids] = np.arange(len(lane_ids))
        picked = group_of[index]
        new._groups = []
        for g, (_, impl) in enumerate(self._groups):
            sel = np.flatnonzero(picked == g)
            if sel.size:
                new._groups.append((sel, impl.take(local_of[index[sel]])))
        return new

    def concat(self, other: "BatchFollower") -> "BatchFollower":
        """This follower's lanes followed by ``other``'s."""
        new = super().concat(other)
        merged: dict[type, tuple[np.ndarray, object]] = {}
        for offset, groups in ((0, self._groups), (self.n, other._groups)):
            for lane_ids, impl in groups:
                key = type(impl)
                if key in merged:
                    ids, have = merged[key]
                    merged[key] = (np.concatenate([ids, lane_ids + offset]),
                                   have.concat(impl))
                else:
                    merged[key] = (lane_ids + offset, impl)
        new._groups = list(merged.values())
        return new

    # ------------------------------------------------------------------
    def _target_speed(self, station: np.ndarray,
                      remaining: np.ndarray | None) -> np.ndarray:
        """Vectorized ``SpeedProfile.target_speed``."""
        # One route query over the stacked preview stations.  The serial
        # fold takes min(target, candidate) where kappa > 1e-6; Python's
        # min never takes a NaN candidate (NaN < target is False), and
        # neither does np.fmin, so the fold is one fmin reduction over the
        # kept candidates (NaN elsewhere), then Python's min against the
        # cruise speed, which keeps a NaN cruise speed and wins ties.
        kappa = np.abs(
            self.route.curvature(station + self.preview_offsets.T))
        cand = np.empty(kappa.shape)
        cand.fill(np.nan)
        np.divide(self.budget, kappa, out=cand, where=kappa > 1e-6)
        np.sqrt(cand, out=cand)
        target = ops.pymin(self.cruise, np.fmin.reduce(cand, axis=0))
        if remaining is not None:
            v_stop = np.sqrt(ops.pymax(2.0 * self.brake_decel * remaining, 0.0))
            target = np.where(
                self.stop_at_goal, ops.pymin(target, v_stop), target
            )
        return ops.pymax(target, 0.0)

    # ------------------------------------------------------------------
    def decide(
        self,
        est_x: np.ndarray,
        est_y: np.ndarray,
        est_yaw: np.ndarray,
        est_v: np.ndarray,
        dt: float,
        radar_range: np.ndarray,
        radar_rate: np.ndarray,
        radar_fresh: np.ndarray,
        truth: tuple,
    ) -> tuple[tuple[np.ndarray, ...], BatchProjection]:
        """One control step for every lane of the subset.

        ``truth`` is one more ``(px, py, hint, has_hint)`` projection
        query, the engine's ground truth: it shares the kernel call of
        the lateral controllers' first projections.

        Returns ``(steer_cmd, accel_cmd, cte, heading_err, station,
        target_speed)`` arrays and the projection of ``truth``.
        """
        groups = self._groups
        if len(groups) == 1:  # its lanes are 0..n-1, in order
            lanes = [(est_x, est_y, est_yaw, est_v)]
        else:
            lanes = [(est_x[ids], est_y[ids], est_yaw[ids], est_v[ids])
                     for ids, _ in groups]
        *projections, truth_proj = self.route.project_many(
            [impl.query(x, y, yaw)
             for (x, y, yaw, _), (_, impl) in zip(lanes, groups)]
            + [truth])
        outs = [impl.compute(*lane, dt, proj)
                for lane, (_, impl), proj in zip(lanes, groups, projections)]
        if len(outs) == 1:
            steer, cte, heading_err, station = outs[0]
        else:
            steer, cte, heading_err, station = (np.empty(self.n)
                                                 for _ in range(4))
            for (ids, _), out in zip(groups, outs):
                steer[ids], cte[ids], heading_err[ids], station[ids] = out

        remaining = None
        if not self.route.closed:
            remaining = self.route.remaining(station)
            hit_goal = (remaining < 3.0) | ((remaining < 8.0) & (est_v < 2.0))
            self.goal_latched |= self.stop_at_goal & hit_goal
        latched = self.goal_latched
        active = ~latched

        target_speed = self._target_speed(station, remaining)

        # --- PID with conditional integration (state frozen on latch) --
        error = target_speed - est_v
        derivative = np.where(
            self.has_prev, (error - self.prev_error) / dt, 0.0
        )
        self.prev_error = np.where(active, error, self.prev_error)
        self.has_prev |= active
        unsat = self.kp * error + self.ki * self.integral + self.kd * derivative
        saturated_hi = unsat > self.pid_accel_max
        saturated_lo = unsat < -self.pid_brake_max
        allow = ~((saturated_hi & (error > 0)) | (saturated_lo & (error < 0)))
        new_integral = ops.clamp(
            self.integral + error * dt, -self.int_limit, self.int_limit
        )
        self.integral = np.where(active & allow, new_integral, self.integral)
        output = self.kp * error + self.ki * self.integral + self.kd * derivative
        accel_cmd = ops.clamp(output, -self.pid_brake_max, self.pid_accel_max)

        # --- ACC min-arbitration ---------------------------------------
        if np.count_nonzero(self.has_acc):
            take = active & self.has_acc & radar_fresh
            self.last_radar_range = np.where(
                take, radar_range, self.last_radar_range
            )
            self.last_radar_rate = np.where(take, radar_rate, self.last_radar_rate)
            self.has_last_radar |= take
            gap_error = self.last_radar_range - (
                self.acc_d0 + self.acc_time_gap * est_v
            )
            acc_accel = ops.clamp(
                self.acc_k_gap * gap_error + self.acc_k_rate * self.last_radar_rate,
                -self.acc_brake_max,
                self.acc_accel_max,
            )
            # min(accel_cmd, acc_accel) where the lane has an ACC track.
            use = self.has_acc & self.has_last_radar & (acc_accel < accel_cmd)
            accel_cmd = np.where(use, acc_accel, accel_cmd)

        if np.count_nonzero(latched):
            steer = np.where(latched, 0.0, steer)
            accel_cmd = np.where(latched, -self.brake_decel, accel_cmd)
            target_speed = np.where(latched, 0.0, target_speed)
        return ((steer, accel_cmd, cte, heading_err, station, target_speed),
                truth_proj)
