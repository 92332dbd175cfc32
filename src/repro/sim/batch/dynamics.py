"""Batched vehicle: actuator lag + bicycle dynamics over lane arrays.

Mirrors :class:`repro.sim.vehicle.Vehicle` (two-phase command latch, then
actuators, then model) with every scalar expression vectorized in the
serial association order.  ``math.tan`` goes through a scalar loop —
its numpy ufunc differs in the last ulp — while ``sin``/``cos``/``exp``
(of the lane-constant lag factor) match bitwise and stay vectorized.

The serial model clamps the applied steer and accel to its limits once
more; the actuators have just clamped them to the same limits (they are
derived from the same parameters), so that clamp returns them unchanged
and is left out here.

The dynamic model computes both the linear-tire branch and the kinematic
low-speed branch for every lane and selects per lane afterwards; the
discarded branch may contain inf/NaN from the ``1/v`` terms, which is why
selection happens *before* the final angle normalization.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sim.actuators import ActuatorLimits
from repro.sim.batch import ops
from repro.sim.batch.lanes import LaneState
from repro.sim.dynamics import VehicleParams

__all__ = ["BatchVehicle"]


class BatchVehicle(LaneState):
    """``n`` vehicles stepped in lockstep (shared params, per-lane state)."""

    _LANE_FIELDS = (
        "x", "y", "yaw", "v", "vy", "yaw_rate", "accel", "steer",
        "act_steer", "act_accel", "cmd_steer", "cmd_accel",
    )

    def __init__(
        self,
        n: int,
        model: str,
        x: np.ndarray,
        y: np.ndarray,
        yaw: np.ndarray,
        v: np.ndarray,
        params: VehicleParams | None = None,
        blend_speed: float = 3.0,
    ):
        if model not in ("kinematic", "dynamic"):
            raise ValueError(f"unknown model {model!r}")
        self.n = n
        self.model = model
        self.params = params or VehicleParams()
        self.blend_speed = blend_speed
        # Same derivation Vehicle.__init__ uses for its default limits.
        self.limits = ActuatorLimits(
            steer_max=self.params.max_steer,
            accel_max=self.params.max_accel,
            brake_max=self.params.max_brake,
        )
        self.x = np.asarray(x, dtype=float).copy()
        self.y = np.asarray(y, dtype=float).copy()
        self.yaw = np.asarray(yaw, dtype=float).copy()
        self.v = np.asarray(v, dtype=float).copy()
        self.vy = np.zeros(n)
        self.yaw_rate = np.zeros(n)
        self.accel = np.zeros(n)  # last applied longitudinal accel
        self.steer = np.zeros(n)  # last applied front wheel angle
        self.act_steer = np.zeros(n)  # actuator internal state
        self.act_accel = np.zeros(n)
        self.cmd_steer = np.zeros(n)  # latched commands
        self.cmd_accel = np.zeros(n)

    # ------------------------------------------------------------------
    def apply_control(self, steer_cmd: np.ndarray, accel_cmd: np.ndarray) -> None:
        """Latch per-lane commands; they take effect at the next step."""
        self.cmd_steer = np.asarray(steer_cmd, dtype=float)
        self.cmd_accel = np.asarray(accel_cmd, dtype=float)

    def step(self, dt: float) -> None:
        """Advance actuators and dynamics by ``dt`` for every lane."""
        steer_applied, accel_applied = self._apply_actuators(dt)
        if self.model == "kinematic":
            out = self._step_kinematic(steer_applied, accel_applied, dt)
        else:
            out = self._step_dynamic(steer_applied, accel_applied, dt)
        x1, y1, raw_yaw, v1, vy1, r1, accel, steer = out
        self.x = x1
        self.y = y1
        self.yaw = ops.normalize_angle(raw_yaw)
        self.v = v1
        self.vy = vy1
        self.yaw_rate = r1
        self.accel = accel
        self.steer = steer

    # ------------------------------------------------------------------
    def _apply_actuators(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        lim = self.limits
        target_steer = ops.clamp(self.cmd_steer, -lim.steer_max, lim.steer_max)
        if lim.steer_tau > 0:
            alpha = 1.0 - math.exp(-dt / lim.steer_tau)
            desired = self.act_steer + alpha * (target_steer - self.act_steer)
        else:
            desired = target_steer
        max_delta = lim.steer_rate_max * dt
        delta = ops.clamp(desired - self.act_steer, -max_delta, max_delta)
        self.act_steer = ops.clamp(
            self.act_steer + delta, -lim.steer_max, lim.steer_max
        )

        target_accel = ops.clamp(self.cmd_accel, -lim.brake_max, lim.accel_max)
        if lim.accel_tau > 0:
            alpha = 1.0 - math.exp(-dt / lim.accel_tau)
            self.act_accel = self.act_accel + alpha * (target_accel - self.act_accel)
        else:
            self.act_accel = target_accel
        self.act_accel = ops.clamp(self.act_accel, -lim.brake_max, lim.accel_max)
        return self.act_steer, self.act_accel

    # ------------------------------------------------------------------
    def _step_kinematic(
        self, steer: np.ndarray, accel: np.ndarray, dt: float
    ) -> tuple[np.ndarray, ...]:
        p = self.params
        v0 = self.v
        a_net = accel - p.drag_coeff * v0
        v1 = ops.clamp(v0 + a_net * dt, 0.0, p.max_speed)
        v_mid = 0.5 * (v0 + v1)

        yaw_rate = v_mid * ops.map1(math.tan, steer) / p.wheelbase
        yaw_mid = self.yaw + 0.5 * yaw_rate * dt
        x1 = self.x + v_mid * np.cos(yaw_mid) * dt
        y1 = self.y + v_mid * np.sin(yaw_mid) * dt
        raw_yaw = self.yaw + yaw_rate * dt
        return x1, y1, raw_yaw, v1, np.zeros(self.n), yaw_rate, accel, steer

    def _step_dynamic(
        self, steer: np.ndarray, accel: np.ndarray, dt: float
    ) -> tuple[np.ndarray, ...]:
        p = self.params
        kin = self._step_kinematic(steer, accel, dt)

        v = self.v
        vy = self.vy
        r = self.yaw_rate
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha_f = (vy + p.lf * r) / v - steer
            alpha_r = (vy - p.lr * r) / v
            fyf = -p.cornering_front * alpha_f
            fyr = -p.cornering_rear * alpha_r
            vy_dot = (fyf + fyr) / p.mass - v * r
            r_dot = (p.lf * fyf - p.lr * fyr) / p.inertia_z

            a_net = accel - p.drag_coeff * v
            v1 = ops.clamp(v + a_net * dt, 0.0, p.max_speed)
            vy1 = vy + vy_dot * dt
            r1 = r + r_dot * dt

            yaw_mid = self.yaw + 0.5 * r1 * dt
            cos_y = np.cos(yaw_mid)
            sin_y = np.sin(yaw_mid)
            vx_world = v * cos_y - vy * sin_y
            vy_world = v * sin_y + vy * cos_y
            x1 = self.x + vx_world * dt
            y1 = self.y + vy_world * dt
            raw_yaw = self.yaw + r1 * dt

        low = self.v < self.blend_speed
        dyn = (x1, y1, raw_yaw, v1, vy1, r1, accel, steer)
        return tuple(np.where(low, k, d) for k, d in zip(kin, dyn))
