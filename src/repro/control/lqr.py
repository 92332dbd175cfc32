"""LQR lateral controller over the kinematic error model.

Error state ``e = [cte, heading_err]`` with the discrete kinematic
linearization (valid for small errors at speed ``v``):

    cte'         = cte + v * heading_err * dt
    heading_err' = heading_err + (v/L) * steer * dt - v * kappa * dt

The feedback gain solves the discrete algebraic Riccati equation at the
current speed (gains are cached per quantized speed — re-solving the DARE
at 20 Hz would dominate the control cost for no accuracy benefit).  A
curvature feedforward ``atan(L * kappa)`` centers the regulator on the
path's nominal steering.
"""

from __future__ import annotations

import math

import numpy as np

from repro.control.base import LateralController, SteerDecision
from repro.geom.angles import angle_diff
from repro.geom.polyline import Polyline
from repro.geom.vec import Pose

__all__ = ["LqrController"]


class LqrController(LateralController):
    """Discrete LQR path tracker with curvature feedforward.

    Args:
        wheelbase: vehicle wheelbase, meters.
        q_cte: state cost on cross-track error.
        q_heading: state cost on heading error.
        r_steer: input cost on steering.
        preview: lookahead distance (meters) at which the feedforward
            curvature is sampled, compensating actuator lag.
        max_steer: output saturation, rad.
    """

    name = "lqr"
    supports_batch = True

    _SPEED_QUANTUM = 0.25  # m/s; gain cache resolution

    def __init__(
        self,
        wheelbase: float = 2.7,
        q_cte: float = 1.0,
        q_heading: float = 3.0,
        r_steer: float = 8.0,
        preview: float = 4.0,
        max_steer: float = 0.61,
    ):
        if min(q_cte, q_heading, r_steer) <= 0:
            raise ValueError("LQR weights must be positive")
        self.wheelbase = wheelbase
        self.q = np.diag([q_cte, q_heading])
        self.r = np.array([[r_steer]])
        self.preview = preview
        self.max_steer = max_steer
        self._station_hint: float | None = None
        self._gain_cache: dict[tuple[int, int], np.ndarray] = {}

    def reset(self) -> None:
        self._station_hint = None

    def _gain(self, speed: float, dt: float) -> np.ndarray:
        v = max(speed, 0.5)  # keep the model controllable near standstill
        key = (int(round(v / self._SPEED_QUANTUM)), int(round(dt * 1e4)))
        if key not in self._gain_cache:
            # Imported at the first solve: launches that never run an LQR
            # lane (checks, cached campaigns, the service) skip scipy.
            from scipy.linalg import solve_discrete_are

            v_q = key[0] * self._SPEED_QUANTUM
            a = np.array([[1.0, v_q * dt], [0.0, 1.0]])
            b = np.array([[0.0], [v_q * dt / self.wheelbase]])
            p = solve_discrete_are(a, b, self.q, self.r)
            k = np.linalg.solve(self.r + b.T @ p @ b, b.T @ p @ a)
            self._gain_cache[key] = k
        return self._gain_cache[key]

    def compute_steer(
        self, pose: Pose, speed: float, route: Polyline, dt: float
    ) -> SteerDecision:
        proj = route.project(pose.position, hint_station=self._station_hint)
        self._station_hint = proj.station

        cte = proj.cross_track
        heading_err = angle_diff(pose.yaw, proj.heading)
        e = np.array([cte, heading_err])
        k = self._gain(speed, dt)
        feedback = float(-(k @ e)[0])

        kappa = route.lookahead(proj.station, self.preview).curvature
        feedforward = math.atan(self.wheelbase * kappa)

        steer = _clamp(feedback + feedforward, -self.max_steer, self.max_steer)
        return SteerDecision(
            steer=steer, cte=cte, heading_err=heading_err, station=proj.station
        )


def _clamp(value: float, lo: float, hi: float) -> float:
    return lo if value < lo else hi if value > hi else value
