"""Linear MPC lateral controller (condensed QP with steering bounds).

Same kinematic error model as the LQR controller, but optimized over a
finite horizon with curvature *preview*: the curvature profile along the
route enters the prediction as a known affine disturbance, so the
controller steers into corners before the error appears.

The condensed problem

    min_U  sum_k ||e_k||_Q^2 + ||u_k||_R^2
    s.t.   e_{k+1} = A e_k + B u_k + w_k,   |u_k| <= max_steer

is a bounded least-squares problem solved with
:func:`scipy.optimize.lsq_linear`; only the first control is applied
(receding horizon).
"""

from __future__ import annotations

import numpy as np

from repro.control.base import LateralController, SteerDecision
from repro.geom.angles import angle_diff
from repro.geom.polyline import Polyline
from repro.geom.vec import Pose

__all__ = ["MpcController"]


class MpcController(LateralController):
    """Receding-horizon linear MPC path tracker.

    Args:
        wheelbase: vehicle wheelbase, meters.
        horizon: prediction horizon length (steps).
        q_cte / q_heading: stage cost on the error state.
        r_steer: stage cost on steering.
        r_dsteer: cost on steering increments (smoothness).
        max_steer: hard steering bound, rad.
    """

    name = "mpc"

    def __init__(
        self,
        wheelbase: float = 2.7,
        horizon: int = 12,
        q_cte: float = 1.0,
        q_heading: float = 2.5,
        r_steer: float = 4.0,
        r_dsteer: float = 10.0,
        max_steer: float = 0.61,
    ):
        if horizon < 2:
            raise ValueError("horizon must be at least 2")
        if min(q_cte, q_heading, r_steer) <= 0 or r_dsteer < 0:
            raise ValueError("MPC weights must be positive (r_dsteer >= 0)")
        self.wheelbase = wheelbase
        self.horizon = horizon
        self.q_sqrt = np.diag([np.sqrt(q_cte), np.sqrt(q_heading)])
        self.r_sqrt = np.sqrt(r_steer)
        self.dr_sqrt = np.sqrt(r_dsteer)
        self.max_steer = max_steer
        self._station_hint: float | None = None
        self._prev_solution: np.ndarray | None = None

    def reset(self) -> None:
        self._station_hint = None
        self._prev_solution = None

    def compute_steer(
        self, pose: Pose, speed: float, route: Polyline, dt: float
    ) -> SteerDecision:
        proj = route.project(pose.position, hint_station=self._station_hint)
        self._station_hint = proj.station

        cte = proj.cross_track
        heading_err = angle_diff(pose.yaw, proj.heading)
        e0 = np.array([cte, heading_err])

        v = max(speed, 0.5)
        n = self.horizon
        a = np.array([[1.0, v * dt], [0.0, 1.0]])
        b = np.array([[0.0], [v * dt / self.wheelbase]])

        # Curvature preview along the horizon (known disturbance).
        kappas = np.array([
            route.lookahead(proj.station, v * dt * (k + 1)).curvature
            for k in range(n)
        ])
        w = np.zeros((n, 2))
        w[:, 1] = -v * kappas * dt

        # Batch prediction matrices: E = sx @ e0 + su @ U + sw_vec.
        sx = np.zeros((2 * n, 2))
        su = np.zeros((2 * n, n))
        sw_vec = np.zeros(2 * n)
        a_pow = [np.eye(2)]
        for _ in range(n):
            a_pow.append(a @ a_pow[-1])
        for k in range(n):
            sx[2 * k:2 * k + 2, :] = a_pow[k + 1]
            acc = np.zeros(2)
            for j in range(k + 1):
                block = a_pow[k - j] @ b
                su[2 * k:2 * k + 2, j] = block[:, 0]
                acc += a_pow[k - j] @ w[j]
            sw_vec[2 * k:2 * k + 2] = acc

        q_big = np.kron(np.eye(n), self.q_sqrt)
        rows = [q_big @ su, self.r_sqrt * np.eye(n)]
        rhs = [-(q_big @ (sx @ e0 + sw_vec)), np.zeros(n)]
        if self.dr_sqrt > 0:
            diff = np.zeros((n, n))
            np.fill_diagonal(diff, 1.0)
            diff[np.arange(1, n), np.arange(0, n - 1)] = -1.0
            rows.append(self.dr_sqrt * diff)
            prev_u = 0.0
            if self._prev_solution is not None:
                prev_u = float(self._prev_solution[0])
            rhs_diff = np.zeros(n)
            rhs_diff[0] = self.dr_sqrt * prev_u
            rhs.append(rhs_diff)

        # Imported at the first solve, like the LQR's DARE solver.
        from scipy.optimize import lsq_linear

        a_ls = np.vstack(rows)
        b_ls = np.concatenate(rhs)
        result = lsq_linear(
            a_ls, b_ls, bounds=(-self.max_steer, self.max_steer),
            method="bvls", tol=1e-8,
        )
        u = result.x
        self._prev_solution = u
        steer = float(np.clip(u[0], -self.max_steer, self.max_steer))

        return SteerDecision(
            steer=steer, cte=cte, heading_err=heading_err, station=proj.station
        )
