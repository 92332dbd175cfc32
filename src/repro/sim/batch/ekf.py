"""Batched EKF: stacked ``(n, 4)`` states / ``(n, 4, 4)`` covariances.

Mirrors :class:`repro.control.estimator.Ekf` operation-for-operation.
Every product keeps the serial association order — ``(h @ p) @ h.T + r``,
``(p @ h.T) @ s_inv``, Joseph form ``(i_kh @ p) @ i_kh.T + (k @ r) @ k.T``
— as stacked ``matmul`` calls, which numpy evaluates bit-identically to
the per-lane 2-D products (verified empirically, including broadcast with
a shared 2-D ``h``).  Lanes update under boolean masks so a lane without a
fresh reading keeps its state untouched, exactly like a serial filter that
simply wasn't called.
"""

from __future__ import annotations

import numpy as np

from repro.control.estimator import EkfConfig
from repro.sim.batch import ops
from repro.sim.batch.lanes import LaneState

__all__ = ["BatchEkf"]

_H_GPS = np.zeros((2, 4))
_H_GPS[0, 0] = 1.0
_H_GPS[1, 1] = 1.0
_H_SPEED = np.zeros((1, 4))
_H_SPEED[0, 3] = 1.0
_H_COMPASS = np.zeros((1, 4))
_H_COMPASS[0, 2] = 1.0


class BatchEkf(LaneState):
    """``n`` independent EKFs stepped in lockstep.

    Per-lane configurations may differ (e.g. a gated lane next to an
    ungated one); scalar config parameters become per-lane arrays.
    """

    _LANE_FIELDS = (
        "_sigma_gps_sq", "_sigma_speed_sq", "_sigma_compass_sq", "_q_diag",
        "_p0_diag", "_gate", "_x", "_p", "nis_gps", "nis_speed",
        "nis_compass",
    )

    def __init__(self, configs: "list[EkfConfig]"):
        n = len(configs)
        self.n = n
        cfg = [c or EkfConfig() for c in configs]
        self._sigma_gps_sq = np.array([c.sigma_gps**2 for c in cfg])
        self._sigma_speed_sq = np.array([c.sigma_speed**2 for c in cfg])
        self._sigma_compass_sq = np.array([c.sigma_compass**2 for c in cfg])
        self._q_diag = np.array([[c.q_pos, c.q_pos, c.q_yaw, c.q_v] for c in cfg])
        self._p0_diag = np.array(
            [[c.p0_pos, c.p0_pos, c.p0_yaw, c.p0_v] for c in cfg]
        )
        # NaN encodes "no gate": any NIS comparison against NaN is False,
        # so ungated lanes always accept the measurement.
        self._gate = np.array(
            [np.nan if c.gate_nis is None else c.gate_nis for c in cfg]
        )
        self._x = np.zeros((n, 4))
        self._p = np.zeros((n, 4, 4))
        self.nis_gps = np.zeros(n)
        self.nis_speed = np.zeros(n)
        self.nis_compass = np.zeros(n)

    def reset(self, x: np.ndarray, y: np.ndarray, yaw: np.ndarray,
              v: np.ndarray) -> None:
        """Initialize every lane's state (scenario start pose)."""
        self._x = np.stack([x, y, ops.normalize_angle(yaw), v], axis=1)
        self._p = np.zeros((self.n, 4, 4))
        idx = np.arange(4)
        self._p[:, idx, idx] = self._p0_diag
        self.nis_gps = np.zeros(self.n)
        self.nis_speed = np.zeros(self.n)
        self.nis_compass = np.zeros(self.n)

    # ------------------------------------------------------------------
    def predict(self, yaw_rate: np.ndarray, accel: np.ndarray,
                dt: np.ndarray, mask: np.ndarray) -> None:
        """Propagate masked lanes with their IMU inputs over per-lane dt."""
        if not mask.any():
            return
        x, y, yaw, v = (self._x[:, i] for i in range(4))
        cos_y = np.cos(yaw)
        sin_y = np.sin(yaw)
        new_x = np.stack([
            x + v * cos_y * dt,
            y + v * sin_y * dt,
            ops.normalize_angle(yaw + yaw_rate * dt),
            ops.pymax(v + accel * dt, 0.0),
        ], axis=1)
        f = np.broadcast_to(np.eye(4), (self.n, 4, 4)).copy()
        f[:, 0, 2] = -v * sin_y * dt
        f[:, 0, 3] = cos_y * dt
        f[:, 1, 2] = v * cos_y * dt
        f[:, 1, 3] = sin_y * dt
        q = np.zeros((self.n, 4, 4))
        idx = np.arange(4)
        q[:, idx, idx] = self._q_diag * dt[:, None]
        new_p = np.matmul(np.matmul(f, self._p), f.transpose(0, 2, 1)) + q
        self._x[mask] = new_x[mask]
        self._p[mask] = new_p[mask]

    # ------------------------------------------------------------------
    def update_gps(self, gx: np.ndarray, gy: np.ndarray,
                   mask: np.ndarray) -> None:
        if not mask.any():
            return
        r = np.zeros((self.n, 2, 2))
        r[:, 0, 0] = self._sigma_gps_sq
        r[:, 1, 1] = self._sigma_gps_sq
        innov = np.stack([gx, gy], axis=1) - np.matmul(
            _H_GPS, self._x[:, :, None]
        )[:, :, 0]
        nis = self._update(_H_GPS, r, innov, mask)
        self.nis_gps = np.where(mask, nis, self.nis_gps)

    def update_speed(self, speed: np.ndarray, mask: np.ndarray) -> None:
        if not mask.any():
            return
        r = self._sigma_speed_sq[:, None, None]
        innov = (speed - self._x[:, 3])[:, None]
        nis = self._update(_H_SPEED, r, innov, mask)
        self.nis_speed = np.where(mask, nis, self.nis_speed)

    def update_compass(self, yaw: np.ndarray, mask: np.ndarray) -> None:
        if not mask.any():
            return
        r = self._sigma_compass_sq[:, None, None]
        innov = ops.angle_diff(yaw, self._x[:, 2])[:, None]
        nis = self._update(_H_COMPASS, r, innov, mask)
        self.nis_compass = np.where(mask, nis, self.nis_compass)
        # The serial filter re-normalizes yaw after *every* compass update,
        # gated or not.
        norm_yaw = ops.normalize_angle(self._x[:, 2])
        self._x[:, 2] = np.where(mask, norm_yaw, self._x[:, 2])

    def _update(self, h: np.ndarray, r: np.ndarray, innov: np.ndarray,
                mask: np.ndarray) -> np.ndarray:
        s = np.matmul(np.matmul(h, self._p), h.T) + r
        s_inv = np.linalg.inv(s)
        nis = np.matmul(
            np.matmul(innov[:, None, :], s_inv), innov[:, :, None]
        )[:, 0, 0]
        # Gated lanes report the NIS but keep state and covariance.
        upd = mask & ~(nis > self._gate)
        if upd.any():
            k = np.matmul(np.matmul(self._p, h.T), s_inv)
            new_x = self._x + np.matmul(k, innov[:, :, None])[:, :, 0]
            new_x[:, 3] = ops.pymax(new_x[:, 3], 0.0)
            i_kh = np.eye(4) - np.matmul(k, h)
            new_p = (
                np.matmul(np.matmul(i_kh, self._p), i_kh.transpose(0, 2, 1))
                + np.matmul(np.matmul(k, r), k.transpose(0, 2, 1))
            )
            self._x[upd] = new_x[upd]
            self._p[upd] = new_p[upd]
        return nis

    # ------------------------------------------------------------------
    @property
    def est_x(self) -> np.ndarray:
        return self._x[:, 0]

    @property
    def est_y(self) -> np.ndarray:
        return self._x[:, 1]

    @property
    def est_yaw(self) -> np.ndarray:
        return ops.normalize_angle(self._x[:, 2])

    @property
    def est_v(self) -> np.ndarray:
        return self._x[:, 3]

    @property
    def cov_trace(self) -> np.ndarray:
        return np.trace(self._p, axis1=1, axis2=2)
