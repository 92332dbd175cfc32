"""Batched EKF: stacked ``(n, 4)`` states / ``(n, 4, 4)`` covariances.

Mirrors :class:`repro.control.estimator.Ekf` operation-for-operation.
Every product keeps the serial association order — ``(h @ p) @ h.T + r``,
``(p @ h.T) @ s_inv``, Joseph form ``(i_kh @ p) @ i_kh.T + (k @ r) @ k.T``
— as stacked ``matmul`` calls, which numpy evaluates bit-identically to
the per-lane 2-D products (verified empirically, including broadcast with
a shared 2-D ``h``).  Lanes update under boolean masks so a lane without a
fresh reading keeps its state untouched, exactly like a serial filter that
simply wasn't called.

The speed and compass innovations are 1x1, and for a 1x1 ``s`` the
serial ``np.linalg.inv(s)`` is ``1.0 / s`` bit for bit (LAPACK solves
``s * x = 1`` by that one division), so those updates divide instead.
``inv`` refuses a singular ``s``; so does the division, with the same
``LinAlgError``, if any lane's ``s`` is zero.  The GPS update's 2x2
``s`` still goes through ``inv``.

``np.count_nonzero`` stands in for ``ndarray.any``/``all`` on the
per-step masks: on arrays this short it is several times cheaper.

Per-call constants live on the filter: the GPS ``r`` per lane, and the
``f`` and ``q`` buffers of :meth:`BatchEkf.predict`, whose fixed
entries (the identity, the zero off-diagonal) are written once.
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
_EYE4 = np.eye(4)
_DIAG4 = np.arange(4)


class BatchEkf(LaneState):
    """``n`` independent EKFs stepped in lockstep.

    Per-lane configurations may differ (e.g. a gated lane next to an
    ungated one); scalar config parameters become per-lane arrays.
    """

    _LANE_FIELDS = (
        "_sigma_gps_sq", "_sigma_speed_sq", "_sigma_compass_sq", "_q_diag",
        "_p0_diag", "_gate", "_x", "_p", "nis_gps", "nis_speed",
        "nis_compass", "_r_gps", "_f", "_q",
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
        self._r_gps = np.zeros((n, 2, 2))
        self._r_gps[:, 0, 0] = self._sigma_gps_sq
        self._r_gps[:, 1, 1] = self._sigma_gps_sq
        # predict() rewrites f's four Jacobian entries and q's diagonal.
        self._f = np.repeat(_EYE4[None], n, axis=0)
        self._q = np.zeros((n, 4, 4))

    def reset(self, x: np.ndarray, y: np.ndarray, yaw: np.ndarray,
              v: np.ndarray) -> None:
        """Initialize every lane's state (scenario start pose)."""
        self._x = np.stack([x, y, ops.normalize_angle(yaw), v], axis=1)
        self._p = np.zeros((self.n, 4, 4))
        self._p[:, _DIAG4, _DIAG4] = self._p0_diag
        self.nis_gps = np.zeros(self.n)
        self.nis_speed = np.zeros(self.n)
        self.nis_compass = np.zeros(self.n)

    # ------------------------------------------------------------------
    def predict(self, yaw_rate: np.ndarray, accel: np.ndarray,
                dt: np.ndarray, mask: np.ndarray) -> None:
        """Propagate masked lanes with their IMU inputs over per-lane dt."""
        if not np.count_nonzero(mask):
            return
        x, y, yaw, v = self._x.T
        cos_y = np.cos(yaw)
        sin_y = np.sin(yaw)
        new_x = np.array((
            x + v * cos_y * dt,
            y + v * sin_y * dt,
            ops.normalize_angle(yaw + yaw_rate * dt),
            ops.pymax(v + accel * dt, 0.0),
        )).T
        f = self._f
        f[:, 0, 2] = -v * sin_y * dt
        f[:, 0, 3] = cos_y * dt
        f[:, 1, 2] = v * cos_y * dt
        f[:, 1, 3] = sin_y * dt
        q = self._q
        q[:, _DIAG4, _DIAG4] = self._q_diag * dt[:, None]
        new_p = np.matmul(np.matmul(f, self._p), f.transpose(0, 2, 1)) + q
        np.copyto(self._x, new_x, where=mask[:, None])
        np.copyto(self._p, new_p, where=mask[:, None, None])

    # ------------------------------------------------------------------
    def update_gps(self, gx: np.ndarray, gy: np.ndarray,
                   mask: np.ndarray) -> None:
        if not np.count_nonzero(mask):
            return
        innov = np.array((gx, gy)).T - np.matmul(
            _H_GPS, self._x[:, :, None]
        )[:, :, 0]
        nis = self._update(_H_GPS, self._r_gps, innov, mask)
        np.copyto(self.nis_gps, nis, where=mask)

    def update_speed(self, speed: np.ndarray, mask: np.ndarray) -> None:
        if not np.count_nonzero(mask):
            return
        r = self._sigma_speed_sq[:, None, None]
        innov = (speed - self._x[:, 3])[:, None]
        nis = self._update(_H_SPEED, r, innov, mask)
        np.copyto(self.nis_speed, nis, where=mask)

    def update_compass(self, yaw: np.ndarray, mask: np.ndarray) -> None:
        if not np.count_nonzero(mask):
            return
        r = self._sigma_compass_sq[:, None, None]
        innov = ops.angle_diff(yaw, self._x[:, 2])[:, None]
        nis = self._update(_H_COMPASS, r, innov, mask)
        np.copyto(self.nis_compass, nis, where=mask)
        # The serial filter re-normalizes yaw after *every* compass update,
        # gated or not.
        np.copyto(self._x[:, 2], ops.normalize_angle(self._x[:, 2]),
                  where=mask)

    def _update(self, h: np.ndarray, r: np.ndarray, innov: np.ndarray,
                mask: np.ndarray) -> np.ndarray:
        s = np.matmul(np.matmul(h, self._p), h.T) + r
        if len(h) == 1:
            # inv of a 1x1 s is 1 / s, bit for bit; it raises on s == 0.
            if np.count_nonzero(s) != len(s):
                raise np.linalg.LinAlgError("Singular matrix")
            s_inv = 1.0 / s
        else:
            s_inv = np.linalg.inv(s)
        nis = np.matmul(
            np.matmul(innov[:, None, :], s_inv), innov[:, :, None]
        )[:, 0, 0]
        # Gated lanes report the NIS but keep state and covariance.
        upd = mask & ~(nis > self._gate)
        if np.count_nonzero(upd):
            k = np.matmul(np.matmul(self._p, h.T), s_inv)
            new_x = self._x + np.matmul(k, innov[:, :, None])[:, :, 0]
            # max(v, 0.0), in place.
            np.copyto(new_x[:, 3], 0.0, where=0.0 > new_x[:, 3])
            i_kh = _EYE4 - np.matmul(k, h)
            new_p = (
                np.matmul(np.matmul(i_kh, self._p), i_kh.transpose(0, 2, 1))
                + np.matmul(np.matmul(k, r), k.transpose(0, 2, 1))
            )
            np.copyto(self._x, new_x, where=upd[:, None])
            np.copyto(self._p, new_p, where=upd[:, None, None])
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
        return self._p.trace(axis1=1, axis2=2)
