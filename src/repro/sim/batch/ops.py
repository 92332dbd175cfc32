"""Elementwise primitives that mirror the serial engine's scalar math.

The batched engine's contract is *bit-exactness*: for every lane, every
recorded float must equal the one the serial :class:`~repro.sim.engine.
SimulationRunner` produces.  That rules out "obvious" vectorizations in a
few places, all concentrated here:

* ``min``/``max``/``_clamp`` — CPython's builtins keep the *first*
  argument on ties and propagate NaN positionally; the ``np.where``
  chains below reproduce those semantics exactly (``np.minimum`` etc. do
  not, and differ on NaN).
* ``math.tan/atan/atan2/hypot`` disagree with their numpy ufunc
  counterparts in the last ulp on this platform (empirically verified),
  so those few call sites go through scalar loops (:func:`map1`/
  :func:`map2`).  ``sin``/``cos``/``sqrt``/``fmod``/``exp-of-scalar``
  *do* match and stay vectorized.
* :func:`normalize_angle` — vectorized ``np.fmod`` matches
  ``math.fmod`` bitwise; the non-finite guard raises like the scalar
  version so a NaN-poisoned lane fails the whole batch exactly where the
  serial run would crash (callers fall back to serial execution).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "clamp",
    "pymax",
    "pymin",
    "normalize_angle",
    "angle_diff",
    "map1",
    "map2",
]

_TWO_PI = 2.0 * math.pi


def clamp(value: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``lo if v < lo else hi if v > hi else v`` — the engine's _clamp."""
    return np.where(value < lo, lo, np.where(value > hi, hi, value))


def pymax(a: np.ndarray, b) -> np.ndarray:
    """Python's two-argument ``max(a, b)``: ``b if b > a else a``."""
    return np.where(b > a, b, a)


def pymin(a: np.ndarray, b) -> np.ndarray:
    """Python's two-argument ``min(a, b)``: ``b if b < a else a``."""
    return np.where(b < a, b, a)


def normalize_angle(angle: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.geom.angles.normalize_angle` (bit-exact)
    over a per-lane array.

    Raises:
        ValueError: if any element is non-finite — the same failure the
            scalar version raises for the offending lane.  Batch callers
            treat this as "this batch contains a lane the serial engine
            would crash on" and fall back to serial execution.
    """
    angle = np.asarray(angle)
    if np.count_nonzero(np.isfinite(angle)) != angle.size:
        raise ValueError("cannot normalize non-finite angle in batch")
    wrapped = np.fmod(angle, _TWO_PI)
    # A lane wrapped down lands in (-pi, 0), so the second test, like the
    # serial elif, never moves it again.
    np.copyto(wrapped, wrapped - _TWO_PI, where=wrapped > math.pi)
    np.copyto(wrapped, wrapped + _TWO_PI, where=wrapped <= -math.pi)
    return wrapped


def angle_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.geom.angles.angle_diff`."""
    return normalize_angle(a - b)


def map1(fn, a: np.ndarray) -> np.ndarray:
    """Apply a scalar ``math.*`` function per element (libm fidelity)."""
    return np.array(list(map(fn, a.tolist())), dtype=float)


def map2(fn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-argument :func:`map1` (``atan2``, ``hypot``)."""
    if np.shape(b) != np.shape(a):
        b = np.broadcast_to(b, np.shape(a))
    return np.array(list(map(fn, a.tolist(), b.tolist())), dtype=float)
