"""Sensor models: rate-scheduled, noisy views of the ground truth.

Each sensor samples the vehicle's true state at its own rate, corrupts it
with a configurable noise model, and produces a typed reading.  Attacks act
on these readings *after* the sensor and *before* the estimator — exactly
the man-in-the-middle position of the spoofing attacks the paper debugs.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Sensor",
    "SensorConfig",
    "Gps",
    "GpsFix",
    "Imu",
    "ImuReading",
    "Odometry",
    "OdometryReading",
    "Compass",
    "CompassReading",
    "SensorSuite",
    "SensorSuiteConfig",
    "SensorReadings",
]

__getattr__ = lazy_exports(__name__, {
    ".base": ("Sensor", "SensorConfig"),
    ".compass": ("Compass", "CompassReading"),
    ".gps": ("Gps", "GpsFix"),
    ".imu": ("Imu", "ImuReading"),
    ".odometry": ("Odometry", "OdometryReading"),
    ".suite": ("SensorReadings", "SensorSuite", "SensorSuiteConfig"),
})
