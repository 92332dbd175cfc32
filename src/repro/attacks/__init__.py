"""Attack and fault injection.

Attacks sit man-in-the-middle between sensors and the estimator (sensor
channels) or between the controller and the actuators (command channel) —
the positions a compromised ECU, spoofer, or bus attacker occupies on a
real vehicle.  Each attack carries a scheduling window and transforms the
messages of exactly one channel; the engine records exact ground-truth
labels, which is what lets the experiments score detection and diagnosis.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Attack",
    "AttackWindow",
    "GpsBiasAttack",
    "GpsDriftAttack",
    "GpsFreezeAttack",
    "GpsNoiseAttack",
    "GpsReplayAttack",
    "ImuGyroBiasAttack",
    "ImuAccelBiasAttack",
    "OdometryScaleAttack",
    "CompassOffsetAttack",
    "SteeringOffsetAttack",
    "SteeringStuckAttack",
    "RadarRangeScaleAttack",
    "RadarGhostAttack",
    "RadarBlindAttack",
    "CommandDropAttack",
    "CommandDelayAttack",
    "AttackCampaign",
    "ATTACK_CLASSES",
    "make_attack",
    "standard_attack",
    "combined_attack",
]

__getattr__ = lazy_exports(__name__, {
    ".actuator": ("SteeringOffsetAttack", "SteeringStuckAttack"),
    ".base": ("Attack", "AttackWindow"),
    ".campaign": (
        "ATTACK_CLASSES", "AttackCampaign", "combined_attack", "make_attack",
        "standard_attack",
    ),
    ".channel": ("CommandDelayAttack", "CommandDropAttack"),
    ".compass": ("CompassOffsetAttack",),
    ".gps": (
        "GpsBiasAttack", "GpsDriftAttack", "GpsFreezeAttack", "GpsNoiseAttack",
        "GpsReplayAttack",
    ),
    ".imu": ("ImuAccelBiasAttack", "ImuGyroBiasAttack"),
    ".odometry": ("OdometryScaleAttack",),
    ".radar": (
        "RadarBlindAttack", "RadarGhostAttack", "RadarRangeScaleAttack",
    ),
})
