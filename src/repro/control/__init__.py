"""Control algorithms under debug.

This package implements the standard AV path-tracking stack the paper's
methodology targets: an EKF localization filter consuming the (attackable)
sensor channels, four lateral controllers from the path-tracking
literature, a PID longitudinal controller, and a
:class:`~repro.control.follower.WaypointFollower` agent that combines them
into the closed-loop policy the simulator drives.  The
:class:`~repro.control.supervisor.SupervisedController` wrapper hardens
that stack against benign sensor faults (:mod:`repro.faults`) with a
staleness/NaN watchdog and a graceful-degradation policy.
"""

from repro._lazy import lazy_exports

__all__ = [
    "LateralController",
    "SteerDecision",
    "ControlDecision",
    "make_lateral_controller",
    "PurePursuitController",
    "StanleyController",
    "LqrController",
    "MpcController",
    "PidSpeedController",
    "Ekf",
    "EkfConfig",
    "Estimate",
    "WaypointFollower",
    "SpeedProfile",
    "AccController",
    "AccConfig",
    "ControllerDefect",
    "DefectiveController",
    "make_defect",
    "SupervisedController",
    "SupervisorConfig",
    "make_supervised_follower",
]

__getattr__ = lazy_exports(__name__, {
    ".acc": ("AccConfig", "AccController"),
    ".base": (
        "ControlDecision", "LateralController", "SteerDecision",
        "make_lateral_controller",
    ),
    ".defects": ("ControllerDefect", "DefectiveController", "make_defect"),
    ".estimator": ("Ekf", "EkfConfig", "Estimate"),
    ".follower": ("SpeedProfile", "WaypointFollower"),
    ".lqr": ("LqrController",),
    ".mpc": ("MpcController",),
    ".pid": ("PidSpeedController",),
    ".pure_pursuit": ("PurePursuitController",),
    ".stanley": ("StanleyController",),
    ".supervisor": (
        "SupervisedController", "SupervisorConfig", "make_supervised_follower",
    ),
})
