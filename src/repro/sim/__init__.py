"""Vehicle simulation substrate (the CARLA stand-in).

The paper runs its vehicle under test in CARLA via the Python API.  This
package provides a deterministic, laptop-scale replacement: a fixed-step
closed-loop simulator with bicycle-model vehicle dynamics, actuator lag,
and rate-scheduled noisy sensors.  ADAssure itself only consumes the traces
this loop produces, so the substitution preserves the debugged behaviour
(see DESIGN.md, "Substitutions").
"""

from repro._lazy import lazy_exports

__all__ = [
    "BatchCompatError",
    "LaneSpec",
    "run_batch",
    "VehicleParams",
    "VehicleState",
    "KinematicBicycleModel",
    "DynamicBicycleModel",
    "ActuatorLimits",
    "Actuators",
    "Vehicle",
    "RngStreams",
    "Scenario",
    "ScenarioOutcome",
    "standard_scenarios",
    "acc_scenario",
    "LeadVehicle",
    "LeadVehicleConfig",
    "LeadSpeedEvent",
    "SimulationRunner",
    "RunResult",
    "run_scenario",
]

__getattr__ = lazy_exports(__name__, {
    ".actuators": ("ActuatorLimits", "Actuators"),
    ".dynamics": (
        "DynamicBicycleModel", "KinematicBicycleModel", "VehicleParams",
        "VehicleState",
    ),
    ".engine": ("RunResult", "SimulationRunner", "run_scenario"),
    ".lead": ("LeadSpeedEvent", "LeadVehicle", "LeadVehicleConfig"),
    ".rng": ("RngStreams",),
    ".scenario": (
        "Scenario", "ScenarioOutcome", "acc_scenario", "standard_scenarios",
    ),
    ".vehicle": ("Vehicle",),
    ".batch": ("BatchCompatError", "LaneSpec", "run_batch"),
})
