"""A thin CARLA-Python-API-shaped facade over the simulator.

The paper drives its vehicle under test through the CARLA Python API; this
package exposes the same interaction shape — a ``World`` that is ticked, a
vehicle actor that receives ``VehicleControl`` commands, and sensor actors
that push measurements to ``listen()`` callbacks — so code written against
the paper's tooling ports to this repo by swapping the import.

Only the surface needed by ADAssure-style tooling is provided: this is an
API-compatibility layer, not a CARLA re-implementation (the physics and
sensor models live in :mod:`repro.sim`).
"""

from repro._lazy import lazy_exports

__all__ = ["World", "VehicleActor", "VehicleControl", "SensorActor", "Transform"]

__getattr__ = lazy_exports(__name__, {
    ".control": ("VehicleControl",),
    ".sensors": ("SensorActor",),
    ".world": ("Transform", "VehicleActor", "World"),
})
