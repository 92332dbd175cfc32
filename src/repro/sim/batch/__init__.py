"""Batched array-native simulation: step a whole grid as NumPy arrays.

The package mirrors the serial :class:`~repro.sim.engine.SimulationRunner`
bit-for-bit (the serial engine is the differential oracle — see
``docs/methodology.md``) while stepping N compatible runs in lockstep as
struct-of-arrays state.  Entry point: :func:`run_batch`.
"""

from repro._lazy import lazy_exports

__all__ = ["BatchCompatError", "LaneSpec", "run_batch"]

__getattr__ = lazy_exports(__name__, {
    ".engine": ("BatchCompatError", "LaneSpec", "run_batch"),
})
