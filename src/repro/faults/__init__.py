"""Benign sensor-fault injection.

The adversarial counterpart lives in :mod:`repro.attacks`; this package
models the *non-malicious* ways sensor input goes bad — dropouts,
freezes, NaN bursts, latency, intermittent loss — through the same
engine injection point, so faults and attacks compose in one run.  The
trace records fault ground truth (``fault_active`` / ``fault_name`` /
``fault_channel``) exactly like attack labels, which is what lets the
degradation assertions (A21/A22) and experiment E14 score behaviour
inside fault windows.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Fault",
    "FAULT_CHANNELS",
    "FAULT_CLASSES",
    "FaultCampaign",
    "make_fault",
    "standard_fault",
    "combined_fault",
    "Dropout",
    "Freeze",
    "NaNBurst",
    "Latency",
    "Intermittent",
]

__getattr__ = lazy_exports(__name__, {
    ".base": ("FAULT_CHANNELS", "Fault"),
    ".campaign": (
        "FAULT_CLASSES", "FaultCampaign", "combined_fault", "make_fault",
        "standard_fault",
    ),
    ".models": ("Dropout", "Freeze", "Intermittent", "Latency", "NaNBurst"),
})
