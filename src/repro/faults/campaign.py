"""Fault campaigns: named, parameterized fault instantiations.

The benign-fault axis of the evaluation, built like
:mod:`repro.attacks.campaign` (label decoding and re-parameterization
go through the shared :class:`~repro.attacks.campaign.CampaignFamily`).
``intensity`` is the same dimensionless knob in (0, ~2]:
for :class:`~repro.faults.models.Intermittent` it scales the drop
probability (1.0 = 50% loss), for :class:`~repro.faults.models.Latency`
the delay (1.0 = 0.5 s); the pure delivery faults (dropout, freeze,
NaN burst) have no magnitude and accept it for interface symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.base import AttackWindow
from repro.attacks.campaign import CampaignFamily
from repro.faults.base import Fault
from repro.faults.models import Dropout, Freeze, Intermittent, Latency, NaNBurst

__all__ = [
    "FAULTS",
    "FaultCampaign",
    "FAULT_CLASSES",
    "fault_classes",
    "make_fault",
    "reparameterized_fault",
    "standard_fault",
    "combined_fault",
]

_DEFAULT_ONSET = 15.0


@dataclass(slots=True)
class FaultCampaign:
    """A labeled set of benign faults to inject together in one scenario."""

    label: str
    faults: list[Fault] = field(default_factory=list)

    def reset(self) -> None:
        for fault in self.faults:
            fault.reset()

    @staticmethod
    def none() -> "FaultCampaign":
        """The fault-free campaign."""
        return FaultCampaign(label="none", faults=[])


def _dropout(channel: str):
    def build(intensity: float, window: AttackWindow) -> Fault:
        return Dropout(channel, window=window)
    return build


def _freeze(channel: str):
    def build(intensity: float, window: AttackWindow) -> Fault:
        return Freeze(channel, window=window)
    return build


def _nan(channel: str):
    def build(intensity: float, window: AttackWindow) -> Fault:
        return NaNBurst(channel, window=window)
    return build


def _latency(channel: str):
    def build(intensity: float, window: AttackWindow) -> Fault:
        return Latency(channel, delay=0.5 * intensity, window=window)
    return build


def _intermittent(channel: str):
    def build(intensity: float, window: AttackWindow) -> Fault:
        return Intermittent(channel, drop_prob=min(0.5 * intensity, 0.95),
                            window=window)
    return build


FAULT_CLASSES: dict[str, object] = {
    "gps_dropout": _dropout("gps"),
    "gps_freeze": _freeze("gps"),
    "gps_nan": _nan("gps"),
    "gps_latency": _latency("gps"),
    "gps_intermittent": _intermittent("gps"),
    "imu_dropout": _dropout("imu"),
    "odom_dropout": _dropout("odometry"),
    "odom_freeze": _freeze("odometry"),
    "compass_dropout": _dropout("compass"),
    "compass_nan": _nan("compass"),
    "radar_dropout": _dropout("radar"),
}
"""Registry of the standard fault classes (E14 degradation grid).

Naming convention: ``<channel>_<model>``.  ``radar_dropout`` only has an
effect in car-following scenarios, like the ``radar_*`` attacks."""


def make_fault(
    fault_class: str,
    intensity: float = 1.0,
    onset: float = _DEFAULT_ONSET,
    end: float = float("inf"),
) -> Fault:
    """Instantiate a standard fault class at the given intensity.

    Args:
        fault_class: a key of :data:`FAULT_CLASSES`.
        intensity: dimensionless magnitude knob (1.0 = nominal).
        onset: fault start time, seconds into the run.
        end: fault end time (default: never recovers).
    """
    if fault_class not in FAULT_CLASSES:
        raise ValueError(
            f"unknown fault class {fault_class!r}; "
            f"expected one of {sorted(FAULT_CLASSES)}"
        )
    if intensity <= 0:
        raise ValueError("intensity must be positive")
    window = AttackWindow(start=onset, end=end)
    return FAULT_CLASSES[fault_class](intensity, window)


def standard_fault(
    fault_class: str, intensity: float = 1.0, onset: float = _DEFAULT_ONSET,
    end: float = float("inf"),
) -> FaultCampaign:
    """A single-fault campaign labeled with its class name."""
    if fault_class == "none":
        return FaultCampaign.none()
    return FaultCampaign(
        label=fault_class,
        faults=[make_fault(fault_class, intensity=intensity, onset=onset,
                           end=end)],
    )


FAULTS = CampaignFamily("fault", FAULT_CLASSES, make_fault, FaultCampaign)
"""The benign-fault axis."""

fault_classes = FAULTS.classes
reparameterized_fault = FAULTS.reparameterized


def combined_fault(
    fault_classes: list[str] | tuple[str, ...],
    intensity: float = 1.0,
    onset: float = _DEFAULT_ONSET,
    end: float = float("inf"),
) -> FaultCampaign:
    """A campaign with several faults active simultaneously.

    Models correlated infrastructure failures (e.g. one power rail
    feeding both GNSS and compass).  The label joins the class names
    with ``+``.
    """
    if not fault_classes:
        raise ValueError("combined_fault needs at least one fault class")
    faults = [make_fault(cls, intensity=intensity, onset=onset, end=end)
              for cls in fault_classes]
    return FaultCampaign(label="+".join(fault_classes), faults=faults)
