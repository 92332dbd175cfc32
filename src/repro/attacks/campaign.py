"""Attack campaigns: named, parameterized attack instantiations.

The experiment grid runs the same scenarios under each of the *standard
attack classes* below.  ``intensity`` is a dimensionless knob in (0, ~2]
that scales each class's physical magnitude around its nominal value
(1.0 = the headline configuration used by the detection-matrix table;
the intensity sweep of experiment E6 varies it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.attacks.actuator import SteeringOffsetAttack
from repro.attacks.base import Attack, AttackWindow
from repro.attacks.channel import CommandDelayAttack
from repro.attacks.compass import CompassOffsetAttack
from repro.attacks.gps import (
    GpsBiasAttack,
    GpsDriftAttack,
    GpsFreezeAttack,
    GpsNoiseAttack,
)
from repro.attacks.imu import ImuGyroBiasAttack
from repro.attacks.odometry import OdometryScaleAttack
from repro.attacks.radar import (
    RadarBlindAttack,
    RadarGhostAttack,
    RadarRangeScaleAttack,
)

__all__ = [
    "ATTACKS",
    "AttackCampaign",
    "ATTACK_CLASSES",
    "CampaignFamily",
    "campaign_classes",
    "make_attack",
    "reparameterized_attack",
    "standard_attack",
]

_DEFAULT_ONSET = 15.0


@dataclass(slots=True)
class AttackCampaign:
    """A labeled set of attacks to run together in one scenario."""

    label: str
    attacks: list[Attack] = field(default_factory=list)

    def reset(self) -> None:
        for attack in self.attacks:
            attack.reset()

    @staticmethod
    def none() -> "AttackCampaign":
        """The nominal (attack-free) campaign."""
        return AttackCampaign(label="none", attacks=[])


def _gps_bias(intensity: float, window: AttackWindow) -> Attack:
    # Nominal: 4 m lateral spoof — enough to drag the vehicle off lane.
    return GpsBiasAttack(offset_x=0.0, offset_y=4.0 * intensity, window=window)


def _gps_drift(intensity: float, window: AttackWindow) -> Attack:
    # Nominal: 0.25 m/s lateral drag — stealthy, below per-fix noise.
    return GpsDriftAttack(rate_x=0.0, rate_y=0.25 * intensity, window=window)


def _gps_freeze(intensity: float, window: AttackWindow) -> Attack:
    # Freeze has no magnitude; intensity is accepted for interface symmetry.
    return GpsFreezeAttack(window=window)


def _gps_noise(intensity: float, window: AttackWindow) -> Attack:
    return GpsNoiseAttack(extra_std=3.0 * intensity, window=window)


def _imu_gyro_bias(intensity: float, window: AttackWindow) -> Attack:
    # Nominal: 0.06 rad/s injected gyro bias (~3.4 deg/s).
    return ImuGyroBiasAttack(bias=0.06 * intensity, window=window)


def _odom_scale(intensity: float, window: AttackWindow) -> Attack:
    # Nominal: report 35% less speed than real (PID overspeeds).
    scale = max(1.0 - 0.35 * intensity, 0.0)
    return OdometryScaleAttack(scale=scale, window=window)


def _compass_offset(intensity: float, window: AttackWindow) -> Attack:
    return CompassOffsetAttack(offset=0.25 * intensity, window=window)


def _steer_offset(intensity: float, window: AttackWindow) -> Attack:
    # Nominal: 0.06 rad (~3.4 deg) steering offset at the actuator.
    return SteeringOffsetAttack(offset=0.06 * intensity, window=window)


def _cmd_delay(intensity: float, window: AttackWindow) -> Attack:
    return CommandDelayAttack(delay_steps=max(int(round(8 * intensity)), 1),
                              window=window)


def _radar_scale(intensity: float, window: AttackWindow) -> Attack:
    # Nominal: lead reported 2.5x farther than it is (ACC tailgates well
    # below the one-second headway rule).
    return RadarRangeScaleAttack(scale=1.0 + 1.5 * intensity, window=window)


def _radar_ghost(intensity: float, window: AttackWindow) -> Attack:
    # Nominal: phantom target 15 m closer than the real lead.
    return RadarGhostAttack(offset=15.0 * intensity, window=window)


def _radar_blind(intensity: float, window: AttackWindow) -> Attack:
    # Blinding has no magnitude; intensity accepted for interface symmetry.
    return RadarBlindAttack(window=window)


ATTACK_CLASSES: dict[str, object] = {
    "gps_bias": _gps_bias,
    "gps_drift": _gps_drift,
    "gps_freeze": _gps_freeze,
    "gps_noise": _gps_noise,
    "imu_gyro_bias": _imu_gyro_bias,
    "odom_scale": _odom_scale,
    "compass_offset": _compass_offset,
    "steer_offset": _steer_offset,
    "cmd_delay": _cmd_delay,
    "radar_scale": _radar_scale,
    "radar_ghost": _radar_ghost,
    "radar_blind": _radar_blind,
}
"""Registry of the standard attack classes used across the evaluation.

The ``radar_*`` classes only have an effect in car-following scenarios
(a lead vehicle must be present); they are evaluated by E12 rather than
the main grid."""


def make_attack(
    attack_class: str,
    intensity: float = 1.0,
    onset: float = _DEFAULT_ONSET,
    end: float = float("inf"),
) -> Attack:
    """Instantiate a standard attack class at the given intensity.

    Args:
        attack_class: a key of :data:`ATTACK_CLASSES`.
        intensity: dimensionless magnitude knob (1.0 = nominal).
        onset: attack start time, seconds into the run.
        end: attack end time (default: never ends).
    """
    if attack_class not in ATTACK_CLASSES:
        raise ValueError(
            f"unknown attack class {attack_class!r}; "
            f"expected one of {sorted(ATTACK_CLASSES)}"
        )
    if intensity <= 0:
        raise ValueError("intensity must be positive")
    window = AttackWindow(start=onset, end=end)
    return ATTACK_CLASSES[attack_class](intensity, window)


def standard_attack(
    attack_class: str, intensity: float = 1.0, onset: float = _DEFAULT_ONSET
) -> AttackCampaign:
    """A single-attack campaign labeled with its class name."""
    if attack_class == "none":
        return AttackCampaign.none()
    return AttackCampaign(
        label=attack_class,
        attacks=[make_attack(attack_class, intensity=intensity, onset=onset)],
    )


@dataclass(frozen=True, slots=True)
class CampaignFamily:
    """One injection axis (attacks or benign faults): its class registry,
    the factory for one class and the campaign type a label builds.

    The counterfactual ablation decomposes a campaign label back into its
    classes and rebuilds it with an edited window, magnitude or channel
    subset through this one definition, for both axes.
    """

    kind: str
    registry: dict
    make: Callable
    campaign: type

    def classes(self, label: str) -> tuple[str, ...]:
        """Class names encoded in a campaign label (``"a+b"`` → ``(a, b)``).

        Inverse of the ``+``-joined labels of the standard and combined
        campaigns; ``"none"`` (and the empty label) decode to no classes.
        """
        if label in ("", "none"):
            return ()
        classes = tuple(part for part in label.split("+") if part)
        for cls in classes:
            if cls not in self.registry:
                raise ValueError(
                    f"unknown {self.kind} class {cls!r} in campaign label "
                    f"{label!r}; expected classes from "
                    f"{sorted(self.registry)}"
                )
        return classes

    def reparameterized(
        self,
        label: str,
        intensity: float = 1.0,
        onset: float = _DEFAULT_ONSET,
        end: float = float("inf"),
        classes: tuple[str, ...] | list[str] | None = None,
    ):
        """Rebuild a standard/combined campaign with an edited window,
        magnitude or channel subset — the counterfactual probe hook.

        Args:
            label: the original campaign label (``"gps_bias"``,
                ``"gps_bias+imu_gyro_bias"``, or ``"none"``).
            intensity: magnitude knob for every surviving class.
            onset: injection start, seconds.
            end: injection end (default: never ends, matching the
                standard campaigns).
            classes: optional channel subset to keep; must be a subset of
                the label's classes.  ``None`` keeps them all.

        With the label's own parameters this reconstructs the original
        campaign object-for-object, which is what makes an unchanged
        counterfactual re-run bit-identical to the cached original.
        """
        base = self.classes(label)
        if classes is not None:
            keep = set(classes)
            unknown = keep - set(base)
            if unknown:
                raise ValueError(
                    f"classes {sorted(unknown)} are not part of campaign "
                    f"{label!r} (classes: {list(base)})"
                )
            base = tuple(cls for cls in base if cls in keep)
        if not base:
            return self.campaign.none()
        return self.campaign(
            "+".join(base),
            [self.make(cls, intensity=intensity, onset=onset, end=end)
             for cls in base],
        )


ATTACKS = CampaignFamily("attack", ATTACK_CLASSES, make_attack,
                         AttackCampaign)
"""The attack axis."""

campaign_classes = ATTACKS.classes
reparameterized_attack = ATTACKS.reparameterized


def combined_attack(
    attack_classes: list[str] | tuple[str, ...],
    intensity: float = 1.0,
    onset: float = _DEFAULT_ONSET,
) -> AttackCampaign:
    """A campaign with several attack classes active simultaneously.

    Models a coordinated adversary (or independent concurrent faults);
    used by the E11 extension experiment.  The campaign label joins the
    class names with ``+``.
    """
    if not attack_classes:
        raise ValueError("combined_attack needs at least one attack class")
    attacks = [make_attack(cls, intensity=intensity, onset=onset)
               for cls in attack_classes]
    return AttackCampaign(label="+".join(attack_classes), attacks=attacks)
