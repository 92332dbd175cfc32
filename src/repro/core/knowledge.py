"""Cause/assertion knowledge base.

For every candidate root cause the knowledge base stores the probability
that each assertion fires when that cause is present.  The profiles below
encode the *mechanistic* signatures of the standard attack classes — which
channel lies, what the redundancy checks see, how the closed loop reacts —
not fitted numbers; the diagnosis experiments then measure how well these
first-principles profiles identify injected ground truth.

The knowledge base is the methodology's second extension point (after the
assertion DSL): debugging a new platform means adding cause profiles.

Diagnosis (:mod:`repro.core.diagnosis`) does not read the profiles cell
by cell.  It asks :meth:`KnowledgeBase.likelihood_row` for one row per
assertion id, which holds, over the causes in profile order, what the
likelihood model needs of each (cause, assertion) cell: ``log(p)`` and
``log(1 - p)`` of the clipped fire probability ``p``, and whether the
cause would count the assertion as supporting (``prob > 0.3``) or as
contradicting (``prob >= 0.6``) evidence.  A row is built through
:meth:`CauseProfile.prob` the first time its id is asked for, so ids no
profile names (user assertions, a :meth:`~KnowledgeBase.restricted`
copy) get the false-positive floor like any other; every later
diagnosis only looks it up.  :meth:`KnowledgeBase.add` drops the rows.
Profiles are read when a row is built, so a profile's ``fire_probs``
must not be edited in place once the knowledge base has diagnosed: build
a new knowledge base (or :meth:`~KnowledgeBase.add` a cause) instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "CauseProfile",
    "KnowledgeBase",
    "default_knowledge_base",
    "defect_knowledge_base",
]

FALSE_POSITIVE_RATE = 0.06
"""Probability an assertion fires for reasons unrelated to the cause."""

_PROB_FLOOR = 0.02
_PROB_CEIL = 0.98
"""The likelihood model clips every fire probability into
``[_PROB_FLOOR, _PROB_CEIL]``: no single assertion is ever proof."""

_SUPPORT_PROB = 0.3
"""A fired assertion supports a cause that predicts it above this."""
_CONTRADICT_PROB = 0.6
"""A silent assertion contradicts a cause that predicts it at least
this strongly."""


@dataclass(frozen=True, slots=True)
class CauseProfile:
    """One candidate root cause and its expected assertion signature."""

    cause: str
    description: str
    fire_probs: dict[str, float] = field(default_factory=dict)
    """assertion_id -> P(assertion fires | this cause)."""

    def prob(self, assertion_id: str) -> float:
        """Fire probability for an assertion (floor: false-positive rate)."""
        return self.fire_probs.get(assertion_id, FALSE_POSITIVE_RATE)


LikelihoodRow = tuple[tuple[float, ...], tuple[float, ...],
                      tuple[int, ...], tuple[int, ...]]
"""One assertion's row: ``log(p)`` and ``log(1 - p)`` per cause, then
the indices of the causes it supports when fired and contradicts when
silent (causes in :meth:`KnowledgeBase.profiles` order)."""


class KnowledgeBase:
    """A set of cause profiles over a common assertion vocabulary."""

    def __init__(self, profiles: list[CauseProfile]):
        names = [p.cause for p in profiles]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate cause names: {names}")
        self._profiles = {p.cause: p for p in profiles}
        self._rows: dict[str, LikelihoodRow] = {}

    @property
    def causes(self) -> list[str]:
        return list(self._profiles)

    def profile(self, cause: str) -> CauseProfile:
        if cause not in self._profiles:
            raise KeyError(f"unknown cause {cause!r}")
        return self._profiles[cause]

    def profiles(self) -> list[CauseProfile]:
        return list(self._profiles.values())

    def add(self, profile: CauseProfile) -> None:
        """Extend the knowledge base (the methodology's refinement step)."""
        if profile.cause in self._profiles:
            raise ValueError(f"cause {profile.cause!r} already present")
        self._profiles[profile.cause] = profile
        self._rows = {}

    def likelihood_row(self, assertion_id: str) -> LikelihoodRow:
        """The assertion's :data:`LikelihoodRow`, built on first use."""
        row = self._rows.get(assertion_id)
        if row is None:
            probs = [p.prob(assertion_id) for p in self._profiles.values()]
            clipped = [min(max(q, _PROB_FLOOR), _PROB_CEIL) for q in probs]
            row = self._rows[assertion_id] = (
                tuple(math.log(q) for q in clipped),
                tuple(math.log(1.0 - q) for q in clipped),
                tuple(i for i, q in enumerate(probs) if q > _SUPPORT_PROB),
                tuple(i for i, q in enumerate(probs)
                      if q >= _CONTRADICT_PROB))
        return row

    def restricted(self, assertion_ids: set[str] | frozenset[str]) -> "KnowledgeBase":
        """A copy whose profiles only mention the given assertions.

        Used by the E8 ablation: diagnosing with a catalog subset must not
        let the knowledge base peek at assertions that were not evaluated.
        """
        return KnowledgeBase([
            CauseProfile(
                cause=p.cause,
                description=p.description,
                fire_probs={a: q for a, q in p.fire_probs.items()
                            if a in assertion_ids},
            )
            for p in self._profiles.values()
        ])


def default_knowledge_base() -> KnowledgeBase:
    """Profiles for the standard attack classes plus the nominal cause.

    Probabilities follow the mechanism of each attack:

    * which *consistency* checks see the lying channel directly (high),
    * which *behavioural* checks fire because the closed loop actually
      deviates (medium — depends on controller/scenario), and
    * which checks are structurally blind to the cause (floor).
    """
    profiles = [
        CauseProfile(
            cause="none",
            description="no fault: nominal operation",
            fire_probs={},
        ),
        CauseProfile(
            cause="gps_bias",
            description="GNSS spoofing: jump-and-hold position offset",
            fire_probs={
                "A5": 0.90,   # the onset jump is kinematically impossible
                "A9G": 0.85,  # GPS innovation spikes at onset
                "A4": 0.80,   # fix disagrees with dead reckoning at onset
                "A7": 0.45,   # GPS-derived speed spikes across the jump
                "A1": 0.55,   # vehicle gets dragged off the lane
                "A3": 0.60,
                "A15": 0.50,  # offset goal is often missed
                "A2": 0.25,
            },
        ),
        CauseProfile(
            cause="gps_drift",
            description="GNSS spoofing: slow drag-away drift",
            fire_probs={
                "A4": 0.90,   # dead reckoning accumulates the discrepancy
                "A3": 0.70,   # sustained tracking degradation
                "A1": 0.60,
                "A15": 0.55,
                "A9G": 0.25,  # per-fix innovation stays inside the gate
                "A5": 0.08,   # drift is designed to defeat the jump check
                "A2": 0.20,
            },
        ),
        CauseProfile(
            cause="gps_freeze",
            description="GNSS denial: frozen position solution",
            fire_probs={
                "A6": 0.95,   # the literal freeze signature
                "A9G": 0.90,  # innovations grow with every meter moved
                "A7": 0.80,   # GPS-derived speed collapses to zero
                "A4": 0.75,
                "A10": 0.70,  # estimated station stalls
                "A1": 0.65,   # open-loop behaviour diverges
                "A13": 0.45,
                "A15": 0.70,
                "A5": 0.15,
            },
        ),
        CauseProfile(
            cause="gps_noise",
            description="GNSS jamming: inflated position noise",
            fire_probs={
                "A5": 0.90,   # fix-to-fix jumps exceed the envelope
                "A9G": 0.85,
                "A4": 0.55,
                "A11": 0.35,  # noisy estimate shakes the steering
                "A7": 0.30,
                "A1": 0.25,
                "A3": 0.25,
            },
        ),
        CauseProfile(
            cause="imu_gyro_bias",
            description="IMU injection: constant yaw-rate bias",
            fire_probs={
                "A8": 0.95,   # gyro integral diverges from compass
                "A9C": 0.30,  # the compass largely re-anchors the filter
                "A12": 0.30,  # apparent lateral acceleration inflates
                "A2": 0.20,
                "A1": 0.15,
            },
        ),
        CauseProfile(
            cause="odom_scale",
            description="wheel-speed tampering: scaled odometry messages",
            fire_probs={
                "A7": 0.90,   # wheel speed disagrees with GPS speed
                "A9S": 0.90,  # speed innovations inflate
                "A4": 0.70,   # dead reckoning integrates the scaled speed
                "A9G": 0.50,  # corrupted speed state leaks into position
                "A12": 0.40,  # true overspeed in corners
                "A1": 0.45,
                "A3": 0.40,
                "A15": 0.30,
                "A14": 0.15,  # the loop tracks the *lie*, so this stays quiet
            },
        ),
        CauseProfile(
            cause="compass_offset",
            description="heading spoofing: rotated compass messages",
            fire_probs={
                "A8": 0.85,   # step between gyro integral and compass delta
                "A4": 0.75,   # dead reckoning veers with the rotated heading
                "A9C": 0.35,  # onset spike; the filter absorbs it quickly
                "A3": 0.45,
                "A1": 0.40,
                "A2": 0.35,
                "A9G": 0.30,
                "A15": 0.25,
            },
        ),
        CauseProfile(
            cause="steer_offset",
            description="actuation tampering: steering offset at the EPS",
            fire_probs={
                "A16": 0.95,  # the reference actuator model sees the offset
                "A3": 0.35,   # small steady-state cte remains
                "A1": 0.20,
                "A15": 0.15,
            },
        ),
        CauseProfile(
            cause="radar_scale",
            description="radar spoofing: scaled range (lead appears farther)",
            fire_probs={
                "A19": 0.90,  # range derivative contradicts the Doppler rate
                "A17": 0.75,  # the ACC tailgates the real lead
                "A18": 0.55,  # the scale engaging produces a range step
                "A14": 0.10,
            },
        ),
        CauseProfile(
            cause="radar_ghost",
            description="radar spoofing: phantom target closer than the lead",
            fire_probs={
                "A18": 0.90,  # the onset step is kinematically impossible
                "A19": 0.45,  # the step also corrupts the windowed slope
                "A14": 0.25,
            },
        ),
        CauseProfile(
            cause="radar_blind",
            description="radar jamming: lead track suppressed",
            fire_probs={
                "A17": 0.80,  # ACC free-runs into the slowing lead
                "A18": 0.20,  # re-acquire jumps if the track flickers
                "A14": 0.20,
            },
        ),
        CauseProfile(
            cause="cmd_delay",
            description="network attack: delayed control commands",
            fire_probs={
                "A16": 0.80,  # applied steering lags the reference model
                "A11": 0.70,  # latency-induced limit cycle
                "A12": 0.50,
                "A2": 0.50,
                "A3": 0.50,
                "A1": 0.45,
                "A13": 0.30,
                "A15": 0.30,
            },
        ),
        CauseProfile(
            cause="sensor_fault",
            description="benign delivery fault: dropout / freeze / NaN burst",
            fire_probs={
                "A22": 0.75,  # unprotected stacks keep cruising on the loss
                "A21": 0.65,  # tracking degrades inside the fault window
                "A6": 0.60,   # a frozen or silent fix stops moving
                "A9G": 0.45,  # innovations grow while the EKF coasts
                "A4": 0.40,
                "A10": 0.35,
                "A1": 0.35,
                "A15": 0.40,
            },
        ),
    ]
    return KnowledgeBase(profiles)


def defect_knowledge_base() -> KnowledgeBase:
    """Profiles for controller *implementation defects* (E13).

    This is a separate hypothesis set from the attack knowledge base: when
    a developer debugs a controller change, the candidate causes are the
    classic regression classes, not external attacks.  Profiles follow the
    closed-loop mechanism of each bug (measured signatures are in
    EXPERIMENTS.md, E13).
    """
    return KnowledgeBase([
        CauseProfile(
            cause="none",
            description="no defect: controller behaves as designed",
            fire_probs={},
        ),
        CauseProfile(
            cause="ctrl_gain_error",
            description="regression: feedback gain scaled up",
            fire_probs={
                "A11": 0.90,  # limit-cycle is the gain signature
                "A12": 0.25,
                "A1": 0.15,
            },
        ),
        CauseProfile(
            cause="ctrl_sign_flip",
            description="regression: inverted steering sign",
            fire_probs={
                "A1": 0.95,   # immediate, unbounded divergence
                "A2": 0.90,
                "A3": 0.90,
                "A15": 0.85,
                "A10": 0.70,  # estimated progress stalls off-route
                "A11": 0.50,  # thrashing while diverging
                "A13": 0.35,
            },
        ),
        CauseProfile(
            cause="ctrl_stale_input",
            description="regression: controller consumes an old pose",
            fire_probs={
                "A11": 0.85,  # latency-induced oscillation
                "A1": 0.80,   # oscillation grows into departure
                "A3": 0.80,
                "A2": 0.70,
                "A15": 0.70,
                "A12": 0.55,
                "A10": 0.45,
                "A13": 0.40,
            },
        ),
        CauseProfile(
            cause="ctrl_deadband",
            description="regression: small commands truncated to zero",
            fire_probs={
                "A20": 0.90,  # error persists, controller stays silent
                "A3": 0.30,
                "A1": 0.15,
            },
        ),
        CauseProfile(
            cause="ctrl_saturation",
            description="regression: output clamped far below the limit",
            fire_probs={
                "A1": 0.90,   # cannot steer through curves
                "A3": 0.85,
                "A2": 0.60,
                "A15": 0.60,
                "A20": 0.10,  # it does respond — just too weakly
            },
        ),
    ])
