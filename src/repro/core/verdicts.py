"""Violation episodes, per-assertion summaries and check reports."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Violation", "AssertionSummary", "CheckReport"]


@dataclass(frozen=True, slots=True)
class Violation:
    """One violation *episode* of one assertion.

    Consecutive violating steps are merged into a single episode; a new
    episode starts only after the assertion has recovered.  ``worst_margin``
    is the most negative normalized margin seen inside the episode (margins
    are normalized so that 0 is the threshold and -1 means "violated by
    100% of the threshold").
    """

    assertion_id: str
    name: str
    category: str
    t_start: float
    t_end: float
    worst_margin: float
    message: str = ""

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def severity(self) -> float:
        """Unsigned violation depth (0 = marginal, 1 = 100% over bound)."""
        return max(-self.worst_margin, 0.0)

    def to_dict(self) -> dict:
        return {
            "assertion_id": self.assertion_id,
            "name": self.name,
            "category": self.category,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "worst_margin": self.worst_margin,
            "message": self.message,
        }

    @staticmethod
    def from_dict(data: dict) -> "Violation":
        return Violation(
            assertion_id=data["assertion_id"],
            name=data["name"],
            category=data["category"],
            t_start=float(data["t_start"]),
            t_end=float(data["t_end"]),
            worst_margin=float(data["worst_margin"]),
            message=data.get("message", ""),
        )


@dataclass(frozen=True, slots=True)
class AssertionSummary:
    """Aggregate view of one assertion over a whole trace."""

    assertion_id: str
    name: str
    category: str
    fired: bool
    episodes: int
    first_violation_t: float | None
    total_violation_time: float
    worst_margin: float
    """Most negative margin over the run (>= 0 when the assertion held)."""
    evaluated: bool = True
    """False when the assertion was never applicable on this trace."""

    @property
    def strength(self) -> float:
        """Evidence strength in [0, 1] used by the diagnosis engine.

        Combines episode count, violated time and depth: a single deep or
        sustained episode counts as strong evidence; a brief marginal blip
        stays weak.
        """
        if not self.fired:
            return 0.0
        depth = min(max(-self.worst_margin, 0.0), 1.0)
        sustained = min(self.total_violation_time / 2.0, 1.0)
        repeated = min(self.episodes / 3.0, 1.0)
        return float(min(0.25 + 0.45 * depth + 0.2 * sustained + 0.1 * repeated, 1.0))

    def to_dict(self) -> dict:
        return {
            "assertion_id": self.assertion_id,
            "name": self.name,
            "category": self.category,
            "fired": self.fired,
            "episodes": self.episodes,
            "first_violation_t": self.first_violation_t,
            "total_violation_time": self.total_violation_time,
            "worst_margin": self.worst_margin,
            "evaluated": self.evaluated,
        }

    @staticmethod
    def from_dict(data: dict) -> "AssertionSummary":
        first = data.get("first_violation_t")
        return AssertionSummary(
            assertion_id=data["assertion_id"],
            name=data["name"],
            category=data["category"],
            fired=bool(data["fired"]),
            episodes=int(data["episodes"]),
            first_violation_t=None if first is None else float(first),
            total_violation_time=float(data["total_violation_time"]),
            worst_margin=float(data["worst_margin"]),
            evaluated=bool(data.get("evaluated", True)),
        )


@dataclass(slots=True)
class CheckReport:
    """Result of evaluating an assertion set over one trace."""

    scenario: str
    controller: str
    attack_label: str
    duration: float
    violations: list[Violation] = field(default_factory=list)
    summaries: dict[str, AssertionSummary] = field(default_factory=dict)

    @property
    def fired_ids(self) -> list[str]:
        """IDs of assertions that fired, ordered by first violation time."""
        fired = [s for s in self.summaries.values() if s.fired]
        fired.sort(key=lambda s: (s.first_violation_t if s.first_violation_t
                                  is not None else float("inf")))
        return [s.assertion_id for s in fired]

    @property
    def any_fired(self) -> bool:
        return any(s.fired for s in self.summaries.values())

    def summary(self, assertion_id: str) -> AssertionSummary:
        return self.summaries[assertion_id]

    def first_violation_time(self, assertion_id: str | None = None) -> float | None:
        """Earliest violation time of one assertion (or of any, if None)."""
        if assertion_id is not None:
            s = self.summaries.get(assertion_id)
            return s.first_violation_t if s is not None else None
        times = [
            s.first_violation_t
            for s in self.summaries.values()
            if s.first_violation_t is not None
        ]
        return min(times) if times else None

    def detection_latency(self, onset: float,
                          assertion_id: str | None = None) -> float | None:
        """Delay from attack onset to first violation at/after onset.

        Violations strictly before the onset are ignored (they would be
        launch-transient noise, not detections of this attack).
        """
        candidates = [
            v.t_start for v in self.violations
            if v.t_start >= onset
            and (assertion_id is None or v.assertion_id == assertion_id)
        ]
        if not candidates:
            return None
        return min(candidates) - onset

    def evidence(self) -> dict[str, float]:
        """Assertion-id -> evidence strength map for the diagnosis engine."""
        return {aid: s.strength for aid, s in self.summaries.items()}

    def restricted(self, ids) -> "CheckReport":
        """The report a check with only the assertions ``ids`` produces.

        Summaries come in ``ids`` order and violations keep their
        ``(t_start, assertion_id)`` order.  Exact, because the checker
        evaluates every assertion independently of the others: projecting
        a full-catalog report equals re-checking the trace with the
        subset.  Raises ``KeyError`` for an id this report never checked.
        """
        keep = {aid: self.summaries[aid] for aid in ids}
        return CheckReport(
            scenario=self.scenario,
            controller=self.controller,
            attack_label=self.attack_label,
            duration=self.duration,
            violations=[v for v in self.violations
                        if v.assertion_id in keep],
            summaries=keep,
        )

    def to_dict(self) -> dict:
        """JSON-serializable form: the monitoring service's wire payload.

        Exact float round-trip (floats travel as-is; ``json`` preserves
        them losslessly), so ``from_dict(to_dict(r)) == r`` field for
        field — the property the service's byte-identical verdict
        contract rests on.
        """
        return {
            "scenario": self.scenario,
            "controller": self.controller,
            "attack_label": self.attack_label,
            "duration": self.duration,
            "violations": [v.to_dict() for v in self.violations],
            "summaries": {aid: s.to_dict()
                          for aid, s in self.summaries.items()},
        }

    @staticmethod
    def from_dict(data: dict) -> "CheckReport":
        return CheckReport(
            scenario=data.get("scenario", ""),
            controller=data.get("controller", ""),
            attack_label=data.get("attack_label", ""),
            duration=float(data.get("duration", 0.0)),
            violations=[Violation.from_dict(v)
                        for v in data.get("violations", [])],
            summaries={aid: AssertionSummary.from_dict(s)
                       for aid, s in data.get("summaries", {}).items()},
        )
