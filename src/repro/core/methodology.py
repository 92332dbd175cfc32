"""The ADAssure methodology loop: check -> diagnose -> find gaps -> refine.

The paper's methodology is iterative: domain experts start from a small
behavioural assertion set, run the anomaly corpus, and author new
assertions wherever an anomaly is *undetected* (no assertion fired) or
*undiagnosed* (assertions fired but the root cause stays ambiguous).
This module mechanizes that loop over the staged built-in catalog, which
is exactly how the E9 experiment demonstrates convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.catalog import CATALOG_STAGES, default_catalog
from repro.core.checker import check_trace
from repro.core.diagnosis import diagnose
from repro.core.knowledge import KnowledgeBase, default_knowledge_base
from repro.core.verdicts import CheckReport
from repro.trace.schema import Trace

__all__ = ["AnomalyCase", "GapAnalysis", "RefinementIteration", "RefinementLoop"]


@dataclass(frozen=True, slots=True)
class AnomalyCase:
    """One corpus entry: a trace plus its (experiment-known) true cause."""

    trace: Trace
    true_cause: str
    report: CheckReport | None = None
    """The trace's full-catalog check, when already known (e.g. a cached
    grid run); the loop checks the trace itself otherwise."""


@dataclass(frozen=True, slots=True)
class GapAnalysis:
    """Outcome of checking one anomaly case against one assertion set."""

    true_cause: str
    detected: bool
    """At least one assertion fired after the attack onset."""
    diagnosed: bool
    """The true cause ranked first."""
    ambiguous: bool
    """Detected, and the true cause is in the top 2 but not confidently #1."""
    fired_ids: tuple[str, ...]
    top_cause: str

    @property
    def is_gap(self) -> bool:
        """An anomaly the current assertion set fails to explain."""
        return not (self.detected and self.diagnosed)


@dataclass(slots=True)
class RefinementIteration:
    """Result of one methodology iteration over the whole corpus."""

    stage_names: tuple[str, ...]
    assertion_ids: tuple[str, ...]
    gaps: list[GapAnalysis] = field(default_factory=list)

    @property
    def undetected(self) -> int:
        return sum(1 for g in self.gaps if not g.detected)

    @property
    def undiagnosed(self) -> int:
        return sum(1 for g in self.gaps if g.is_gap)

    @property
    def diagnosed(self) -> int:
        return sum(1 for g in self.gaps if g.diagnosed)

    @property
    def total(self) -> int:
        return len(self.gaps)


class RefinementLoop:
    """Runs the staged catalog over an anomaly corpus, one stage at a time.

    Each iteration adds one stage of :data:`CATALOG_STAGES` to the active
    assertion set (mirroring domain experts authoring the next family of
    assertions in response to remaining gaps) and records
    detection/diagnosis coverage.  Every corpus case is checked once,
    against the full catalog (or not at all when it carries its
    ``report``); each stage diagnoses that report's projection onto the
    active assertions (:meth:`CheckReport.restricted`).
    """

    def __init__(self, corpus: list[AnomalyCase],
                 kb: KnowledgeBase | None = None):
        if not corpus:
            raise ValueError("refinement needs a non-empty anomaly corpus")
        self.corpus = corpus
        self.kb = kb or default_knowledge_base()

    def analyze_case(self, case: AnomalyCase,
                     assertion_ids: tuple[str, ...]) -> GapAnalysis:
        """Check + diagnose one case with one assertion subset.

        A case carrying its ``report`` is projected onto the subset
        instead of re-checked.
        """
        if case.report is None:
            report = check_trace(case.trace, default_catalog(assertion_ids))
        else:
            report = case.report.restricted(assertion_ids)
        onset = case.trace.attack_onset()
        if onset is None:
            detected = report.any_fired
        else:
            detected = report.detection_latency(onset) is not None
        kb = self.kb.restricted(frozenset(assertion_ids))
        result = diagnose(report, kb)
        top = result.top().cause
        rank = result.rank_of(case.true_cause)
        diagnosed = detected and top == case.true_cause
        ambiguous = (
            detected and not diagnosed and rank is not None and rank <= 2
        )
        return GapAnalysis(
            true_cause=case.true_cause,
            detected=detected,
            diagnosed=diagnosed,
            ambiguous=ambiguous,
            fired_ids=tuple(report.fired_ids),
            top_cause=top,
        )

    def run(self) -> list[RefinementIteration]:
        """Execute every refinement iteration; returns one entry per stage."""
        corpus = [case if case.report is not None
                  else replace(case, report=check_trace(case.trace))
                  for case in self.corpus]
        iterations: list[RefinementIteration] = []
        active_stages: list[str] = []
        active_ids: list[str] = []
        for stage_name, ids in CATALOG_STAGES.items():
            active_stages.append(stage_name)
            active_ids.extend(ids)
            iteration = RefinementIteration(
                stage_names=tuple(active_stages),
                assertion_ids=tuple(active_ids),
            )
            for case in corpus:
                iteration.gaps.append(
                    self.analyze_case(case, tuple(active_ids))
                )
            iterations.append(iteration)
        return iterations
