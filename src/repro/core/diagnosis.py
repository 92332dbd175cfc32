"""Root-cause diagnosis from assertion evidence.

Given a check report (which assertions fired, how strongly) and the
cause/assertion knowledge base, rank candidate causes by Bayesian
likelihood under an independent-assertions noisy observation model:

    P(evidence | cause) = prod_a  p_a^e_a * (1 - p_a)^(1 - e_a)

with ``p_a`` the cause's fire probability for assertion ``a`` (floored at
the false-positive rate) and ``e_a`` the binarized evidence.  Evidence
strengths refine the binary model: a weakly fired assertion contributes a
fractional exponent, so marginal blips neither fully confirm nor fully
contradict a profile.

Ranking is a lookup and a sum.  Each knowledge base keeps one
:meth:`~repro.core.knowledge.KnowledgeBase.likelihood_row` per
assertion id (``log p`` and ``log(1 - p)`` per cause, and which causes
an assertion supports or contradicts), built the first time the id is
seen and dropped by :meth:`~repro.core.knowledge.KnowledgeBase.add`.
:func:`diagnose` then walks the evidence once, in its order, adding
``w * log p + (1 - w) * log(1 - p)`` (``w`` the capped strength) or
``log(1 - p)`` to every cause's running log-likelihood, and builds each
:class:`Diagnosis` once, posterior included.  Without a ``kb`` it ranks
against one private default knowledge base, so the rows of the built-in
profiles are built once per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.knowledge import KnowledgeBase, default_knowledge_base
from repro.core.verdicts import CheckReport

__all__ = ["Diagnosis", "DiagnosisResult", "MultiDiagnosis",
           "apply_tiebreak", "diagnose", "diagnose_multi"]

_EVIDENCE_THRESHOLD = 0.12
"""Minimum strength for an assertion to count as (partially) fired."""

_DEFAULT_KB = default_knowledge_base()
"""What :func:`diagnose` and :func:`diagnose_multi` rank against when no
``kb`` is given; never handed to a caller, so nothing can extend it."""


@dataclass(frozen=True, slots=True)
class Diagnosis:
    """One ranked candidate cause."""

    cause: str
    description: str
    log_likelihood: float
    posterior: float
    """Posterior under a uniform prior over the knowledge-base causes."""
    supporting: tuple[str, ...]
    """Fired assertions this cause predicts (its confirming evidence)."""
    contradicting: tuple[str, ...]
    """Expected-but-silent assertions (evidence against this cause)."""


@dataclass(slots=True)
class DiagnosisResult:
    """Ranked diagnosis for one run."""

    ranking: list[Diagnosis]
    evidence: dict[str, float]

    def top(self) -> Diagnosis:
        return self.ranking[0]

    def rank_of(self, cause: str) -> int | None:
        """1-based rank of a cause, or None if it is not in the ranking."""
        for i, d in enumerate(self.ranking):
            if d.cause == cause:
                return i + 1
        return None

    def top_k(self, k: int) -> list[str]:
        return [d.cause for d in self.ranking[:k]]

    @property
    def confident(self) -> bool:
        """True when the top cause clearly separates from the runner-up."""
        if len(self.ranking) < 2:
            return True
        return self.ranking[0].posterior >= 2.0 * self.ranking[1].posterior

    @property
    def ambiguous(self) -> bool:
        """Detected-but-not-separated: the counterfactual tie-break trigger.

        True when the evidence does not confidently single out the top
        cause (see :attr:`confident`) — the situation where knowledge-base
        pattern matching has run out and hypothesis testing
        (:func:`repro.experiments.counterfactual.counterfactual_tiebreak`)
        can still separate the candidates.
        """
        return len(self.ranking) >= 2 and not self.confident


def diagnose(
    report: CheckReport, kb: KnowledgeBase | None = None
) -> DiagnosisResult:
    """Rank the knowledge base's causes against a check report.

    Args:
        report: output of :func:`repro.core.checker.check_trace` (or an
            online monitor's :meth:`finish`).
        kb: knowledge base (default: the built-in attack profiles).

    Returns:
        A :class:`DiagnosisResult`, ranked most likely cause first.
    """
    return _rank_evidence(report.evidence(),
                          _DEFAULT_KB if kb is None else kb)


def _rank_evidence(evidence: dict[str, float],
                   kb: KnowledgeBase) -> DiagnosisResult:
    profiles = kb.profiles()
    log_ls = [0.0] * len(profiles)
    supporting: list[list[str]] = [[] for _ in profiles]
    contradicting: list[list[str]] = [[] for _ in profiles]
    for assertion_id, strength in evidence.items():
        log_p, log_q, supports, contradicts = kb.likelihood_row(assertion_id)
        if strength >= _EVIDENCE_THRESHOLD:
            # Fractional-exponent interpolation between "fired" and
            # "not fired" keeps weak evidence weak.
            w = min(strength, 1.0)
            v = 1.0 - w
            log_ls = [ll + (w * a + v * b)
                      for ll, a, b in zip(log_ls, log_p, log_q)]
            for i in supports:
                supporting[i].append(assertion_id)
        else:
            log_ls = [ll + b for ll, b in zip(log_ls, log_q)]
            for i in contradicts:
                contradicting[i].append(assertion_id)

    # Posterior under a uniform prior (log-sum-exp for stability).
    max_ll = max(log_ls)
    weights = [math.exp(ll - max_ll) for ll in log_ls]
    total = sum(weights)
    scored = [
        Diagnosis(
            cause=profile.cause,
            description=profile.description,
            log_likelihood=ll,
            posterior=weight / total,
            supporting=tuple(sup),
            contradicting=tuple(con),
        )
        for profile, ll, weight, sup, con in zip(
            profiles, log_ls, weights, supporting, contradicting)
    ]
    # Exact ties are broken by cause name so the ranking is deterministic
    # (dict insertion order of the knowledge base is an implementation
    # detail, not a diagnosis).
    scored.sort(key=lambda d: (-d.log_likelihood, d.cause))
    return DiagnosisResult(ranking=scored, evidence=evidence)


def apply_tiebreak(result: DiagnosisResult, scores: dict[str, float],
                   ) -> DiagnosisResult:
    """Re-order the head of a ranking by an external score (lower = better).

    The counterfactual hypothesis test produces, per candidate cause, a
    distance between the observed assertion signature and the signature
    that cause *actually* produces when re-simulated.  This folds those
    scores back into the ranking: only causes present in ``scores`` move,
    and only among the positions they already occupy — the likelihood
    ranking of everything unprobed is left untouched.  Score ties fall
    back to the original likelihood order.
    """
    if not scores:
        return result
    positions = [i for i, d in enumerate(result.ranking) if d.cause in scores]
    reordered = sorted(
        (result.ranking[i] for i in positions),
        key=lambda d: (scores[d.cause], result.ranking.index(d)),
    )
    ranking = list(result.ranking)
    for i, d in zip(positions, reordered):
        ranking[i] = d
    return DiagnosisResult(ranking=ranking, evidence=dict(result.evidence))


@dataclass(slots=True)
class MultiDiagnosis:
    """Result of the iterative multi-cause diagnosis."""

    causes: list[Diagnosis]
    """Accepted causes, in explanation order (strongest first)."""
    residual_evidence: dict[str, float]
    """Evidence left unexplained after all accepted causes."""
    rounds: list[DiagnosisResult]
    """The per-round single-cause rankings (for inspection)."""

    @property
    def cause_set(self) -> frozenset[str]:
        return frozenset(d.cause for d in self.causes)

    @property
    def fully_explained(self) -> bool:
        """True when no strong evidence remains unexplained."""
        return all(s < _EVIDENCE_THRESHOLD
                   for s in self.residual_evidence.values())


def diagnose_multi(
    report: CheckReport,
    kb: KnowledgeBase | None = None,
    max_causes: int = 3,
    explain_prob: float = 0.3,
) -> MultiDiagnosis:
    """Iterative explain-away diagnosis for *concurrent* faults.

    A single-cause ranking degrades when two faults superpose (E11): the
    dominant cause's evidence swamps the other's. This greedy loop fixes
    that: accept the top-ranked cause, remove the evidence it predicts
    (fire probability >= ``explain_prob``), and re-rank the *residual*
    evidence — repeating until nothing strong remains or ``none`` wins.

    Args:
        report: the check report.
        kb: knowledge base (default: the built-in attack profiles).
        max_causes: upper bound on accepted causes.
        explain_prob: an accepted cause explains the assertions it
            predicts with at least this probability.

    Returns:
        A :class:`MultiDiagnosis`; for a single-fault run its
        ``cause_set`` matches the single-cause top-1.
    """
    if kb is None:
        kb = _DEFAULT_KB
    if max_causes < 1:
        raise ValueError("max_causes must be >= 1")

    remaining = dict(report.evidence())
    causes: list[Diagnosis] = []
    rounds: list[DiagnosisResult] = []
    for _ in range(max_causes):
        if all(s < _EVIDENCE_THRESHOLD for s in remaining.values()):
            break
        result = _rank_evidence(remaining, kb)
        rounds.append(result)
        top = result.top()
        if top.cause == "none":
            break
        causes.append(top)
        profile = kb.profile(top.cause)
        # Explained assertions are *removed*, not zeroed: zeroing would
        # make evidence the first cause already accounts for count as
        # contradicting silence against every later candidate.
        for aid, strength in list(remaining.items()):
            if strength >= _EVIDENCE_THRESHOLD and (
                profile.prob(aid) >= explain_prob
            ):
                del remaining[aid]
    return MultiDiagnosis(causes=causes, residual_evidence=remaining,
                          rounds=rounds)
