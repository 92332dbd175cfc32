"""The table-driven diagnosis against the per-cell loop it replaced.

:func:`repro.core.diagnosis.diagnose` ranks causes by looking up one
likelihood row per assertion id in the knowledge base and summing.
The oracle below is the per-cell loop the rows replaced (it calls
``profile.prob``, clips and takes both logs for every cause and
assertion).  Every field of every ranked cause must come out
bit-identical, in the same order, for any evidence map and knowledge
base: strengths at, just below and just above the evidence threshold,
above 1 and 0; assertion ids no profile names; the built-in, defect
and restricted knowledge bases and one extended by ``add``; and the
rounds and residuals of ``diagnose_multi``.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diagnosis import (
    Diagnosis,
    DiagnosisResult,
    _rank_evidence,
    diagnose,
    diagnose_multi,
)
from repro.core.knowledge import (
    CauseProfile,
    KnowledgeBase,
    default_knowledge_base,
    defect_knowledge_base,
)

THRESHOLD = 0.12

CATALOG_IDS = ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9G", "A9S",
               "A9C", "A10", "A11", "A12", "A13", "A14", "A15", "A16",
               "A17", "A18", "A19", "A20", "A21", "A22"]
UNKNOWN_IDS = ["U1", "user_lane_keep", "A99"]

EDGE_STRENGTHS = [0.0, THRESHOLD, math.nextafter(THRESHOLD, 0.0),
                  math.nextafter(THRESHOLD, 1.0), 1.0,
                  math.nextafter(1.0, 2.0), 1.7, 5.0]


# -- the oracle: the per-cell loop the likelihood rows replaced ------------
def _clip(p: float) -> float:
    return min(max(p, 0.02), 0.98)


def oracle_rank(evidence: dict[str, float],
                kb: KnowledgeBase) -> DiagnosisResult:
    scored: list[Diagnosis] = []
    for profile in kb.profiles():
        log_l = 0.0
        supporting: list[str] = []
        contradicting: list[str] = []
        for assertion_id, strength in evidence.items():
            p = _clip(profile.prob(assertion_id))
            if strength >= THRESHOLD:
                w = min(strength, 1.0)
                log_l += w * math.log(p) + (1.0 - w) * math.log(1.0 - p)
                if profile.prob(assertion_id) > 0.3:
                    supporting.append(assertion_id)
            else:
                log_l += math.log(1.0 - p)
                if profile.prob(assertion_id) >= 0.6:
                    contradicting.append(assertion_id)
        scored.append(Diagnosis(
            cause=profile.cause, description=profile.description,
            log_likelihood=log_l, posterior=0.0,
            supporting=tuple(supporting),
            contradicting=tuple(contradicting)))
    max_ll = max(d.log_likelihood for d in scored)
    total = sum(math.exp(d.log_likelihood - max_ll) for d in scored)
    import dataclasses

    scored = [dataclasses.replace(
        d, posterior=math.exp(d.log_likelihood - max_ll) / total)
        for d in scored]
    scored.sort(key=lambda d: (-d.log_likelihood, d.cause))
    return DiagnosisResult(ranking=scored, evidence=evidence)


def oracle_multi(evidence: dict[str, float], kb: KnowledgeBase,
                 max_causes: int, explain_prob: float):
    remaining = dict(evidence)
    causes: list[Diagnosis] = []
    rounds: list[DiagnosisResult] = []
    for _ in range(max_causes):
        if all(s < THRESHOLD for s in remaining.values()):
            break
        result = oracle_rank(remaining, kb)
        rounds.append(result)
        top = result.top()
        if top.cause == "none":
            break
        causes.append(top)
        profile = kb.profile(top.cause)
        for aid, strength in list(remaining.items()):
            if strength >= THRESHOLD and profile.prob(aid) >= explain_prob:
                del remaining[aid]
    return causes, remaining, rounds


# -- comparison: every float by its bits ------------------------------------
def _bits(d: Diagnosis) -> tuple:
    return (d.cause, d.description, d.log_likelihood.hex(),
            d.posterior.hex(), d.supporting, d.contradicting)


def assert_same(got: DiagnosisResult, want: DiagnosisResult) -> None:
    assert [_bits(d) for d in got.ranking] == \
        [_bits(d) for d in want.ranking]
    assert list(got.evidence.items()) == list(want.evidence.items())


class _Report:
    """What ``diagnose``/``diagnose_multi`` read of a check report."""

    def __init__(self, evidence: dict[str, float]):
        self._evidence = evidence

    def evidence(self) -> dict[str, float]:
        return dict(self._evidence)


# -- strategies --------------------------------------------------------------
strengths = st.one_of(st.sampled_from(EDGE_STRENGTHS),
                      st.floats(0.0, 2.0, allow_nan=False))
evidence_maps = st.dictionaries(
    st.sampled_from(CATALOG_IDS + UNKNOWN_IDS), strengths, max_size=27)
probs = st.one_of(st.sampled_from([0.0, 0.01, 0.02, 0.06, 0.3,
                                   math.nextafter(0.3, 1.0), 0.6,
                                   math.nextafter(0.6, 0.0), 0.98, 0.99,
                                   1.0]),
                  st.floats(0.0, 1.0, allow_nan=False))


@st.composite
def knowledge_bases(draw) -> KnowledgeBase:
    """A built-in knowledge base, a restriction of one, or a random one."""
    kind = draw(st.sampled_from(["default", "defect", "restricted",
                                 "random"]))
    if kind == "default":
        return default_knowledge_base()
    if kind == "defect":
        return defect_knowledge_base()
    if kind == "restricted":
        keep = draw(st.sets(st.sampled_from(CATALOG_IDS)))
        return default_knowledge_base().restricted(keep)
    names = draw(st.lists(st.text("abcdefgh", min_size=1, max_size=4),
                          min_size=1, max_size=6, unique=True))
    return KnowledgeBase([
        CauseProfile(name, f"cause {name}", draw(st.dictionaries(
            st.sampled_from(CATALOG_IDS[:8] + UNKNOWN_IDS[:1]), probs,
            max_size=6)))
        for name in names])


# -- properties ---------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(evidence=evidence_maps, kb=knowledge_bases())
def test_ranking_is_bit_identical_to_the_per_cell_loop(evidence, kb):
    assert_same(_rank_evidence(evidence, kb), oracle_rank(evidence, kb))
    # A second ranking reads the rows the first one built.
    assert_same(diagnose(_Report(evidence), kb), oracle_rank(evidence, kb))


@settings(max_examples=100, deadline=None)
@given(evidence=evidence_maps)
def test_default_knowledge_base_when_none_is_given(evidence):
    assert_same(diagnose(_Report(evidence)),
                oracle_rank(evidence, default_knowledge_base()))


@settings(max_examples=100, deadline=None)
@given(evidence=evidence_maps, extra=st.dictionaries(
    st.sampled_from(CATALOG_IDS + UNKNOWN_IDS), probs, max_size=6))
def test_add_drops_the_rows(evidence, extra):
    kb = default_knowledge_base()
    assert_same(_rank_evidence(evidence, kb), oracle_rank(evidence, kb))
    kb.add(CauseProfile("refined", "added by the refine step", extra))
    assert_same(_rank_evidence(evidence, kb), oracle_rank(evidence, kb))
    assert len(_rank_evidence(evidence, kb).ranking) == len(kb.causes)


@settings(max_examples=200, deadline=None)
@given(evidence=evidence_maps, kb=knowledge_bases(),
       max_causes=st.integers(1, 4),
       explain_prob=st.sampled_from([0.3, 0.5, 0.6, 0.9]))
def test_multi_rounds_and_residuals_match(evidence, kb, max_causes,
                                          explain_prob):
    got = diagnose_multi(_Report(evidence), kb, max_causes=max_causes,
                         explain_prob=explain_prob)
    causes, remaining, rounds = oracle_multi(evidence, kb, max_causes,
                                             explain_prob)
    assert [_bits(d) for d in got.causes] == [_bits(d) for d in causes]
    assert list(got.residual_evidence.items()) == list(remaining.items())
    assert len(got.rounds) == len(rounds)
    for got_round, want_round in zip(got.rounds, rounds):
        assert_same(got_round, want_round)


def test_default_knowledge_base_is_not_shared_with_callers():
    kb = default_knowledge_base()
    kb.add(CauseProfile("intruder", "a caller's own extension",
                        {"A1": 0.99}))
    evidence = {"A1": 1.0, "A2": 0.0}
    ranking = diagnose(_Report(evidence)).ranking
    assert "intruder" not in {d.cause for d in ranking}
    assert_same(diagnose(_Report(evidence)),
                oracle_rank(evidence, default_knowledge_base()))
