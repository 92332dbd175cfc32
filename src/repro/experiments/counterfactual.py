"""Counterfactual root-cause isolation: delta-debug the diagnosis.

Knowledge-base pattern matching (:mod:`repro.core.diagnosis`) ranks
*hypotheses*; this module tests them.  Given a violating run, it
re-simulates counterfactuals — the injection removed, its window
bisected, its channels ablated, its magnitude minimized — to isolate the
smallest intervention that still flips the verdict, Zeller-style.  Two
properties the rest of the repo already paid for make this practical:

* **determinism** — every run is a pure function of its coordinates, so a
  counterfactual differs from the original *only* by the edit
  (``tests/test_counterfactual_exact.py`` pins this bit-for-bit under
  both the serial and the lockstep batch engine);
* **the content-addressed run cache** — probes are params-keyed through
  :class:`~repro.experiments.backend.ScoredResultStore`, so a repeated
  explanation re-simulates nothing, any process that shares the cache
  directory reuses the probes, and every probe commits exactly once.

The search cores (:func:`ddmin_interval`, :func:`ddmin_subset`,
:func:`bisect_intensity`) are pure functions over a ``violates``
predicate, so they are property-tested without a simulator in the loop
(``tests/test_counterfactual.py``).  The driver, :func:`explain`,
composes them into a :class:`CausalReport`; the same probe machinery
backs :func:`counterfactual_tiebreak` (E4's escape hatch for ambiguous
rankings) and :func:`detect_separation_gap` (the automated half of the
paper's E9 refinement loop: flag cause pairs no counterfactual can
separate and propose the assertion signature that would).

Probe accounting is deliberately cache-independent: every probe —
memo hit, disk hit or fresh simulation — counts against the budget, so
an explanation is a deterministic function of its inputs; the cache only
changes how fast it converges (``adassure explain --stats`` shows the
hit split).  See ``docs/counterfactual.md`` for the full algorithm.
"""

from __future__ import annotations

import functools
import math
import re
import time
from dataclasses import dataclass, field, replace

from repro.attacks.campaign import (
    ATTACK_CLASSES,
    AttackCampaign,
    campaign_classes,
    reparameterized_attack,
)
from repro.core.diagnosis import (
    DiagnosisResult,
    apply_tiebreak,
    diagnose,
)
from repro.core.knowledge import KnowledgeBase, default_knowledge_base
from repro.core.verdicts import CheckReport
from repro.experiments.backend import Run, execute
from repro.experiments.stats import STATS, GridStats
from repro.faults.campaign import (
    FaultCampaign,
    fault_classes,
    reparameterized_fault,
)
from repro.sim.engine import LaneSpec, RunResult, lane_spec
from repro.sim.scenario import Scenario, acc_scenario, standard_scenarios

__all__ = [
    "CausalReport",
    "Intervention",
    "IntensityResult",
    "IntervalResult",
    "ProbeBudgetExhausted",
    "ProbeEngine",
    "ProbeOutcome",
    "SeparationGap",
    "Subject",
    "SubsetResult",
    "TiebreakResult",
    "bisect_intensity",
    "counterfactual_tiebreak",
    "ddmin_interval",
    "ddmin_subset",
    "detect_separation_gap",
    "explain",
    "intensity_probe_tree",
    "interval_probe_tree",
    "probe_params",
    "subset_probe_tree",
]

PROBE_KIND = "counterfactual"
"""``params["kind"]`` discriminator for every probe cache entry."""

DEFAULT_BUDGET = 48
"""Default probe budget per explanation (every probe counts, cached or not)."""

DEFAULT_RESOLUTION = 0.5
"""Default window-bisection granularity, seconds."""

GAP_SEPARATION = 0.5
"""Candidate signatures closer than this (L1 over assertion strengths)
are considered counterfactually inseparable — the refinement-gap signal."""


class ProbeBudgetExhausted(RuntimeError):
    """A search hit its probe budget; the best result so far is returned
    with ``exhausted=True`` rather than raising to the caller."""


@dataclass(slots=True)
class _Budget:
    """Probe counter shared by the searches of one explanation."""

    limit: int
    used: int = 0

    @property
    def remaining(self) -> int:
        return max(self.limit - self.used, 0)

    def charge(self) -> None:
        if self.used >= self.limit:
            raise ProbeBudgetExhausted(
                f"probe budget of {self.limit} exhausted")
        self.used += 1


# ---------------------------------------------------------------------------
# Search cores: pure functions over a `violates` predicate.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class IntervalResult:
    """Outcome of :func:`ddmin_interval` (integer step space)."""

    lo: int
    hi: int
    probes: int
    exhausted: bool

    @property
    def size(self) -> int:
        return self.hi - self.lo

    @property
    def minimal(self) -> bool:
        """1-minimality was *verified* (the budget did not cut the search
        short): trimming one more unit off either end no longer violates."""
        return not self.exhausted


def ddmin_interval(violates, n: int, budget: int = 64,
                   prefetch=None) -> IntervalResult:
    """Shrink the violating interval ``[0, n)`` to a 1-minimal sub-interval.

    ``violates(lo, hi)`` must hold for ``(0, n)`` (the caller verifies it;
    it is never re-probed here).  Zeller-style delta debugging specialised
    to contiguous windows: greedily trim power-of-two-sized steps off the
    right, then the left, halving the step on failure until single-unit
    trims fail on both ends.

    ``prefetch``, when given, receives each round's full candidate set —
    the right-trim and left-trim windows this round may probe — *before*
    any verdict is inspected, so a batch engine can simulate the round as
    one lane group.  It charges no budget and must not affect verdicts:
    the serial probe order below is authoritative.

    Guarantees (the hypothesis suite pins each):

    * the returned interval always still violates — a non-monotone
      predicate cannot over-shrink it below a violating witness;
    * the interval only ever shrinks, so non-monotone streams cannot
      loop the search;
    * on normal exit the interval is 1-minimal;
    * at most ``budget`` probes are issued; on exhaustion the best
      violating interval found so far comes back with ``exhausted=True``.
    """
    if n < 1:
        raise ValueError("interval must span at least one unit")
    budget_ = _Budget(int(budget))
    lo, hi = 0, n
    exhausted = False

    def test(a: int, b: int) -> bool:
        budget_.charge()
        return bool(violates(a, b))

    step = 1
    while step * 2 < n:
        step *= 2
    try:
        while step >= 1:
            if prefetch is not None and hi - lo > step:
                prefetch(((lo, hi - step), (lo + step, hi)))
            if hi - lo > step and test(lo, hi - step):
                hi -= step
            elif hi - lo > step and test(lo + step, hi):
                lo += step
            else:
                step //= 2
    except ProbeBudgetExhausted:
        exhausted = True
    return IntervalResult(lo=lo, hi=hi, probes=budget_.used,
                          exhausted=exhausted)


@dataclass(frozen=True, slots=True)
class SubsetResult:
    """Outcome of :func:`ddmin_subset`."""

    kept: tuple
    probes: int
    exhausted: bool

    @property
    def minimal(self) -> bool:
        return not self.exhausted


def ddmin_subset(violates, items, budget: int = 64,
                 prefetch=None) -> SubsetResult:
    """1-minimal sufficient subset of ``items`` (order-preserving).

    ``violates(subset)`` must hold for the full tuple.  Fast path: probe
    each singleton — any violating singleton is immediately 1-minimal
    (the common case for independent attack channels).  Otherwise greedy
    leave-one-out elimination until no single removal still violates.
    Same budget contract as :func:`ddmin_interval`; ``prefetch``
    (optional, budget-free, verdict-neutral) receives each round's full
    candidate set — all singletons, then each sweep's leave-one-out
    complements — before any verdict is inspected.
    """
    items = tuple(items)
    if not items:
        raise ValueError("subset minimization needs at least one item")
    budget_ = _Budget(int(budget))
    kept = list(items)
    exhausted = False

    def test(subset) -> bool:
        budget_.charge()
        return bool(violates(tuple(subset)))

    try:
        if len(kept) > 1:
            if prefetch is not None:
                prefetch(tuple((item,) for item in items))
            for item in items:
                if test([item]):
                    kept = [item]
                    break
        changed = len(kept) > 1
        while changed and len(kept) > 1:
            changed = False
            if prefetch is not None:
                prefetch(tuple(
                    tuple(x for x in kept if x != item) for item in kept))
            for item in list(kept):
                candidate = [x for x in kept if x != item]
                if test(candidate):
                    kept = candidate
                    changed = True
                    break
    except ProbeBudgetExhausted:
        exhausted = True
    return SubsetResult(kept=tuple(kept), probes=budget_.used,
                        exhausted=exhausted)


@dataclass(frozen=True, slots=True)
class IntensityResult:
    """Outcome of :func:`bisect_intensity`."""

    minimal: float
    """Smallest probed magnitude that still violates."""
    lower: float
    """Largest probed magnitude that did not (the boundary sits between)."""
    probes: int
    exhausted: bool

    @property
    def boundary_width(self) -> float:
        return self.minimal - self.lower


def bisect_intensity(violates, hi: float, *, rel_resolution: float = 1 / 16,
                     budget: int = 64, prefetch=None) -> IntensityResult:
    """1-minimize the magnitude knob toward the verdict boundary.

    ``violates(hi)`` must hold.  Standard bisection keeping the upper end
    violating, down to a boundary bracket of ``hi * rel_resolution``.
    Magnitude-free interventions (freeze, blinding) simply converge to a
    near-zero minimal intensity — "violates at any magnitude".

    ``prefetch`` (optional, budget-free, verdict-neutral) receives each
    round's speculative candidate set before the verdict is inspected:
    the midpoint plus *both* next-level midpoints — ``0.5*(lo+mid)`` if
    the midpoint violates, ``0.5*(mid+hi)`` if it does not — exactly the
    float expressions the serial recursion would evaluate, so a batch
    engine can run the round one level deep without changing the
    returned boundary.
    """
    if hi <= 0:
        raise ValueError("intensity must be positive")
    budget_ = _Budget(int(budget))
    lo = 0.0
    resolution = hi * float(rel_resolution)
    exhausted = False
    try:
        while hi - lo > resolution:
            if prefetch is not None:
                mid = 0.5 * (lo + hi)
                if 0.5 * (hi - lo) > resolution:
                    prefetch((mid, 0.5 * (lo + mid), 0.5 * (mid + hi)))
                else:
                    # Final round: the next-level midpoints sit inside a
                    # bracket the loop will never re-enter — offering
                    # them would only buy wasted lanes.
                    prefetch((mid,))
            budget_.charge()
            mid = 0.5 * (lo + hi)
            if violates(mid):
                hi = mid
            else:
                lo = mid
    except ProbeBudgetExhausted:
        exhausted = True
    return IntensityResult(minimal=hi, lower=lo, probes=budget_.used,
                           exhausted=exhausted)


# ---------------------------------------------------------------------------
# Probe-tree enumeration: the searches' reachable probe sets, up front.
#
# Every probe the three searches can possibly issue is a pure function of
# the *input* configuration — the verdicts only select which ones get
# consumed.  Enumerating the reachable sets lets `explain()` push the
# whole probe tree through the batch engine as one speculative lane
# group before the serial searches start; the serial order then finds
# every probe already cached.  Unconsumed lanes are `speculative_wasted`.
# ---------------------------------------------------------------------------

def interval_probe_tree(n: int, limit: int = 64) -> tuple[tuple[int, int], ...]:
    """Every window :func:`ddmin_interval` can probe over ``[0, n)``.

    Breadth-first over the search's reachable states ``(lo, hi, step)``
    across *all* verdict branches (right trim, left trim, step halving),
    collecting the distinct candidate windows shallow-first — the probes
    the real search issues earliest come first, so a lane cap drops only
    the deep tail.
    """
    if n < 1:
        return ()
    step0 = 1
    while step0 * 2 < n:
        step0 *= 2
    windows: list[tuple[int, int]] = []
    seen_windows: set[tuple[int, int]] = set()
    seen_states = {(0, n, step0)}
    frontier = [(0, n, step0)]
    while frontier and len(windows) < limit:
        nxt = []
        for lo, hi, step in frontier:
            if hi - lo > step:
                for cand in ((lo, hi - step), (lo + step, hi)):
                    if cand not in seen_windows:
                        seen_windows.add(cand)
                        windows.append(cand)
                succs = ((lo, hi - step, step), (lo + step, hi, step),
                         (lo, hi, step // 2))
            else:
                succs = ((lo, hi, step // 2),)
            for state in succs:
                if state[2] >= 1 and state not in seen_states:
                    seen_states.add(state)
                    nxt.append(state)
        frontier = nxt
    return tuple(windows[:limit])


def subset_probe_tree(items, limit: int = 64) -> tuple[tuple, ...]:
    """Every proper non-empty ordered subset :func:`ddmin_subset` can
    probe: singletons first (the fast path), then leave-one-out-reachable
    subsets by descending size.  Empty beyond 6 items (the enumeration
    would dwarf the search it speculates for)."""
    items = tuple(items)
    k = len(items)
    if k <= 1 or k > 6:
        return ()
    import itertools
    out: list[tuple] = [(item,) for item in items]
    for size in range(k - 1, 1, -1):
        out.extend(itertools.combinations(items, size))
    return tuple(out[:limit])


def intensity_probe_tree(hi: float, rel_resolution: float = 1 / 16,
                         limit: int = 64) -> tuple[float, ...]:
    """Every midpoint :func:`bisect_intensity` can probe from ``hi``.

    The bisection's full binary bracket tree, each midpoint computed with
    the exact float expression (``0.5 * (lo + hi)`` along the bracket
    path) the serial search would use — bitwise-identical probe
    intensities, so prefetched lanes alias the serial probes' cache keys.
    """
    if hi <= 0:
        return ()
    resolution = float(hi) * float(rel_resolution)
    mids: list[float] = []
    seen: set[float] = set()
    frontier = [(0.0, float(hi))]
    while frontier and len(mids) < limit:
        nxt = []
        for lo, h in frontier:
            if h - lo > resolution:
                mid = 0.5 * (lo + h)
                if mid not in seen:
                    seen.add(mid)
                    mids.append(mid)
                nxt.append((lo, mid))
                nxt.append((mid, h))
        frontier = nxt
    return tuple(mids[:limit])


# ---------------------------------------------------------------------------
# Interventions and probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Intervention:
    """One (possibly edited) injection configuration for a probe.

    The unit the delta-debugger edits: attack/fault channel sets, a
    shared magnitude knob, and a shared injection window.  The *original*
    intervention reconstructs the violating run's campaigns
    object-for-object; edits derive siblings via :meth:`with_window`,
    :meth:`with_channels` and :meth:`with_intensity`.
    """

    attacks: tuple[str, ...] = ()
    faults: tuple[str, ...] = ()
    intensity: float = 1.0
    onset: float = 15.0
    end: float = math.inf

    @staticmethod
    def from_labels(attack: str = "none", fault: str = "none",
                    intensity: float = 1.0, onset: float = 15.0,
                    end: float = math.inf) -> "Intervention":
        """Decode ``+``-joined campaign labels into an intervention."""
        return Intervention(
            attacks=campaign_classes(attack),
            faults=fault_classes(fault),
            intensity=float(intensity),
            onset=float(onset),
            end=float(end),
        )

    @property
    def empty(self) -> bool:
        return not self.attacks and not self.faults

    @property
    def label(self) -> str:
        parts = list(self.attacks) + list(self.faults)
        return "+".join(parts) if parts else "none"

    @property
    def channels(self) -> tuple[tuple[str, str], ...]:
        """Ablatable units as ``(kind, class)`` pairs."""
        return tuple(("attack", cls) for cls in self.attacks) + tuple(
            ("fault", cls) for cls in self.faults)

    def removed(self) -> "Intervention":
        return replace(self, attacks=(), faults=())

    def with_window(self, onset: float, end: float) -> "Intervention":
        return replace(self, onset=float(onset), end=float(end))

    def with_intensity(self, intensity: float) -> "Intervention":
        return replace(self, intensity=float(intensity))

    def with_channels(self, channels) -> "Intervention":
        """Keep only the given ``(kind, class)`` pairs (order preserved)."""
        keep = set(channels)
        return replace(
            self,
            attacks=tuple(c for c in self.attacks if ("attack", c) in keep),
            faults=tuple(c for c in self.faults if ("fault", c) in keep),
        )

    def edit_dict(self) -> dict:
        """Canonical JSON description — the probe cache-key component.

        Every field rides in the key, so an *edited* intervention can
        never alias the original entry or a sibling edit (the
        key-collision regression in ``tests/test_counterfactual.py``
        pins this).  An unbounded window serialises as ``None`` (JSON
        has no infinity).
        """
        return {
            "attacks": list(self.attacks),
            "faults": list(self.faults),
            "intensity": float(self.intensity),
            "onset": float(self.onset),
            "end": None if math.isinf(self.end) else float(self.end),
        }

    def campaigns(self) -> tuple[AttackCampaign, FaultCampaign]:
        """Instantiate the attack and fault campaigns for this probe."""
        attack = reparameterized_attack(
            "+".join(self.attacks) if self.attacks else "none",
            intensity=self.intensity, onset=self.onset, end=self.end)
        fault = reparameterized_fault(
            "+".join(self.faults) if self.faults else "none",
            intensity=self.intensity, onset=self.onset, end=self.end)
        return attack, fault


@dataclass(frozen=True, slots=True)
class Subject:
    """The run under explanation: everything probes share with it.

    ``gate``/``defect`` extend the subject beyond the cartesian grid to
    the off-grid E10/E13 configurations: an innovation-gated estimator
    (``EkfConfig(gate_nis=gate)``) and a deliberately defective lateral
    controller (``DefectiveController(make_defect(defect,
    **dict(defect_args)))``), so ``adassure explain`` can reproduce any
    planner-recorded run, not just grid points.
    """

    scenario: str
    controller: str
    seed: int
    duration: float | None = None
    gate: float | None = None
    defect: str | None = None
    defect_args: tuple = ()
    """Defect constructor kwargs as a hashable ``((key, value), ...)``."""

    def ekf_config(self):
        """The estimator override probes must share with the subject."""
        if self.gate is None:
            return None
        from repro.control.estimator import EkfConfig
        return EkfConfig(gate_nis=self.gate)

    def lane(self, intervention: "Intervention",
             scenario: Scenario | None = None) -> LaneSpec:
        """One probe's run description: the subject's stack (its
        estimator override and, under ``defect``, the E13 defective
        controller) under ``intervention``'s campaigns."""
        from repro.control.defects import make_defect
        attack, faults = intervention.campaigns()
        defect = (make_defect(self.defect, **dict(self.defect_args))
                  if self.defect else None)
        return lane_spec(scenario or self.build_scenario(), self.controller,
                         campaign=attack, faults=faults,
                         ekf_config=self.ekf_config(), defect=defect)

    def build_scenario(self) -> Scenario:
        """Reconstruct the scenario exactly as the grid runner does."""
        if self.scenario == "acc_follow":
            scenario = acc_scenario(seed=self.seed)
            if self.duration is not None:
                import dataclasses
                scenario = dataclasses.replace(scenario,
                                               duration=self.duration)
            return scenario
        scenarios = standard_scenarios(seed=self.seed, duration=self.duration)
        if self.scenario not in scenarios:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; "
                f"expected one of {sorted(scenarios)} or 'acc_follow'")
        return scenarios[self.scenario]


def probe_params(subject: Subject, intervention: Intervention) -> dict:
    """The :class:`~repro.experiments.backend.ScoredResultStore` params
    dict for one probe: subject coordinates plus the *full* intervention
    edit, so a modified intervention never aliases the original grid
    entry (different key space entirely) or any sibling probe.  The
    off-grid subject extensions (``gate``, ``defect``) join the key only
    when set, so plain grid subjects keep their established key space."""
    params = {
        "kind": PROBE_KIND,
        "scenario": subject.scenario,
        "controller": subject.controller,
        "seed": int(subject.seed),
        "duration": None if subject.duration is None
        else float(subject.duration),
        "edit": intervention.edit_dict(),
    }
    if subject.gate is not None:
        params["gate"] = float(subject.gate)
    if subject.defect:
        params["defect"] = subject.defect
        params["defect_args"] = [[k, v] for k, v in subject.defect_args]
    return params


@dataclass(frozen=True, slots=True)
class ProbeOutcome:
    """One probe's verdict relative to the baseline violation signature."""

    violated: bool
    """True when the probe re-fires any of the baseline's fired assertions
    (or, for the baseline probe itself, fires anything at all)."""
    fired: tuple[str, ...]
    evidence: dict[str, float]
    margins: dict[str, float]
    """Worst normalized margin per assertion (negative = violated)."""
    report: CheckReport
    result: RunResult
    source: str
    """``"memo"`` / ``"disk"`` (cache layers) or ``"sim"`` (fresh run)."""


class ProbeEngine:
    """Executes counterfactual probes with budget and cache accounting.

    Every probe — cached or fresh — counts against the budget, so the
    explanation a given budget produces is deterministic regardless of
    cache temperature.  All execution funnels through the params-keyed
    :class:`~repro.experiments.backend.ScoredResultStore`
    (:func:`~repro.experiments.runner.scored_store`), which is what makes
    probes cached, shardable and exactly-once; per-probe memo/disk hits
    accumulate into one :class:`~repro.experiments.stats.GridStats`
    record (visible via ``--stats``).
    """

    def __init__(self, subject: Subject, budget: int = DEFAULT_BUDGET,
                 sim_engine: str | None = None):
        from repro.experiments.runner import choose_sim_engine, scored_store
        self.subject = subject
        self.budget = _Budget(int(budget))
        # Speculative prefetch always offers >= 2 candidate lanes, so the
        # auto choice here is batch-unless-opted-out (ADASSURE_SIM=serial).
        self.sim_engine, engine_reason = choose_sim_engine(sim_engine, 2)
        self.store = scored_store()
        self.baseline_fired: frozenset[str] = frozenset()
        self.flipped = 0
        self.stats = GridStats()
        self._wall_start = time.perf_counter()
        self._scenario: Scenario | None = None
        self.stats.sim_engine = self.sim_engine
        self.stats.sim_engine_reason = engine_reason
        self._speculative: dict[str, RunResult] = {}
        """Prefetched-and-simulated lanes (canonical params -> raw
        :class:`RunResult`) not yet consumed by :meth:`outcome` —
        ``speculative_wasted`` is its size.  Lanes are held raw: the
        assertion check and the store commit are deferred until a search
        actually asks for the probe, so wasted lanes cost only their
        share of the lockstep batch, never a check or a disk write."""
        self.speculate = True
        """Master switch for :meth:`prefetch`.  :func:`explain` turns it
        off on a warm store (the original probe already resolves): the
        searches then replay a previously-consumed probe sequence
        entirely from cache, and speculation would only re-simulate the
        prior pass's wasted lanes — which, held raw, were deliberately
        never committed."""

    @property
    def remaining(self) -> int:
        return self.budget.remaining

    @property
    def probes(self) -> int:
        return self.budget.used

    # -- execution ------------------------------------------------------
    def _lane(self, intervention: Intervention) -> LaneSpec:
        # Every probe shares the subject's scenario object, built once.
        if self._scenario is None:
            self._scenario = self.subject.build_scenario()
        return self.subject.lane(intervention, self._scenario)

    def _run(self, intervention: Intervention, params: dict,
             group: tuple | None = None) -> Run:
        """One probe as a :class:`~repro.experiments.backend.Run`."""
        return Run(params, functools.partial(self._lane, intervention),
                   group)

    def _resolve_or_run(self, intervention: Intervention):
        from repro.core.checker import check_trace
        params = probe_params(self.subject, intervention)
        spec = self._speculative.pop(self.store.canonical(params), None)
        if spec is not None:
            # Consume a speculative lane: it was simulated in a prefetch
            # batch but the check and commit were deferred to here so
            # that wasted lanes never pay them.  `executed` was already
            # counted at prefetch time; this is a memo hit.
            t1 = time.perf_counter()
            report = check_trace(spec.trace)
            t2 = time.perf_counter()
            self.store.commit(params, (spec, report))
            self.stats.memo_hits += 1
            self.stats.speculative_wasted = len(self._speculative)
            self.stats.phase_time["check"] += t2 - t1
            return spec, report, "memo"
        # One probe at a time, on the serial oracle.
        run = self._run(intervention, params)
        execute([run], self.store, self.stats)
        if run.error is not None:
            raise run.error
        result, report = run.value
        return result, report, run.source

    def prefetch(self, interventions) -> int:
        """Batch-simulate uncached probes through the lockstep engine.

        Only active with ``sim_engine="batch"``; an optimization, not a
        semantic: results are bit-identical to the serial path (the
        differential suite pins this), so prefetching never changes an
        explanation — and it charges no budget (the later
        :meth:`outcome` calls do).  All pending probes go in one
        speculative group; returns the number of lanes batched.  An
        engine rejection simulates nothing: the probes then run one at a
        time when a search asks for them.
        """
        if not self.speculate or self.sim_engine != "batch":
            return 0
        group = (self.subject.scenario, self.subject.duration)
        runs: dict[str, Run] = {}
        for intervention in interventions:
            params = probe_params(self.subject, intervention)
            canon = self.store.canonical(params)
            if canon not in runs and canon not in self._speculative:
                runs[canon] = self._run(intervention, params, group)
        if not runs:
            return 0
        execute(list(runs.values()), self.store, self.stats,
                lanes=len(runs), commit=False)
        issued = 0
        for canon, run in runs.items():
            if run.source == "sim":
                # Held raw: check + commit happen lazily in
                # _resolve_or_run iff a search consumes the lane.
                self._speculative[canon] = run.value
                issued += 1
        self.stats.speculative_issued += issued
        self.stats.speculative_wasted = len(self._speculative)
        return issued

    def outcome(self, intervention: Intervention) -> ProbeOutcome:
        """Run one probe (budget-charged) and score it against the
        baseline violation signature."""
        self.budget.charge()
        result, report, source = self._resolve_or_run(intervention)
        fired = tuple(report.fired_ids)
        if self.baseline_fired:
            violated = bool(self.baseline_fired & set(fired))
        else:
            violated = report.any_fired
        if not violated:
            self.flipped += 1
        margins = {aid: s.worst_margin
                   for aid, s in report.summaries.items()}
        return ProbeOutcome(violated=violated, fired=fired,
                            evidence=report.evidence(), margins=margins,
                            report=report, result=result, source=source)

    def violates(self, intervention: Intervention) -> bool:
        return self.outcome(intervention).violated

    def record_stats(self) -> None:
        """Report this engine's accumulated counters into
        :data:`~repro.experiments.stats.STATS` (one record per
        explanation, like one ``run_grid`` call)."""
        self.stats.grid_points = self.probes
        self.stats.wall_time = time.perf_counter() - self._wall_start
        STATS.record(self.stats)


# ---------------------------------------------------------------------------
# Hypothesis testing: tie-break + separation-gap detection
# ---------------------------------------------------------------------------

def evidence_distance(a: dict[str, float], b: dict[str, float]) -> float:
    """L1 distance between two assertion-strength signatures."""
    keys = set(a) | set(b)
    return float(sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys))


@dataclass(frozen=True, slots=True)
class TiebreakResult:
    """Outcome of counterfactually re-ranking an ambiguous diagnosis."""

    candidates: tuple[str, ...]
    """Probed causes, in original ranking order."""
    distances: dict[str, float]
    """Per-candidate L1 distance between the observed signature and the
    signature the candidate actually produces when re-simulated."""
    diagnosis: DiagnosisResult
    """The re-ranked diagnosis (head re-ordered by distance)."""

    @property
    def chosen(self) -> str:
        return self.diagnosis.top().cause


@dataclass(frozen=True, slots=True)
class SeparationGap:
    """A cause pair no counterfactual separates under the current catalog.

    The automated version of the paper's refinement trigger: when the
    top candidates' *re-simulated* signatures are nearly identical, no
    amount of probing can tell them apart — the assertion catalog lacks
    a separating assertion.  ``proposed`` names the assertion signature
    that would separate them (from the knowledge-base profiles where the
    causes differ most, falling back to a channel-consistency
    suggestion); E9's gap-proposal addendum surfaces these.
    """

    causes: tuple[str, str]
    separation: float
    """L1 distance between the two candidates' simulated signatures."""
    distances: dict[str, float]
    """Each candidate's distance to the *observed* signature."""
    proposed: tuple[str, ...]
    """Assertion ids (or a new-assertion suggestion) that would separate."""

    @property
    def separable(self) -> bool:
        return self.separation >= GAP_SEPARATION


def _propose_separators(cause_a: str, cause_b: str,
                        signatures: dict[str, dict[str, float]],
                        kb: KnowledgeBase) -> tuple[str, ...]:
    """Assertion ids that would separate two confusable causes.

    Preference order: assertions whose *simulated* strengths differ most
    (real separators if any simulation disagreement exists at all), then
    knowledge-base profile entries with the largest fire-probability gap,
    then — when both are flat — a suggestion to author a new cross-channel
    consistency assertion."""
    sim_a, sim_b = signatures.get(cause_a, {}), signatures.get(cause_b, {})
    diffs = sorted(
        ((abs(sim_a.get(k, 0.0) - sim_b.get(k, 0.0)), k)
         for k in set(sim_a) | set(sim_b)),
        reverse=True,
    )
    proposed = [k for d, k in diffs[:3] if d >= 0.05]
    if proposed:
        return tuple(proposed)
    try:
        prof_a, prof_b = kb.profile(cause_a), kb.profile(cause_b)
    except KeyError:
        prof_a = prof_b = None
    if prof_a is not None and prof_b is not None:
        keys = set(prof_a.fire_probs) | set(prof_b.fire_probs)
        gaps = sorted(((abs(prof_a.prob(k) - prof_b.prob(k)), k)
                       for k in keys), reverse=True)
        proposed = [k for g, k in gaps[:3] if g >= 0.25]
        if proposed:
            return tuple(proposed)
    chan_a = cause_a.split("_", 1)[0]
    chan_b = cause_b.split("_", 1)[0]
    return (f"new: {chan_a}-vs-{chan_b} cross-channel consistency",)


def detect_separation_gap(engine: ProbeEngine, observed: dict[str, float],
                          candidates, base: Intervention,
                          kb: KnowledgeBase | None = None,
                          ) -> tuple[dict[str, dict[str, float]],
                                     dict[str, float], SeparationGap | None]:
    """Simulate each candidate cause and measure whether anything separates.

    For every candidate attack class, probes the *hypothesis* "this cause
    alone, at the observed window and magnitude" and collects its
    signature.  Returns the signatures, each candidate's distance to the
    observed signature, and a :class:`SeparationGap` when the top two
    candidates' simulated signatures are closer than
    :data:`GAP_SEPARATION` (else ``None``).
    """
    kb = kb or default_knowledge_base()
    candidates = [c for c in candidates if c in ATTACK_CLASSES]
    hypotheses = {
        cause: Intervention(attacks=(cause,), intensity=base.intensity,
                            onset=base.onset, end=base.end)
        for cause in candidates
    }
    engine.prefetch(hypotheses.values())
    signatures: dict[str, dict[str, float]] = {}
    distances: dict[str, float] = {}
    for cause, hypothesis in hypotheses.items():
        if engine.remaining <= 0:
            break
        out = engine.outcome(hypothesis)
        signatures[cause] = out.evidence
        distances[cause] = evidence_distance(observed, out.evidence)
    gap = None
    probed = [c for c in candidates if c in signatures]
    if len(probed) >= 2:
        a, b = probed[0], probed[1]
        separation = evidence_distance(signatures[a], signatures[b])
        if separation < GAP_SEPARATION:
            gap = SeparationGap(
                causes=(a, b), separation=separation,
                distances={a: distances[a], b: distances[b]},
                proposed=_propose_separators(a, b, signatures, kb),
            )
    return signatures, distances, gap


def counterfactual_tiebreak(run, onset: float | None = None,
                            duration: float | None = None,
                            kb: KnowledgeBase | None = None,
                            top_k: int = 2, budget: int = 12,
                            sim_engine: str | None = None,
                            ) -> tuple[DiagnosisResult, SeparationGap | None]:
    """Counterfactually re-rank an ambiguous grid run's diagnosis.

    E4's escape hatch: when the knowledge-base ranking is not
    :attr:`~repro.core.diagnosis.DiagnosisResult.confident`, re-simulate
    each head candidate as a hypothesis and prefer the one whose actual
    signature lies closest to the observed evidence
    (:func:`~repro.core.diagnosis.apply_tiebreak`).  Returns the
    (possibly re-ranked) diagnosis plus a :class:`SeparationGap` when no
    counterfactual separates the candidates.

    Args:
        run: a :class:`~repro.experiments.runner.GridRun`.
        onset: injection onset; defaults to the trace's recorded
            ground-truth onset.
        duration: the grid's duration override, if any (must match the
            original run for probes to share its configuration).
    """
    diagnosis = run.diagnosis
    if not diagnosis.ambiguous:
        return diagnosis, None
    if onset is None:
        onset = run.result.trace.attack_onset()
    if onset is None:
        return diagnosis, None
    subject = Subject(scenario=run.scenario, controller=run.controller,
                      seed=run.seed, duration=duration)
    base = Intervention(attacks=campaign_classes(run.attack),
                        intensity=run.intensity, onset=float(onset))
    engine = ProbeEngine(subject, budget=budget, sim_engine=sim_engine)
    engine.baseline_fired = frozenset(
        s.assertion_id for s in run.report.summaries.values() if s.fired)
    candidates = [d.cause for d in diagnosis.ranking[:top_k]]
    try:
        _, distances, gap = detect_separation_gap(
            engine, run.report.evidence(), candidates, base, kb=kb)
    finally:
        engine.record_stats()
    return apply_tiebreak(diagnosis, distances), gap


# ---------------------------------------------------------------------------
# The explain driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class WindowSummary:
    """Minimal violating injection window, in seconds."""

    start: float
    end: float
    original_start: float
    original_end: float
    resolution: float
    probes: int
    minimal: bool

    @property
    def span(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class ChannelSummary:
    """Minimal sufficient channel set of a composed intervention."""

    kept: tuple[tuple[str, str], ...]
    dropped: tuple[tuple[str, str], ...]
    probes: int
    minimal: bool


@dataclass(frozen=True, slots=True)
class MagnitudeSummary:
    """Minimal violating magnitude (verdict-boundary bracket)."""

    minimal: float
    lower: float
    original: float
    probes: int
    exhausted: bool


@dataclass(slots=True)
class CausalReport:
    """Ranked causal explanation of one violating run.

    The deliverable of :func:`explain`: the smallest intervention that
    still flips the verdict, per-assertion margin deltas between the
    violating run and its attack-free counterfactual, and a confidence
    derived from how many probes actually flipped the verdict (each flip
    is an independent confirmation that the boundary is where the report
    says it is: confidence = 1 − 2^−flips, and 0 whenever necessity
    itself failed).
    """

    subject: Subject
    intervention: Intervention
    violated: bool
    fired: tuple[str, ...] = ()
    background: tuple[str, ...] = ()
    """Assertions that fire even with the intervention removed (scenario
    noise, e.g. truncation tripping a liveness check) — excluded from the
    signature under explanation."""
    necessary: bool = False
    """Removing the intervention clears every *attributable* violation
    (fired minus background)."""
    minimal: Intervention | None = None
    """The composed minimal intervention (window ∧ channels ∧ magnitude)."""
    minimal_verified: bool = False
    """The composed minimal intervention was re-probed and still violates."""
    window: WindowSummary | None = None
    channels: ChannelSummary | None = None
    magnitude: MagnitudeSummary | None = None
    margin_deltas: dict[str, tuple[float, float]] = field(default_factory=dict)
    """assertion id -> (margin with intervention, margin without)."""
    diagnosis: DiagnosisResult | None = None
    tiebreak: TiebreakResult | None = None
    gap: SeparationGap | None = None
    probes: int = 0
    flipped: int = 0
    budget: int = DEFAULT_BUDGET
    budget_exhausted: bool = False

    @property
    def confidence(self) -> float:
        if not self.necessary:
            return 0.0
        return 1.0 - 0.5 ** self.flipped

    @property
    def isolated(self) -> bool:
        """A minimal intervention was isolated and verified: necessity
        confirmed, and every search that ran completed within budget."""
        if not (self.violated and self.necessary):
            return False
        for search in (self.window, self.channels):
            if search is not None and not search.minimal:
                return False
        if self.magnitude is not None and self.magnitude.exhausted:
            return False
        if self.minimal is not None and not self.minimal_verified:
            return False
        return True

    def render(self) -> str:
        from repro.core.report import render_causal_report
        return render_causal_report(self)


def explain(
    scenario: str,
    controller: str,
    attack: str = "none",
    fault: str = "none",
    intensity: float = 1.0,
    onset: float = 15.0,
    seed: int = 7,
    duration: float | None = None,
    budget: int = DEFAULT_BUDGET,
    resolution: float = DEFAULT_RESOLUTION,
    sim_engine: str | None = None,
    kb: KnowledgeBase | None = None,
    gate: float | None = None,
    defect: str | None = None,
    defect_args: dict | None = None,
) -> CausalReport:
    """Counterfactually isolate the minimal intervention behind a run.

    The four searches, in order (each only spends budget the previous
    ones left):

    (a) **necessity** — re-simulate with the intervention removed; the
        explanation is causal only if that clears the violation;
    (b) **window** — ddmin the injection window to a 1-minimal violating
        interval at ``resolution``-second granularity;
    (c) **channels** — ablate composed attack/fault channel sets to the
        minimal sufficient subset;
    (d) **magnitude** — bisect the intensity knob to the verdict boundary.

    The composed minimal intervention is then re-probed once to verify
    the axes compose.  When the diagnosis of the violating run is
    ambiguous, the hypothesis tester re-ranks its head and looks for a
    separation gap (see :func:`counterfactual_tiebreak`).

    All probes run through the shared result store; `budget` counts every
    probe, cached or not, so the report is cache-independent.

    ``gate``/``defect``/``defect_args`` extend the subject with the
    off-grid knobs of the E10/E13 extensions (an NIS-gated estimator, an
    injected controller defect), so cache keys resolved from those
    sweeps can be explained too.
    """
    subject = Subject(scenario=scenario, controller=controller,
                      seed=int(seed), duration=duration, gate=gate,
                      defect=defect,
                      defect_args=tuple(sorted((defect_args or {}).items())))
    original = Intervention.from_labels(attack, fault, intensity=intensity,
                                        onset=onset)
    engine = ProbeEngine(subject, budget=budget, sim_engine=sim_engine)
    report = CausalReport(subject=subject, intervention=original,
                          violated=False, budget=budget)
    try:
        scenario_obj = subject.build_scenario()
        end_eff = min(original.end, scenario_obj.duration)
        span = end_eff - original.onset
        n = max(int(math.ceil(span / resolution - 1e-9)), 1)

        def window_time(i: int) -> float:
            # The last cell absorbs the sub-resolution remainder.
            return end_eff if i >= n else original.onset + i * resolution

        # Round zero: push the baseline, the clean counterfactual and
        # the searches' reachable probe trees through the batch engine
        # as one speculative lane group — before the first verdict is
        # even inspected.  Every candidate is a pure function of the
        # inputs — the verdicts only choose which get consumed — so the
        # serial searches below then find (nearly) everything already
        # simulated and the explanation costs one batch instead of N
        # serial simulations.  Serial order, budget and verdicts are
        # untouched; unconsumed lanes show up as `speculative_wasted`
        # in --stats and are never checked or committed (the marginal
        # cost of a wasted lane is its slice of the lockstep batch).
        # The interval tree is capped shallow here: the per-round
        # prefetch hooks below re-offer exactly the candidates each
        # ddmin round can reach, so the deep tail is never lost, just
        # deferred.  A no-op on the serial engine or when the original
        # intervention is empty (nothing to explain, nothing to batch).
        # A warm store (the original probe already resolves) also turns
        # speculation off for the whole explanation: the searches below
        # replay a prior pass's consumed-probe sequence from cache, and
        # prefetch would only re-simulate that pass's wasted lanes —
        # held raw and never committed, by design.
        if not original.empty and engine.store.resolve(
                probe_params(subject, original)) is not None:
            engine.speculate = False
        if not original.empty and engine.speculate:
            speculative: list[Intervention] = [original, original.removed()]
            if span > 0:
                speculative.extend(
                    original.with_window(window_time(a), window_time(b))
                    for a, b in interval_probe_tree(n, limit=16))
            speculative.extend(
                original.with_channels(subset)
                for subset in subset_probe_tree(original.channels))
            speculative.extend(
                original.with_intensity(mid)
                for mid in intensity_probe_tree(original.intensity))
            engine.prefetch(speculative)

        base = engine.outcome(original)
        report.fired = base.fired
        report.violated = bool(base.fired)
        report.diagnosis = diagnose(base.report, kb)
        if not report.violated or original.empty:
            return report
        engine.baseline_fired = frozenset(base.fired)

        # (a) necessity + margin deltas against the clean counterfactual.
        # Assertions that fire even with the intervention removed are
        # *background* (e.g. a truncated scenario tripping a liveness
        # check) — they are subtracted from the signature under
        # explanation, and every later probe is scored against the
        # attributable remainder only.
        clean = engine.outcome(original.removed())
        background = frozenset(base.fired) & frozenset(clean.fired)
        attributable = frozenset(base.fired) - background
        report.background = tuple(
            aid for aid in base.fired if aid in background)
        report.necessary = bool(attributable)
        engine.baseline_fired = attributable
        if attributable and clean.violated:
            # The clean probe was scored against the full baseline (the
            # attributable set did not exist yet); it did clear the
            # attributable signature, so it counts as a flip.
            engine.flipped += 1
        report.margin_deltas = {
            aid: (base.margins.get(aid, 0.0), clean.margins.get(aid, 0.0))
            for aid in base.fired if aid in attributable
        }
        if not report.necessary:
            return report

        # (b) window ddmin over [onset, end_eff) at `resolution` steps.
        window_res = None
        if span > 0 and engine.remaining > 0:

            def window_violates(a: int, b: int) -> bool:
                return engine.violates(
                    original.with_window(window_time(a), window_time(b)))

            def window_prefetch(cands) -> None:
                engine.prefetch(
                    original.with_window(window_time(a), window_time(b))
                    for a, b in cands)

            window_res = ddmin_interval(window_violates, n, budget=10 ** 9,
                                        prefetch=window_prefetch)
            report.window = WindowSummary(
                start=window_time(window_res.lo),
                end=window_time(window_res.hi),
                original_start=original.onset,
                original_end=end_eff,
                resolution=resolution,
                probes=window_res.probes,
                minimal=window_res.minimal,
            )

        # (c) channel ablation for composed interventions.
        channel_res = None
        parts = original.channels
        if len(parts) > 1 and engine.remaining > 0:

            def subset_violates(subset) -> bool:
                return engine.violates(original.with_channels(subset))

            def subset_prefetch(cands) -> None:
                engine.prefetch(original.with_channels(subset)
                                for subset in cands)

            channel_res = ddmin_subset(subset_violates, parts, budget=10 ** 9,
                                       prefetch=subset_prefetch)
            report.channels = ChannelSummary(
                kept=channel_res.kept,
                dropped=tuple(p for p in parts if p not in channel_res.kept),
                probes=channel_res.probes,
                minimal=channel_res.minimal,
            )

        # (d) magnitude 1-minimization toward the verdict boundary.
        magnitude_res = None
        if engine.remaining > 0:

            def intensity_violates(x: float) -> bool:
                return engine.violates(original.with_intensity(x))

            def intensity_prefetch(mids) -> None:
                engine.prefetch(original.with_intensity(m) for m in mids)

            magnitude_res = bisect_intensity(
                intensity_violates, original.intensity, budget=10 ** 9,
                prefetch=intensity_prefetch)
            report.magnitude = MagnitudeSummary(
                minimal=magnitude_res.minimal,
                lower=magnitude_res.lower,
                original=original.intensity,
                probes=magnitude_res.probes,
                exhausted=magnitude_res.exhausted,
            )

        # Compose the minimal intervention and verify the axes compose.
        minimal = original
        if channel_res is not None:
            minimal = minimal.with_channels(channel_res.kept)
        if window_res is not None and report.window is not None:
            minimal = minimal.with_window(report.window.start,
                                          report.window.end)
        if magnitude_res is not None and not magnitude_res.exhausted:
            minimal = minimal.with_intensity(magnitude_res.minimal)
        report.minimal = minimal

        # Tail round: the two probe sites the round-zero trees cannot
        # enumerate — the composed-minimal verification (plus its
        # window-only fallback) and the separation-gap hypotheses —
        # are exactly knowable here, so batch them as one last lane
        # group before the serial code below consumes them.  The
        # hypothesis construction mirrors detect_separation_gap.
        tail: list[Intervention] = []
        if minimal != original and engine.remaining > 0:
            tail.append(minimal)
            if window_res is not None and report.window is not None:
                fb = original.with_window(report.window.start,
                                          report.window.end)
                if fb != original:
                    tail.append(fb)
        if (report.diagnosis is not None and report.diagnosis.ambiguous
                and engine.remaining >= 2):
            tail.extend(
                Intervention(attacks=(c,), intensity=original.intensity,
                             onset=original.onset, end=original.end)
                for c in (d.cause for d in report.diagnosis.ranking[:2])
                if c in ATTACK_CLASSES)
        if tail:
            engine.prefetch(tail)

        if minimal == original:
            report.minimal_verified = True
        elif engine.remaining > 0:
            verify = engine.outcome(minimal)
            report.minimal_verified = verify.violated
            if not verify.violated:
                # Non-monotone interaction: the per-axis minima do not
                # compose.  Fall back to the least aggressive composition
                # (window-only) — still a true minimal-window statement.
                fallback = original
                if window_res is not None and report.window is not None:
                    fallback = original.with_window(report.window.start,
                                                    report.window.end)
                report.minimal = fallback
                if engine.remaining > 0 and fallback != original:
                    report.minimal_verified = engine.violates(fallback)

        # Hypothesis testing when the diagnosis stays ambiguous.
        if (report.diagnosis is not None and report.diagnosis.ambiguous
                and engine.remaining >= 2):
            candidates = [d.cause for d in report.diagnosis.ranking[:2]]
            _, distances, gap = detect_separation_gap(
                engine, base.evidence, candidates, original, kb=kb)
            if distances:
                report.tiebreak = TiebreakResult(
                    candidates=tuple(c for c in candidates
                                     if c in distances),
                    distances=distances,
                    diagnosis=apply_tiebreak(report.diagnosis, distances),
                )
            report.gap = gap
        return report
    finally:
        report.probes = engine.probes
        report.flipped = engine.flipped
        report.budget_exhausted = engine.remaining <= 0
        engine.record_stats()


_CACHE_KEY_RE = re.compile(r"^[0-9a-f]{40}$")


def resolve_cache_key(key: str):
    """Map a 40-hex run-cache key back to an explainable run, if known.

    Grid entries: scans the cache's checkpoint manifests (each records
    the full point list of a campaign) and returns the first *grid
    point tuple* whose :func:`~repro.experiments.cache.cache_key`
    matches.  Off-grid entries (``run_scored`` / planner configurations
    — the E10–E13 sweeps): falls back to the cache's params ledger
    (:meth:`~repro.experiments.cache.RunCache.load_params`) and returns
    a *dict of keyword arguments* for :func:`explain`.  Returns ``None``
    when neither side knows the key.
    """
    if not _CACHE_KEY_RE.match(key):
        raise ValueError(f"{key!r} is not a 40-hex cache key")
    import json

    from repro.experiments.cache import RunCache, cache_key
    cache = RunCache.from_env()
    if cache is None:
        return None
    checkpoint_dir = cache.root / "checkpoints"
    if checkpoint_dir.is_dir():
        for manifest_path in sorted(checkpoint_dir.glob("*.json")):
            try:
                data = json.loads(manifest_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            for entry in data.get("completed", []):
                point = tuple(entry)
                try:
                    if cache_key(*point) == key:
                        return point
                except (TypeError, ValueError):
                    continue
    params = cache.load_params(key)
    if params is not None:
        return _explain_kwargs(params)
    return None


def _explain_kwargs(params: dict) -> dict | None:
    """Translate a params-ledger entry into :func:`explain` kwargs.

    One branch per off-grid params ``kind`` (the E10–E13 sweeps and the
    probe fleet itself); unknown kinds return ``None`` — better to make
    the caller pass flags than to explain the wrong run.
    """
    kind = params.get("kind")
    if kind == "mitigation":  # E10
        kwargs = {
            "scenario": params["scenario"],
            "controller": params.get("controller", "pure_pursuit"),
            "attack": params.get("attack", "none"),
            "seed": params.get("seed", 7),
            "onset": params.get("onset", 15.0),
            "duration": params.get("duration"),
        }
        if params.get("gate") is not None:
            kwargs["gate"] = float(params["gate"])
        return kwargs
    if kind == "multi_attack":  # E11
        return {
            "scenario": params["scenario"],
            "controller": "pure_pursuit",
            "attack": "+".join(params["pair"]),
            "seed": params.get("seed", 7),
            "onset": params.get("onset", 15.0),
        }
    if kind == "acc":  # E12
        return {
            "scenario": "acc_follow",
            "controller": "pure_pursuit",
            "attack": params.get("attack", "none"),
            "seed": params.get("seed", 7),
            "onset": params.get("onset", 15.0),
        }
    if kind == "defect":  # E13
        defect = params.get("defect")
        return {
            "scenario": params["scenario"],
            "controller": "pure_pursuit",
            "seed": params.get("seed", 7),
            "defect": None if defect in (None, "none") else defect,
            "defect_args": params.get("defect_params") or None,
        }
    if kind == PROBE_KIND:  # a probe's own key — re-explain its edit
        edit = params.get("edit", {})
        kwargs = {
            "scenario": params["scenario"],
            "controller": params.get("controller", "pure_pursuit"),
            "attack": "+".join(edit.get("attacks", [])) or "none",
            "fault": "+".join(edit.get("faults", [])) or "none",
            "intensity": edit.get("intensity", 1.0),
            "onset": edit.get("onset", 15.0),
            "seed": params.get("seed", 7),
            "duration": params.get("duration"),
        }
        if params.get("gate") is not None:
            kwargs["gate"] = float(params["gate"])
        if params.get("defect"):
            kwargs["defect"] = params["defect"]
            kwargs["defect_args"] = dict(
                (k, v) for k, v in params.get("defect_args", []))
        return kwargs
    return None
