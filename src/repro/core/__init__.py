"""ADAssure core: assertions, monitoring, and root-cause diagnosis.

This package is the paper's contribution.  It provides:

* :mod:`repro.core.verdicts` — violations, per-assertion results, reports;
* :mod:`repro.core.dsl` — the assertion base class with episode semantics
  plus reusable combinators for authoring new assertions;
* :mod:`repro.core.catalog` — the built-in assertion catalog (A1..A16,
  with the innovation assertion split per channel), each encoding one
  domain-expert expectation about a healthy control loop;
* :mod:`repro.core.monitor` / :mod:`repro.core.checker` — online and
  offline evaluation with identical semantics;
* :mod:`repro.core.knowledge` / :mod:`repro.core.diagnosis` — the
  cause/assertion knowledge base and the root-cause ranking engine;
* :mod:`repro.core.methodology` — the iterative refinement loop (gap
  analysis over an anomaly corpus, staged catalog growth);
* :mod:`repro.core.report` — human-readable debugging reports.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Violation",
    "AssertionSummary",
    "CheckReport",
    "TraceAssertion",
    "BoundAssertion",
    "WindowMeanBoundAssertion",
    "FunctionAssertion",
    "default_catalog",
    "make_assertion",
    "CATALOG_STAGES",
    "OnlineMonitor",
    "check_trace",
    "KnowledgeBase",
    "CauseProfile",
    "default_knowledge_base",
    "diagnose",
    "diagnose_multi",
    "Diagnosis",
    "DiagnosisResult",
    "MultiDiagnosis",
    "RefinementLoop",
    "GapAnalysis",
    "render_check_report",
    "render_diagnosis",
    "calibrate_catalog",
    "CalibrationResult",
    "defect_knowledge_base",
    "CatalogSpec",
    "AssertionSpec",
]

__getattr__ = lazy_exports(__name__, {
    ".catalog": ("CATALOG_STAGES", "default_catalog", "make_assertion"),
    ".checker": ("check_trace",),
    ".diagnosis": (
        "Diagnosis", "DiagnosisResult", "MultiDiagnosis", "diagnose",
        "diagnose_multi",
    ),
    ".dsl": (
        "BoundAssertion", "FunctionAssertion", "TraceAssertion",
        "WindowMeanBoundAssertion",
    ),
    ".knowledge": (
        "CauseProfile", "KnowledgeBase", "default_knowledge_base",
        "defect_knowledge_base",
    ),
    ".spec": ("AssertionSpec", "CatalogSpec"),
    ".methodology": ("GapAnalysis", "RefinementLoop"),
    ".monitor": ("OnlineMonitor",),
    ".report": ("render_check_report", "render_diagnosis"),
    ".tuning": ("CalibrationResult", "calibrate_catalog"),
    ".verdicts": ("AssertionSummary", "CheckReport", "Violation"),
})
