"""Online assertion monitor.

Feeds trace data to a set of assertions as it is produced and surfaces
violations the moment their episodes close.  Two entry points share one
state:

* :meth:`OnlineMonitor.feed_columns` checks a block of records (the
  columns of a streamed chunk) at once: every catalog assertion
  evaluates it with its resumable column kernel
  (:meth:`~repro.core.dsl.TraceAssertion.margin_chunk`) over its carried
  state; only an assertion without one (a user
  :class:`~repro.core.dsl.FunctionAssertion`) steps its scalar margin over
  light :class:`~repro.trace.schema.TraceRow` rows, built only then.
  This is the production path: the ingest service feeds every
  chunk through it, and the offline checker is the same code run over
  the whole trace as one block.
* :meth:`OnlineMonitor.feed` steps one record through every assertion.
  It is the on-vehicle API (E7, ``examples/online_monitoring.py``) and
  the oracle the block path is differential-tested against
  (``tests/test_checker_equivalence.py``,
  ``tests/test_monitor_chunks.py``).

Both leave the assertions in the same state, so they interleave freely.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.dsl import TraceAssertion
from repro.core.verdicts import CheckReport, Violation
from repro.trace.schema import Trace, TraceColumns, TraceMeta, TraceRecord

__all__ = ["OnlineMonitor", "build_report"]


def build_report(
    assertions: Sequence[TraceAssertion],
    trace: Trace | None = None,
    *,
    meta: TraceMeta | None = None,
    first_record: TraceRecord | None = None,
    last_record: TraceRecord | None = None,
) -> CheckReport:
    """Assemble a :class:`CheckReport` from already-finished assertions.

    Shared by the online monitor and the vectorized offline checker so
    both produce reports with identical structure: summaries in catalog
    order, violations sorted by ``(t_start, assertion_id)``, duration and
    labels from the trace (or ``meta``, when no trace is given) when
    available.
    """
    all_violations: list[Violation] = []
    summaries = {}
    for assertion in assertions:
        summary = assertion.summarize()
        summaries[assertion.assertion_id] = summary
        all_violations.extend(assertion.violations)
    all_violations.sort(key=lambda v: (v.t_start, v.assertion_id))
    if trace is not None:
        meta = trace.meta
        duration = trace.duration
    elif last_record is not None and first_record is not None:
        # Span of the observed stream, matching Trace.duration (which
        # is 0.0 for traces of fewer than two records).
        duration = last_record.t - first_record.t
    else:
        duration = 0.0
    return CheckReport(
        scenario=meta.scenario if meta else "",
        controller=meta.controller if meta else "",
        attack_label=meta.attack if meta else "",
        duration=duration,
        violations=all_violations,
        summaries=summaries,
    )


class OnlineMonitor:
    """Evaluates a set of assertions over a stream of trace records.

    Usage::

        monitor = OnlineMonitor(default_catalog())
        for record in live_records:
            for violation in monitor.feed(record):
                alert(violation)
        report = monitor.finish()

    or, a block of records at a time, ``monitor.feed_columns(cols)``.
    """

    def __init__(self, assertions: Sequence[TraceAssertion]):
        ids = [a.assertion_id for a in assertions]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate assertion ids: {ids}")
        self.assertions = list(assertions)
        self.reset()

    def reset(self) -> None:
        """Return the monitor to its pristine state for a fresh stream.

        Monitors carry no stream-specific configuration, so a server
        handling many sessions can pool and reuse them instead of
        re-instantiating the assertion catalog per session.
        """
        for assertion in self.assertions:
            assertion.reset()
        self._first_record: TraceRecord | None = None
        self._last_record: TraceRecord | None = None
        self._finished = False
        self._report: CheckReport | None = None

    def feed(self, record: TraceRecord) -> list[Violation]:
        """Process one record; returns episodes that closed at this step."""
        if self._finished:
            raise RuntimeError("monitor already finished; create a new one")
        if self._first_record is None:
            self._first_record = record
        self._last_record = record
        violations = []
        for assertion in self.assertions:
            v = assertion.step(record)
            if v is not None:
                violations.append(v)
        return violations

    def feed_columns(self, cols: TraceColumns) -> list[Violation]:
        """Process a block of records given as columns.

        Returns exactly the violations, in the same order, that
        :meth:`feed` would return over the block's records one by one,
        and leaves the monitor in the same state.  No
        :class:`~repro.trace.schema.TraceRecord` is built, and over the
        default catalog only the block's first and last
        :class:`~repro.trace.schema.TraceRow` (what :meth:`finish` reads).
        """
        if self._finished:
            raise RuntimeError("monitor already finished; create a new one")
        if cols.n == 0:
            return []
        if self._first_record is None:
            self._first_record = cols.row(0)
        self._last_record = cols.row(cols.n - 1)
        t = cols.get("t")
        rows = None
        closed: list[tuple[int, int, Violation]] = []
        for index, assertion in enumerate(self.assertions):
            computed = assertion.margin_chunk(cols)
            if computed is None:  # no column kernel: the scalar margin
                if rows is None:
                    rows = cols.rows()
                computed = assertion.margins_of(rows)
            closed.extend((row_index, index, v) for row_index, v
                          in assertion.advance(t, *computed))
        # Per-record feed order: by record, then catalog order.
        closed.sort(key=lambda c: (c[0], c[1]))
        return [v for _, _, v in closed]

    def feed_all(self, records: Iterable[TraceRecord]) -> list[Violation]:
        """Feed many records; returns all episodes closed along the way."""
        out: list[Violation] = []
        for record in records:
            out.extend(self.feed(record))
        return out

    def finish(self, trace: Trace | None = None, *,
               meta: TraceMeta | None = None) -> CheckReport:
        """Close open episodes, run end-of-trace checks, build the report.

        An empty stream (no records fed, or an empty ``trace``) yields a
        well-formed zero-duration report: no violations, every assertion
        summarized as silent.

        Idempotent: calling ``finish`` again returns the same report
        object (a disconnect-and-resume client may ask twice; the
        verdict must not change or double-close episodes).  Only
        :meth:`reset` re-arms the monitor for a new stream.

        Args:
            trace: optionally attach the trace's metadata to the report
                (pass the trace the records came from).  Ignored on
                repeat calls — the first report stands.
            meta: the metadata alone, when there is no trace object (the
                duration then spans the first and last record fed).
        """
        if self._finished:
            return self._report
        self._finished = True
        for assertion in self.assertions:
            assertion.finish(self._last_record)
        self._report = build_report(
            self.assertions, trace, meta=meta,
            first_record=self._first_record,
            last_record=self._last_record,
        )
        return self._report
