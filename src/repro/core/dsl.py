"""Assertion base class and authoring combinators.

An assertion is a *stateful margin monitor*: each trace record is mapped to
a normalized margin (``>= 0`` satisfied, ``< 0`` violated, ``None`` not
applicable at this step), and the base class turns the margin stream into
debounced violation *episodes*.  Margins are normalized by the assertion's
threshold, so ``-0.5`` always means "50% beyond the bound" regardless of
the underlying physical unit — which makes severities comparable across
the catalog and keeps the diagnosis engine unit-free.

The same objects serve two engines:

* the **per-step** path — :meth:`TraceAssertion.step` per record plus
  :meth:`TraceAssertion.finish` at the end — the on-vehicle monitor API
  and the differential-testing oracle;
* the **block** path — :meth:`TraceAssertion.margin_chunk` computes the
  margins of a block of records as arrays over the state the per-step
  path carries (running sums, window tails, fix pairs, latches; every
  catalog assertion has one, and only an assertion without one, such
  as a user :class:`FunctionAssertion`, is stepped record by record via
  :meth:`TraceAssertion.margins_of`),
  and :meth:`TraceAssertion.advance` runs the debounce over the
  run-length encoding of the bad/good margin signs, resuming the
  per-step episode state.  The ingest service checks each streamed chunk
  this way; the offline checker
  (:meth:`TraceAssertion.evaluate_offline`) is one block over the whole
  trace.

Both paths produce byte-identical verdicts, and they leave the same state
behind, so they interleave freely.  That is an engineered property, not
an accident: every vectorized margin uses the same elementwise float64
operations as its scalar twin (IEEE-754 elementwise ops match Python
scalar ops bit for bit), and windowed means are defined as *prefix-sum
differences* on both paths — ``np.cumsum`` seeded with the carried running
sum reproduces a sequential running sum exactly, whereas pairwise
summation (``np.add.reduceat``) would not.  Equivalence is enforced by
``tests/test_checker_equivalence.py`` (whole traces),
``tests/test_monitor_chunks.py`` (every chunk split and interleaving) and
``tests/test_catalog_kernels.py`` (each stateful kernel against its
scalar margin on adversarial columns).
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Iterable

import numpy as np

from repro.core.verdicts import AssertionSummary, Violation
from repro.trace.schema import Trace, TraceColumns, TraceRecord, TraceRow

__all__ = [
    "TraceAssertion",
    "BoundAssertion",
    "WindowMeanBoundAssertion",
    "FunctionAssertion",
    "WindowBuffer",
    "carry_sums",
    "window_means",
]


class WindowBuffer:
    """A windowed assertion's per-step buffer, shared with its chunk path.

    :meth:`TraceAssertion.margin` keeps the records still inside its
    window as a list of tuples, mutated in place; the chunk path
    (:meth:`TraceAssertion.margin_chunk`) reads and writes the same
    state as one array per tuple position.  The attribute holds
    whichever form was written last and converts on the other side's
    first read, so consecutive chunks never round-trip the window
    through Python tuples.

    Declare it on the class (``_buffer = WindowBuffer(np.float64,
    np.float64)``, one dtype per tuple position); assign a list or a
    tuple of arrays; read the list as ``self._buffer`` and the arrays
    as ``type(self)._buffer.columns(self)``.
    """

    def __init__(self, *dtypes):
        self.dtypes = dtypes

    def __set_name__(self, owner, name: str) -> None:
        self._key = name + "_store"

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self._key]
        if not isinstance(value, list):
            value = list(zip(*(column.tolist() for column in value)))
            obj.__dict__[self._key] = value
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self._key] = value

    def columns(self, obj) -> tuple[np.ndarray, ...]:
        value = obj.__dict__[self._key]
        if isinstance(value, list):
            rows = list(zip(*value)) or [()] * len(self.dtypes)
            value = tuple(np.array(column, dtype=dtype)
                          for column, dtype in zip(rows, self.dtypes))
            obj.__dict__[self._key] = value
        return value


def window_means(
    t: np.ndarray, values: np.ndarray, tail_t: np.ndarray,
    tail_cum: np.ndarray, cum: float, prev_cum: float, window: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sliding-window means of a block, resumed from per-step state.

    The per-step form of a windowed mean keeps the records still inside
    the window (times ``tail_t``, running sums ``tail_cum``), the
    running sum ``cum`` through the last record and ``prev_cum``, the
    running sum just before the tail.  Seeding ``np.cumsum`` with
    ``cum`` continues the sequential sum bit for bit, so the block's
    means equal the per-step ``(cum - prev_cum) / len(window)``.

    Returns ``(mean, lo, times, cums)``: ``times``/``cums`` are the tail
    followed by the block, and ``lo[i]`` indexes the oldest record still
    inside block record ``i``'s window.
    """
    block = np.cumsum(np.concatenate(([cum], values)))[1:]
    times = np.concatenate((tail_t, t))
    cums = np.concatenate((tail_cum, block))
    lo = np.searchsorted(times, t - window, side="left")
    prev = np.where(lo > 0, cums[lo - 1], prev_cum)
    first = tail_t.size + 1
    mean = (block - prev) / (np.arange(first, first + t.size) - lo)
    return mean, lo, times, cums


def carry_sums(cums: np.ndarray, prev_cum: float,
               lo: np.ndarray) -> tuple[float, float, int]:
    """The per-step ``(cum, prev_cum)`` after a :func:`window_means`
    block, and the index where the carried tail now starts."""
    cut = int(lo[-1])
    return (float(cums[-1]), float(cums[cut - 1]) if cut else prev_cum,
            cut)


class TraceAssertion(abc.ABC):
    """Base class: margin computation + episode/debounce machinery.

    Args:
        assertion_id: short stable identifier (e.g. ``"A1"``).
        name: human-readable name.
        category: one of ``behaviour``, ``consistency``, ``actuation``,
            ``stability``, ``liveness`` (used by ablations and reports).
        settle_time: seconds at the start of the trace during which the
            assertion is not evaluated (launch transient).
        debounce_on: consecutive violating evaluations required to open an
            episode (suppresses single-sample noise).
        debounce_off: consecutive satisfied evaluations required to close
            an episode.
    """

    def __init__(
        self,
        assertion_id: str,
        name: str,
        category: str,
        settle_time: float = 0.0,
        debounce_on: int = 3,
        debounce_off: int = 10,
    ):
        if debounce_on < 1 or debounce_off < 1:
            raise ValueError("debounce counts must be >= 1")
        self.assertion_id = assertion_id
        self.name = name
        self.category = category
        self.settle_time = settle_time
        self.debounce_on = debounce_on
        self.debounce_off = debounce_off
        self.bound_scale = 1.0
        self._reset_episode_state()

    def scale_bound(self, factor: float) -> "TraceAssertion":
        """Relax (>1) or tighten (<1) the effective threshold.

        Margins of the form ``1 - value/bound`` transform exactly as
        ``m' = 1 - (1 - m)/factor`` when the bound is scaled by ``factor``;
        the calibrator (:mod:`repro.core.tuning`) uses this to fit nominal
        headroom without knowing each assertion's internal threshold
        attribute.  Returns ``self`` for chaining.
        """
        if factor <= 0:
            raise ValueError("bound_scale factor must be positive")
        self.bound_scale = factor
        return self

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def margin(self, record: TraceRecord) -> float | None:
        """Normalized margin at this record (None = not applicable)."""

    def on_reset(self) -> None:
        """Clear subclass state (called by :meth:`reset`)."""

    def end_margin(self, last_record: TraceRecord | None) -> float | None:
        """Optional end-of-trace check (liveness assertions override).

        A negative return value opens (and closes) a final episode at the
        last record's timestamp.  The block path passes the last record as
        a :class:`~repro.trace.schema.TraceRow`.
        """
        return None

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """Vectorized margin over a whole trace, or ``None`` if unsupported.

        Returns ``(margins, applicable)`` where ``margins`` is a float64
        array of per-record margins and ``applicable`` is a bool mask (or
        ``None`` meaning "applicable everywhere").  ``margins`` entries
        where ``applicable`` is False are ignored; NaN margins at
        applicable steps are legal and mean exactly what they mean on the
        per-step path (NaN compares false against every threshold, so it
        counts as a *good* sample and never becomes the worst margin).

        Implementations must be bit-identical to iterating
        :meth:`margin`: use the same elementwise float64 operations, and
        express windowed means as prefix-sum differences on both paths.
        This hook is whole-trace only: :meth:`evaluate_offline` uses it
        when :meth:`margin_chunk` returns ``None``, and the block path
        of the monitor never does (it cannot resume it mid-stream).  The
        default returns ``None``, which makes :meth:`evaluate_offline`
        fall back to the sequential margin loop (state-machine subclasses
        stay exact without extra work).
        """
        return None

    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """Vectorized margins of the next block of records, or ``None``.

        The resumable twin of :meth:`margin_array`: ``cols`` holds the
        records that follow everything this assertion has seen since
        its last :meth:`reset`, by :meth:`step` or by earlier blocks.  An
        implementation resumes from the state :meth:`margin` carries
        (running sums, window tails, fix pairs, latches), returns the
        block's ``(margins, applicable)`` bit-identical to calling
        :meth:`margin` per record, and leaves that state exactly as those
        calls would, as the same Python values.  To stay exact it uses
        the scalar code's own operations: ``math.hypot`` and
        ``math.exp`` (their numpy twins differ in the last ulp), Python's
        ``min``/``max`` tie and NaN rules, the ``< cutoff`` trimming rule
        (``searchsorted(..., side="left")``), seeded ``np.cumsum`` for
        sequential sums, and builtin ``sum()`` where the scalar code sums
        a window (its rounding differs between Python versions).  A
        recurrence that does not vectorize (an unwrap, a rate-limited
        lag) stays a scalar loop over plain floats, and so does a
        running sum that restarts every few records, where per-run
        array calls would cost more than the loop.

        Every catalog assertion implements it.  The default returns
        ``None``, and the block's records are stepped one by one through
        :meth:`margin` instead (:meth:`margins_of`), which keeps a user
        assertion exact without extra work.  A fresh assertion given the
        whole trace is :meth:`evaluate_offline`'s case.
        """
        return None

    def _needs_end_record(self) -> bool:
        """Whether :meth:`finish` must see the last record.

        True iff the subclass overrides :meth:`end_margin`; the offline
        path then builds that one row, and no row otherwise.
        """
        return type(self).end_margin is not TraceAssertion.end_margin

    # ------------------------------------------------------------------
    # Engine-facing interface
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Prepare for a new trace."""
        self._reset_episode_state()
        self.on_reset()

    def step(self, record: TraceRecord) -> Violation | None:
        """Process one record; returns a violation iff an episode *closed*.

        The margin is computed at *every* step so stateful assertions
        observe the full trace; verdicts inside the settle window are
        discarded (launch transient).  Episodes still open when the trace
        ends are closed by :meth:`finish`.
        """
        self._last_step_t = record.t
        m = self.margin(record)
        if record.t < self.settle_time:
            return None
        if m is None:
            return None
        if self.bound_scale != 1.0:
            m = 1.0 - (1.0 - m) / self.bound_scale
        self._evaluated = True
        self._worst_overall = min(self._worst_overall, m)
        if m < 0.0:
            self._bad_streak += 1
            self._good_streak = 0
            if self._episode_start is None and self._bad_streak >= self.debounce_on:
                self._episode_start = record.t
                self._episode_worst = m
            elif self._episode_start is not None:
                self._episode_worst = min(self._episode_worst, m)
            if self._episode_start is None:
                # Remember the depth of a forming episode so debounce does
                # not erase the worst sample.
                self._pending_worst = min(self._pending_worst, m)
        else:
            self._good_streak += 1
            self._bad_streak = 0
            self._pending_worst = 0.0
            if self._episode_start is not None and (
                self._good_streak >= self.debounce_off
            ):
                return self._close_episode(record.t)
        return None

    def finish(self, last_record: TraceRecord | None) -> list[Violation]:
        """Close any open episode and run the end-of-trace check."""
        out: list[Violation] = []
        if self._episode_start is not None:
            # _close_episode records the violation itself.
            out.append(self._close_episode(self._last_step_t))
        if last_record is not None and last_record.t >= self.settle_time:
            end_m = self.end_margin(last_record)
            if end_m is not None:
                self._evaluated = True
                self._worst_overall = min(self._worst_overall, end_m)
                if end_m < 0.0:
                    violation = Violation(
                        assertion_id=self.assertion_id,
                        name=self.name,
                        category=self.category,
                        t_start=last_record.t,
                        t_end=last_record.t,
                        worst_margin=end_m,
                        message=f"{self.name}: end-of-trace check failed",
                    )
                    self._closed_violations.append(violation)
                    out.append(violation)
        return out

    def evaluate_offline(self, trace: Trace) -> list[Violation]:
        """Evaluate the whole trace in one shot (vectorized where possible).

        Equivalent to ``reset(); [step(r) for r in trace]; finish(last)``
        but computes the margin stream as arrays (:meth:`margin_chunk`
        over the whole trace, else :meth:`margin_array`, else
        :meth:`margins_of` over the trace's rows), then extracts debounced
        episodes with :meth:`advance`.  No
        :class:`~repro.trace.schema.TraceRecord` is built: an end-of-trace
        check reads the last record as a
        :class:`~repro.trace.schema.TraceRow`.  Verdicts (episodes,
        margins, severities) are byte-identical to the per-step path.
        Returns the violations :meth:`finish` closed.
        """
        self.reset()
        n = len(trace)
        if n == 0:
            return self.finish(None)
        cols = trace.columns()
        # A fresh assertion evaluating the whole trace as one block.
        computed = self.margin_chunk(cols)
        if computed is None:
            computed = self.margin_array(cols)
        if computed is None:
            computed = self.margins_of(cols.rows())
        self.advance(cols.get("t"), *computed)
        last_record = cols.row(n - 1) if self._needs_end_record() else None
        return self.finish(last_record)

    def margins_of(
        self, records: Iterable[TraceRecord]
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`margin` over consecutive records, in order, as
        ``(margins, applicable)`` arrays for :meth:`advance` (stateful
        margins see every record exactly as :meth:`step` shows them).

        The row path: the block path's fallback for an assertion without
        a :meth:`margin_chunk` (no catalog assertion takes it).  The
        records may be light :class:`~repro.trace.schema.TraceRow` rows."""
        margin = self.margin
        values = [margin(record) for record in records]
        applicable = np.array([m is not None for m in values], dtype=bool)
        margins = np.array([0.0 if m is None else m for m in values],
                           dtype=np.float64)
        return margins, applicable

    def advance(self, t: np.ndarray, margins: np.ndarray,
                applicable: np.ndarray | None) -> list[tuple[int, Violation]]:
        """Run :meth:`step`'s debounce over a block of margins.

        ``t``, ``margins`` and ``applicable`` (``None`` = everywhere)
        cover consecutive records; the block resumes from, and leaves
        behind, exactly the episode state that stepping those records
        would (``_bad_streak``, ``_good_streak``, ``_episode_start``,
        ``_episode_worst``, ``_pending_worst``, ``_worst_overall``,
        ``_last_step_t``), so blocks and single steps interleave freely.

        Works on the run-length encoding of ``margin < 0`` over the
        applicable, post-settle samples: a bad run opens an episode at
        the sample that completes ``debounce_on``, a good run closes an
        open one at the sample that completes ``debounce_off``.  (NaN
        compares false, so NaN margins land in good runs, as per step.)

        Returns ``(row, violation)`` for each episode that closed, ``row``
        being the record's index in the block.
        """
        self._last_step_t = float(t[-1])
        valid = ~(t < self.settle_time)
        if applicable is not None:
            valid &= applicable
        rows = valid.nonzero()[0]
        n = rows.size
        if n == 0:
            return []
        mv = np.asarray(margins, dtype=np.float64)
        if n < mv.size:
            mv = mv[rows]
        if self.bound_scale != 1.0:
            mv = 1.0 - (1.0 - mv) / self.bound_scale
        self._evaluated = True
        # Python's min() skips a NaN in the second slot, so the per-step
        # worst is the min over the non-NaN margins.
        worst = float(np.fmin.reduce(mv))
        if worst == worst:
            self._worst_overall = min(self._worst_overall, worst)
        if worst < 0.0:
            bad = mv < 0.0
            edges = (np.flatnonzero(bad[1:] != bad[:-1]) + 1).tolist()
            is_bad = bool(bad[0])
        else:  # no bad sample (NaN is never the worst)
            edges, is_bad = [], False
        closed = []
        s = 0
        for e in (*edges, n):  # runs alternate bad and good
            if is_bad:
                self._good_streak = 0
                if self._episode_start is None:
                    need = self.debounce_on - self._bad_streak
                    if need <= e - s:
                        o = s + need - 1
                        if o > s:
                            self._pending_worst = min(
                                self._pending_worst, float(mv[s:o].min()))
                        self._episode_start = float(t[rows[o]])
                        self._episode_worst = float(mv[o:e].min())
                    else:
                        self._pending_worst = min(
                            self._pending_worst, float(mv[s:e].min()))
                else:
                    self._episode_worst = min(
                        self._episode_worst, float(mv[s:e].min()))
                self._bad_streak += e - s
            else:
                self._bad_streak = 0
                self._pending_worst = 0.0
                if self._episode_start is not None:
                    need = self.debounce_off - self._good_streak
                    if need <= e - s:
                        row = int(rows[s + need - 1])
                        closed.append(
                            (row, self._close_episode(float(t[row]))))
                self._good_streak += e - s
            s, is_bad = e, not is_bad
        return closed

    @property
    def violations(self) -> list[Violation]:
        """All episodes closed since the last :meth:`reset` (time order)."""
        return list(self._closed_violations)

    def summarize(self) -> AssertionSummary:
        """Aggregate everything seen since the last :meth:`reset`."""
        violations = self._closed_violations
        first_t = min((v.t_start for v in violations), default=None)
        total = sum(v.duration for v in violations)
        return AssertionSummary(
            assertion_id=self.assertion_id,
            name=self.name,
            category=self.category,
            fired=bool(violations),
            episodes=len(violations),
            first_violation_t=first_t,
            total_violation_time=total,
            worst_margin=self._worst_overall if self._evaluated else 0.0,
            evaluated=self._evaluated,
        )

    # ------------------------------------------------------------------
    def _reset_episode_state(self) -> None:
        self._bad_streak = 0
        self._good_streak = 0
        self._episode_start: float | None = None
        self._episode_worst = 0.0
        self._pending_worst = 0.0
        self._worst_overall = float("inf")
        self._evaluated = False
        self._last_step_t = 0.0
        self._closed_violations: list[Violation] = []

    def _close_episode(self, t_end: float) -> Violation:
        assert self._episode_start is not None
        violation = Violation(
            assertion_id=self.assertion_id,
            name=self.name,
            category=self.category,
            t_start=self._episode_start,
            t_end=t_end,
            worst_margin=min(self._episode_worst, self._pending_worst),
            message=f"{self.name} violated "
                    f"(worst margin {self._episode_worst:+.2f})",
        )
        self._episode_start = None
        self._episode_worst = 0.0
        self._pending_worst = 0.0
        self._closed_violations.append(violation)
        return violation

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.assertion_id}: {self.name!r})"


class BoundAssertion(TraceAssertion):
    """``|channel| <= bound`` at every step — the simplest assertion form."""

    def __init__(
        self,
        assertion_id: str,
        name: str,
        channel: str,
        bound: float,
        category: str = "behaviour",
        settle_time: float = 0.0,
        **kwargs,
    ):
        if bound <= 0:
            raise ValueError("bound must be positive")
        super().__init__(assertion_id, name, category, settle_time, **kwargs)
        self.channel = channel
        self.bound = bound

    def margin(self, record: TraceRecord) -> float:
        value = getattr(record, self.channel)
        return 1.0 - abs(value) / self.bound

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray | None]:
        values = np.asarray(cols.get(self.channel), dtype=np.float64)
        return 1.0 - np.abs(values) / self.bound, None

    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray | None]:
        return self.margin_array(cols)  # stateless: every block is whole


class WindowMeanBoundAssertion(TraceAssertion):
    """Mean of ``|channel|`` over a sliding time window stays below a bound.

    Catches sustained degradation that per-sample bounds miss (and is
    immune to isolated spikes).  The mean is computed as a prefix-sum
    difference on *both* the per-step and the vectorized path, so the two
    agree bit for bit (``np.cumsum`` reproduces a sequential running sum
    exactly).
    """

    _buffer = WindowBuffer(np.float64, np.float64)  # (t, running sum)

    def __init__(
        self,
        assertion_id: str,
        name: str,
        channel: str,
        bound: float,
        window: float,
        category: str = "behaviour",
        settle_time: float = 0.0,
        **kwargs,
    ):
        if bound <= 0 or window <= 0:
            raise ValueError("bound and window must be positive")
        super().__init__(assertion_id, name, category, settle_time, **kwargs)
        self.channel = channel
        self.bound = bound
        self.window = window
        self._buffer: list[tuple[float, float]] = []
        self._cum = 0.0
        self._prev_cum = 0.0

    def on_reset(self) -> None:
        self._buffer = []
        self._cum = 0.0
        self._prev_cum = 0.0

    def margin(self, record: TraceRecord) -> float | None:
        # The buffer holds (t, running_sum_through_t); the window sum is
        # the difference of two running-sum samples.
        self._cum = self._cum + abs(getattr(record, self.channel))
        buf = self._buffer
        buf.append((record.t, self._cum))
        cutoff = record.t - self.window
        while buf and buf[0][0] < cutoff:
            self._prev_cum = buf.pop(0)[1]
        if buf[-1][0] - buf[0][0] < 0.5 * self.window:
            return None  # window not filled yet
        mean = (self._cum - self._prev_cum) / len(buf)
        return 1.0 - mean / self.bound

    def margin_chunk(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        t = cols.get("t")
        values = np.abs(np.asarray(cols.get(self.channel), dtype=np.float64))
        tail_t, tail_cum = type(self)._buffer.columns(self)
        mean, lo, times, cums = window_means(
            t, values, tail_t, tail_cum, self._cum, self._prev_cum,
            self.window)
        self._cum, self._prev_cum, cut = carry_sums(
            cums, self._prev_cum, lo)
        self._buffer = (times[cut:], cums[cut:])
        return (1.0 - mean / self.bound,
                ~(t - times[lo] < 0.5 * self.window))


class FunctionAssertion(TraceAssertion):
    """Wrap a plain function as an assertion — the DSL's escape hatch.

    The function receives the record and a mutable state dict (empty at
    each reset) and returns a normalized margin or ``None``.  The record
    is read-only and supports field access only: the per-step path
    passes a :class:`~repro.trace.schema.TraceRecord`, the block path
    (the offline checker's default engine, the monitor's column feed) a
    :class:`~repro.trace.schema.TraceRow` named tuple, so ``fn`` must not
    call ``record.replace`` or check its type.  ``end_fn`` receives the
    last record the same way::

        def no_reverse(record, state):
            return record.est_v + 0.5  # violated if estimate goes backward

        assertion = FunctionAssertion("U1", "no reverse", no_reverse)

    An optional ``fn_array`` twin vectorizes the margin over the trace's
    columnar view: it receives a :class:`~repro.trace.schema.TraceColumns`
    and returns either a margin array (applicable everywhere) or a
    ``(margins, applicable_mask)`` pair.  It must be bit-identical to
    iterating ``fn``.  When ``end_fn`` is present the offline path always
    uses the sequential ``fn`` loop, because ``end_fn`` may read state
    that ``fn`` accumulates.
    """

    def __init__(
        self,
        assertion_id: str,
        name: str,
        fn: Callable[[TraceRecord | TraceRow, dict], float | None],
        category: str = "custom",
        settle_time: float = 0.0,
        end_fn: (Callable[[TraceRecord | TraceRow, dict], float | None]
                 | None) = None,
        fn_array: Callable[
            [TraceColumns],
            "np.ndarray | tuple[np.ndarray, np.ndarray | None] | None",
        ] | None = None,
        **kwargs,
    ):
        super().__init__(assertion_id, name, category, settle_time, **kwargs)
        self._fn = fn
        self._end_fn = end_fn
        self._fn_array = fn_array
        self._state: dict = {}

    def on_reset(self) -> None:
        self._state = {}

    def margin(self, record: TraceRecord) -> float | None:
        return self._fn(record, self._state)

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray | None] | None:
        if self._fn_array is None or self._end_fn is not None:
            return None
        out = self._fn_array(cols)
        if out is None:
            return None
        if isinstance(out, tuple):
            return out
        return np.asarray(out, dtype=np.float64), None

    def _needs_end_record(self) -> bool:
        return self._end_fn is not None

    def end_margin(self, last_record: TraceRecord | None) -> float | None:
        if self._end_fn is None or last_record is None:
            return None
        return self._end_fn(last_record, self._state)
