"""Trace schema: the typed per-step record and the trace container.

Channel naming convention:

* ``true_*``   — simulator ground truth (available in simulation, used by
  behaviour assertions and by experiment scoring);
* ``gps_* / imu_* / odom_* / compass_*`` — raw sensor channels *after*
  attack injection (what the vehicle software actually saw);
* ``est_*``   — state-estimator output (what the controller consumed);
* ``*_cmd``   — controller commands; ``*_applied`` — post-actuator values;
* ``attack_*`` — injection ground-truth labels (never visible to
  assertions; used only for scoring detection/diagnosis experiments).

Sensor channels hold the *latest* reading (zero-order hold) plus a
``*_fresh`` flag marking steps where a new reading arrived.

Storage model: a trace can hold its data as a list of records (the
recorder's natural output), as a set of per-channel numpy arrays (the
columnar form the vectorized checker and the binary ``.npz`` format use),
or both.  :meth:`Trace.columns` materializes the struct-of-arrays view on
demand and caches it (invalidated by :meth:`Trace.append`);
:meth:`Trace.from_columns` builds a trace directly from arrays and only
materializes the per-record view if someone actually iterates it.
"""

from __future__ import annotations

import dataclasses
from collections import namedtuple
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = ["TraceRecord", "TraceRow", "TraceMeta", "Trace", "TraceColumns"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One simulation step's worth of observations."""

    step: int
    t: float

    # --- ground truth -------------------------------------------------
    true_x: float = 0.0
    true_y: float = 0.0
    true_yaw: float = 0.0
    true_v: float = 0.0
    true_yaw_rate: float = 0.0
    true_accel: float = 0.0
    true_lat_accel: float = 0.0
    cte_true: float = 0.0
    heading_err_true: float = 0.0
    station_true: float = 0.0
    dist_to_goal: float = 0.0

    # --- sensor channels (post-attack, zero-order hold) ---------------
    gps_x: float = 0.0
    gps_y: float = 0.0
    gps_fresh: bool = False
    imu_yaw_rate: float = 0.0
    imu_accel: float = 0.0
    imu_fresh: bool = False
    odom_speed: float = 0.0
    odom_fresh: bool = False
    compass_yaw: float = 0.0
    compass_fresh: bool = False

    # --- radar / lead vehicle (zero when no lead is present) -----------
    radar_range: float = 0.0
    radar_range_rate: float = 0.0
    radar_fresh: bool = False
    lead_present: bool = False
    gap_true: float = 0.0
    """Ground-truth arc-length gap to the lead vehicle, meters."""
    lead_speed: float = 0.0

    # --- estimator output ---------------------------------------------
    est_x: float = 0.0
    est_y: float = 0.0
    est_yaw: float = 0.0
    est_v: float = 0.0
    est_cov_trace: float = 0.0
    nis_gps: float = 0.0
    nis_speed: float = 0.0
    nis_compass: float = 0.0

    # --- controller view ------------------------------------------------
    cte_est: float = 0.0
    heading_err_est: float = 0.0
    station_est: float = 0.0
    target_speed: float = 0.0
    steer_cmd: float = 0.0
    accel_cmd: float = 0.0

    # --- actuation -------------------------------------------------------
    steer_applied: float = 0.0
    accel_applied: float = 0.0

    # --- attack ground truth (scoring only) ------------------------------
    attack_active: bool = False
    attack_name: str = ""
    attack_channel: str = ""

    # --- fault ground truth (scoring only) -------------------------------
    fault_active: bool = False
    fault_name: str = ""
    fault_channel: str = ""

    # --- degradation supervisor telemetry --------------------------------
    supervisor_mode: str = ""
    """``""`` for unsupervised runs; else ``normal`` / ``dead_reckoning``
    / ``safe_stop`` (see :mod:`repro.control.supervisor`)."""
    supervisor_lost: int = 0
    """Number of sensor channels the supervisor's watchdog flags lost."""

    def replace(self, **changes) -> "TraceRecord":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


_FIELD_NAMES = tuple(f.name for f in fields(TraceRecord))
_STRING_CHANNELS = frozenset(
    f.name for f in fields(TraceRecord) if f.type in ("str", str))
_BOOL_CHANNELS = frozenset(
    f.name for f in fields(TraceRecord) if f.type in ("bool", bool))
_INT_CHANNELS = frozenset(
    f.name for f in fields(TraceRecord) if f.type in ("int", int))


TraceRow = namedtuple("TraceRow", _FIELD_NAMES)
TraceRow.__doc__ = """A light, read-only record: a named tuple over the
:class:`TraceRecord` fields, built from columns by :meth:`TraceColumns.rows`
at a fraction of a dataclass's cost.  Reads like a record wherever only
field access is needed (assertion margins)."""


def _step_error(prev, cur) -> ValueError:
    return ValueError(
        f"steps must strictly increase (got step {cur} after step {prev})")


def _channel_dtype(name: str):
    if name in _STRING_CHANNELS:
        return np.str_
    if name in _BOOL_CHANNELS:
        return np.bool_
    if name in _INT_CHANNELS:
        return np.int64
    return np.float64


_CHANNEL_DTYPES = {name: _channel_dtype(name) for name in _FIELD_NAMES}


class TraceColumns:
    """Read-only struct-of-arrays view of a trace.

    One contiguous numpy array per :class:`TraceRecord` field, accessible
    as attributes (``cols.t``, ``cols.cte_true``, ...) or via :meth:`get`.
    Float channels are ``float64``, flags ``bool``, counters ``int64``,
    labels unicode.  Arrays are marked non-writeable: the view is shared
    between the owning :class:`Trace`, the vectorized checker and the
    binary serializer, so mutating it would corrupt all three.
    """

    __slots__ = ("_arrays", "n")

    def __init__(self, arrays: dict):
        lengths = {a.shape[0] for a in arrays.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged trace columns: lengths {sorted(lengths)}")
        self._arrays = arrays
        self.n = lengths.pop() if lengths else 0

    def get(self, name: str) -> np.ndarray:
        if name not in self._arrays:
            raise KeyError(f"unknown trace channel {name!r}")
        return self._arrays[name]

    def __getattr__(self, name: str) -> np.ndarray:
        if name.startswith("_"):  # unpickling probes before slots are set
            raise AttributeError(name)
        try:
            return self._arrays[name]
        except KeyError:
            raise AttributeError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    @classmethod
    def from_records(cls, records: Sequence[TraceRecord]) -> "TraceColumns":
        """The columns of ``records``, taken as given (no step check)."""
        arrays = {}
        for name in _FIELD_NAMES:
            arr = np.array([getattr(r, name) for r in records],
                           dtype=_CHANNEL_DTYPES[name])
            arr.flags.writeable = False
            arrays[name] = arr
        return cls(arrays)

    def rows(self) -> list[TraceRow]:
        """Every record as a :class:`TraceRow`, in order.

        ``.tolist()`` converts numpy scalars to exact Python
        floats/bools/ints/strs, so a row's fields equal the matching
        :class:`TraceRecord`'s field for field.
        """
        raw = [self._arrays[name].tolist() for name in _FIELD_NAMES]
        return list(map(TraceRow._make, zip(*raw)))

    def row(self, index: int) -> TraceRow:
        """Record ``index`` alone as a :class:`TraceRow`, equal to
        ``rows()[index]`` without building the others."""
        return TraceRow._make(self._arrays[name].item(index)
                              for name in _FIELD_NAMES)

    def __repr__(self) -> str:
        return f"TraceColumns(n={self.n}, channels={len(self._arrays)})"


@dataclass(slots=True)
class TraceMeta:
    """Run-level metadata attached to a trace."""

    scenario: str = ""
    controller: str = ""
    attack: str = "none"
    seed: int = 0
    dt: float = 0.05
    route_length: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "controller": self.controller,
            "attack": self.attack,
            "seed": self.seed,
            "dt": self.dt,
            "route_length": self.route_length,
            "extra": dict(self.extra),
        }

    @staticmethod
    def from_dict(data: dict) -> "TraceMeta":
        return TraceMeta(
            scenario=data.get("scenario", ""),
            controller=data.get("controller", ""),
            attack=data.get("attack", "none"),
            seed=int(data.get("seed", 0)),
            dt=float(data.get("dt", 0.05)),
            route_length=float(data.get("route_length", 0.0)),
            extra=dict(data.get("extra", {})),
        )


class Trace:
    """An ordered sequence of :class:`TraceRecord` with run metadata.

    Supports list-style access and vectorized column extraction for the
    metric/analysis layer.
    """

    field_names: tuple[str, ...] = _FIELD_NAMES
    string_channels: frozenset[str] = _STRING_CHANNELS
    """Channels holding labels, not numbers (derived from field types)."""
    bool_channels: frozenset[str] = _BOOL_CHANNELS
    int_channels: frozenset[str] = _INT_CHANNELS

    def __init__(self, meta: TraceMeta | None = None,
                 records: Sequence[TraceRecord] | None = None):
        self.meta = meta or TraceMeta()
        self._records: list[TraceRecord] | None = (
            list(records) if records else [])
        self._columns: TraceColumns | None = None
        for prev, cur in zip(self._records, self._records[1:]):
            if cur.step <= prev.step:
                raise _step_error(prev.step, cur.step)

    @classmethod
    def from_columns(cls, meta: TraceMeta | None, arrays: dict) -> "Trace":
        """Build a trace directly from per-channel arrays.

        ``arrays`` must map every :attr:`field_names` entry to a 1-D
        array-like of equal length; dtypes are coerced to the schema's
        (float64 / bool / int64 / unicode).  The per-record view is *not*
        built here — it materializes lazily on first record access, so a
        caller that only needs columnar analysis (the vectorized checker,
        the metrics layer) never pays for 40+ dataclass fields per step.

        Raises:
            ValueError: a channel is missing or not 1-D, or the steps do
                not strictly increase (the rule :meth:`append` enforces).
        """
        missing = [n for n in _FIELD_NAMES if n not in arrays]
        if missing:
            raise ValueError(f"trace columns missing channels: {missing}")
        coerced = {}
        for name in _FIELD_NAMES:
            arr = np.asarray(arrays[name], dtype=_CHANNEL_DTYPES[name])
            if arr.ndim != 1:
                raise ValueError(
                    f"trace column {name!r} must be 1-D, got shape {arr.shape}")
            if arr.flags.writeable:
                arr = arr.copy() if arr is arrays[name] else arr
                arr.flags.writeable = False
            coerced[name] = arr
        steps = coerced["step"]
        stalls = np.flatnonzero(steps[1:] <= steps[:-1])
        if stalls.size:
            i = stalls[0]
            raise _step_error(steps[i].item(), steps[i + 1].item())
        return cls.of_columns(meta, TraceColumns(coerced))

    @classmethod
    def of_columns(cls, meta: TraceMeta | None,
                   cols: TraceColumns) -> "Trace":
        """A trace over ``cols`` exactly as given: no coercion, copy or
        step check.  For callers that validated them already (read-only
        arrays of the schema's dtypes, steps strictly increasing), such
        as :meth:`from_columns` and the service's chunk decoder."""
        trace = cls(meta)
        trace._records = None
        trace._columns = cols
        return trace

    # --- storage management ---------------------------------------------
    def _materialized(self) -> list[TraceRecord]:
        """The per-record view, built from the columns on first demand."""
        if self._records is None:
            cols = self._columns
            # .tolist() converts numpy scalars to exact Python
            # floats/bools/ints/strs, so materialized records compare
            # equal to the originals field for field.
            raw = [cols.get(name).tolist() for name in _FIELD_NAMES]
            self._records = [TraceRecord(*values) for values in zip(*raw)]
        return self._records

    # --- container protocol -------------------------------------------
    def append(self, record: TraceRecord) -> None:
        records = self._materialized()
        if records and record.step <= records[-1].step:
            raise _step_error(records[-1].step, record.step)
        records.append(record)
        self._columns = None  # cached columnar view is now stale

    def __len__(self) -> int:
        if self._records is not None:
            return len(self._records)
        return self._columns.n

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._materialized())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self.meta, self._materialized()[index])
        return self._materialized()[index]

    @property
    def records(self) -> Sequence[TraceRecord]:
        return tuple(self._materialized())

    @property
    def duration(self) -> float:
        """Time span covered by the trace, seconds."""
        if len(self) < 2:
            return 0.0
        if self._records is not None:
            return self._records[-1].t - self._records[0].t
        t = self._columns.get("t")
        return float(t[-1] - t[0])

    @property
    def dt(self) -> float:
        return self.meta.dt

    # --- column access --------------------------------------------------
    def columns(self) -> TraceColumns:
        """The cached struct-of-arrays view (built on first use).

        Invalidated by :meth:`append`; the returned arrays are
        non-writeable and shared, so treat them as immutable.
        """
        if self._columns is None:
            self._columns = TraceColumns.from_records(self._records)
        return self._columns

    def column(self, name: str) -> np.ndarray:
        """The named channel as a float numpy array (bools become 0/1).

        Served from the cached columnar view; float channels come back as
        the shared non-writeable array, other numeric channels as a float
        copy.
        """
        if name not in _FIELD_NAMES:
            raise KeyError(f"unknown trace channel {name!r}")
        if name in _STRING_CHANNELS:
            raise TypeError(f"channel {name!r} is not numeric; iterate records")
        arr = self.columns().get(name)
        if arr.dtype == np.float64:
            return arr
        out = arr.astype(float)
        out.flags.writeable = False
        return out

    def times(self) -> np.ndarray:
        return self.column("t")

    def window(self, t_start: float, t_end: float) -> "Trace":
        """Sub-trace with ``t_start <= t < t_end``."""
        recs = [r for r in self._materialized() if t_start <= r.t < t_end]
        return Trace(self.meta, recs)

    def _onset(self, channel: str) -> float | None:
        if self._records is None:
            cols = self.columns()
            hits = np.flatnonzero(cols.get(channel))
            if hits.size == 0:
                return None
            return float(cols.get("t")[hits[0]])
        for r in self._records:
            if getattr(r, channel):
                return r.t
        return None

    def attack_onset(self) -> float | None:
        """Time of the first step with an active attack, or ``None``."""
        return self._onset("attack_active")

    def fault_onset(self) -> float | None:
        """Time of the first step with an active benign fault, or ``None``."""
        return self._onset("fault_active")

    def __repr__(self) -> str:
        return (
            f"Trace({self.meta.scenario!r}, controller={self.meta.controller!r}, "
            f"attack={self.meta.attack!r}, n={len(self)})"
        )
