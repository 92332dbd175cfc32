"""The batched simulation engine: N grid points stepped as arrays.

:func:`run_batch` executes many compatible runs (same route, dt, duration,
model and lead config — everything else may vary per lane) in one
struct-of-arrays loop and returns the same :class:`~repro.sim.engine.
RunResult` list the serial :class:`~repro.sim.engine.SimulationRunner`
would produce, **bit-identically**.  The serial runner is the oracle: every
expression here mirrors ``engine.py`` in association order, builtin
``min``/``max`` semantics and libm usage (see :mod:`repro.sim.batch.ops`).

Three lane tiers share the loop:

* *vector lanes* — plain :class:`~repro.control.follower.WaypointFollower`
  with a ``supports_batch`` lateral controller: control fully vectorized.
* *object-controller lanes* — stateful followers (MPC, supervised): the
  real ``decide()`` runs per lane on a scalar ``Estimate`` view.
* *injected lanes* — lanes with fault/attack injectors (or a supervisor)
  materialize per-step reading objects, run the exact serial injection
  chain, and write the results back into the arrays.

**Shared prefixes.**  Until its first injector window opens, an injected
lane evolves exactly like the clean run of the same inputs.  Vector lanes
without a supervisor whose injectors all use the base ``Attack.active``
therefore form *prefix classes* (equal :func:`prefix_key`), and the loop
steps *rows*, not lanes: one slot row per class, one row per lane that
cannot join a class.  At a lane's onset step it forks off its class slot:
every per-lane component is re-indexed with ``take`` (see
:mod:`repro.sim.batch.lanes`), the lane's injectors are fed the prefix's
pre-injection messages (rebuilt from the slot's recorded columns), and its
trace rows before onset are the slot's.  Lanes that never fork take the
slot's rows to the end.  Each slot's state at its first fork step is kept
in a small process-local memo, so a later batch of the same class resumes
there instead of re-simulating the prefix.

A lane the serial engine would crash on (NaN-poisoned state) raises out of
the whole batch; callers are expected to fall back to serial execution so
the per-lane behaviour — including the crash — is preserved.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.control.estimator import EkfConfig, Estimate
from repro.control.supervisor import SupervisedController
from repro.geom.vec import Vec2
from repro.sim.batch import ops
from repro.sim.batch.controllers import (
    _DARE_MEMO,
    BatchFollower,
    follower_key,
    is_vectorizable,
)
from repro.sim.batch.dynamics import BatchVehicle
from repro.sim.batch.ekf import BatchEkf
from repro.sim.batch.lanes import LaneState
from repro.sim.batch.noise import build_lane_tapes
from repro.sim.batch.route import BatchRoute
from repro.sim.engine import _DIVERGENCE_CTE, LaneSpec, RunResult
from repro.sim.lead import LeadVehicle
from repro.sim.rng import RngStreams
from repro.sim.scenario import Scenario, ScenarioOutcome
from repro.sim.sensors.compass import CompassReading
from repro.sim.sensors.gps import GpsFix
from repro.sim.sensors.imu import ImuReading
from repro.sim.sensors.odometry import OdometryReading
from repro.sim.sensors.radar import Radar, RadarConfig, RadarReading
from repro.trace.metrics import compute_metrics
from repro.trace.schema import Trace, TraceMeta

if TYPE_CHECKING:  # annotation-only import; repro.attacks imports repro.sim
    from repro.attacks.campaign import AttackCampaign
    from repro.faults.campaign import FaultCampaign

__all__ = ["LaneSpec", "BatchCompatError", "batch_counters", "prefix_key",
           "run_batch"]


class BatchCompatError(ValueError):
    """Lanes cannot share a batch (route/dt/duration/model/lead differ)."""


_FLOAT_COLS = (
    "true_x", "true_y", "true_yaw", "true_v", "true_yaw_rate", "true_accel",
    "true_lat_accel", "cte_true", "heading_err_true", "station_true",
    "dist_to_goal", "gps_x", "gps_y", "imu_yaw_rate", "imu_accel",
    "odom_speed", "compass_yaw", "radar_range", "radar_range_rate",
    "gap_true", "lead_speed", "est_x", "est_y", "est_yaw", "est_v",
    "est_cov_trace", "nis_gps", "nis_speed", "nis_compass", "cte_est",
    "heading_err_est", "station_est", "target_speed", "steer_cmd",
    "accel_cmd", "steer_applied", "accel_applied",
)
_BOOL_COLS = (
    "gps_fresh", "imu_fresh", "odom_fresh", "compass_fresh", "radar_fresh",
    "lead_present", "attack_active", "fault_active",
)
_STRING_COLS = (
    "attack_name", "attack_channel", "fault_name", "fault_channel",
    "supervisor_mode",
)
_ZOH_COLS = (
    "gps_x", "gps_y", "imu_yaw_rate", "imu_accel", "odom_speed",
    "compass_yaw", "radar_range", "radar_range_rate",
)
"""Reading columns the recorder carries forward between fresh samples."""

_TAPE_STEP_FIELDS = (
    "gps_fresh", "gps_walk_x", "gps_walk_y", "gps_noise_x", "gps_noise_y",
    "imu_fresh", "imu_gyro_noise", "imu_accel_noise", "odom_fresh",
    "odom_noise", "compass_fresh", "compass_noise",
)
_TAPE_LANE_FIELDS = ("imu_gyro_bias", "imu_accel_bias", "odom_scale")
_READING_CHANNELS = frozenset(("gps", "imu", "odometry", "compass"))
"""The tape-played channels the shim may rewrite (radar is polled)."""


def _check_compat(lanes: "list[LaneSpec]") -> None:
    base = lanes[0].scenario
    for spec in lanes[1:]:
        s = spec.scenario
        if s.dt != base.dt or s.num_steps != base.num_steps:
            raise BatchCompatError("lanes must share dt and duration")
        if s.model != base.model:
            raise BatchCompatError("lanes must share the dynamics model")
        if s.lead != base.lead:
            raise BatchCompatError("lanes must share the lead-vehicle config")
        if s.route is not base.route:
            if s.route.closed != base.route.closed:
                raise BatchCompatError("lanes must share route topology")
            a = np.array([[p.x, p.y] for p in s.route.points])
            b = np.array([[p.x, p.y] for p in base.route.points])
            if a.shape != b.shape or not np.array_equal(a, b):
                raise BatchCompatError("lanes must share route geometry")


# ---------------------------------------------------------------------------
# Prefix classes and the snapshot memo
# ---------------------------------------------------------------------------

def _route_key(route) -> tuple:
    points = np.array([[p.x, p.y] for p in route.points], dtype=float)
    return type(route).__name__, route.closed, points.tobytes()


def prefix_key(spec: LaneSpec, route_key: tuple | None = None) -> tuple:
    """Everything a vector lane's evolution depends on before its onset.

    Every :class:`~repro.sim.scenario.Scenario` field (the route by its
    geometry), the EKF configuration and the parameters the vectorized
    follower reads.  Lanes with equal keys share one simulated prefix;
    the key also names their snapshot in the process-local memo.
    """
    scenario = spec.scenario
    if route_key is None:
        route_key = _route_key(scenario.route)
    fields = tuple(
        route_key if f.name == "route" else getattr(scenario, f.name)
        for f in dataclasses.fields(scenario)
    )
    return (fields, spec.ekf_config or EkfConfig(),
            follower_key(spec.follower))


@dataclass(slots=True)
class _Snapshot:
    """A prefix slot at the start of ``step``: its one-row state, radar
    and every trace column of steps ``[0, step)``."""

    step: int
    state: "_State"
    radar: Radar | None
    history: dict


_PREFIX_MEMO: "OrderedDict[tuple, _Snapshot]" = OrderedDict()
"""Process-wide prefix snapshots keyed by ``(prefix key, step)``, least
recently used first.  Like the DARE gain memo, it lets whole successive
batch calls share work: a later group of a class whose earliest onset is
no earlier than a stored step resumes from that step."""

_PREFIX_MEMO_SIZE = 16

_LANE_STEPS = {"simulated": 0, "requested": 0}
"""Process-lifetime lane-steps: rows actually stepped vs lanes x steps."""


def batch_counters() -> dict[str, int]:
    """Process-lifetime batch-engine counters (``--stats`` takes deltas):
    DARE memo reuse and lane-steps simulated against requested."""
    return {
        "hits": _DARE_MEMO["hits"],
        "solves": _DARE_MEMO["solves"],
        "lane_steps_simulated": _LANE_STEPS["simulated"],
        "lane_steps_requested": _LANE_STEPS["requested"],
    }


def _memo_lookup(key: tuple, limit: int) -> _Snapshot | None:
    """The latest stored snapshot of ``key`` at a step ``<= limit``."""
    best = None
    for (k, step), snap in _PREFIX_MEMO.items():
        if step <= limit and (best is None or step > best.step) and k == key:
            best = snap
    if best is not None:
        _PREFIX_MEMO.move_to_end((key, best.step))
    return best


def _memo_store(key: tuple, snap: _Snapshot) -> None:
    _PREFIX_MEMO[(key, snap.step)] = snap
    while len(_PREFIX_MEMO) > _PREFIX_MEMO_SIZE:
        _PREFIX_MEMO.popitem(last=False)


# ---------------------------------------------------------------------------
# Loop bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class _Lane:
    """Per-lane serial-side objects the array loop can't absorb."""

    spec: LaneSpec
    campaign: AttackCampaign
    faults: FaultCampaign
    injectors: list = field(default_factory=list)
    supervisor: SupervisedController | None = None
    channels: dict = field(default_factory=dict)
    """The lane's injectors by channel, each list in injection order."""
    shimmed: frozenset = frozenset()
    """The reading channels the shim materializes: those with an
    injector, GPS if an attack watches fixes, all with a supervisor."""
    gps_watchers: list = field(default_factory=list)
    """The attacks that override ``observe_gps``."""
    attack_first: np.ndarray | None = None
    """Per step, the index of the first attack whose window is open (-1:
    none); ``None`` if an attack has its own ``active``."""
    fault_first: np.ndarray | None = None
    """:attr:`attack_first` for the lane's faults."""
    onset: int | None = None
    """First step any injector is active (class members only)."""
    cls: int | None = None
    """Index of the lane's prefix class, if it joined one."""
    track: int | None = None
    """The lane's own history track (once it has a row of its own)."""


@dataclass
class _Class:
    """Lanes sharing one prefix (equal :func:`prefix_key`)."""

    key: tuple
    members: list[int]
    track: int
    tape: int
    first_fork: int | None = None
    """Earliest member onset (``None``: no member ever forks)."""
    needed_until: int = 0
    """The slot row is dropped at the first event step at or past this."""
    resume: _Snapshot | None = None
    """The memoized snapshot the slot resumes from, if one fits."""


@dataclass(slots=True)
class _Row:
    """What one row of the loop's arrays stands for."""

    lane: int | None
    """The lane this row simulates, or ``None`` for a class slot."""
    cls: int | None
    """The class a slot row stands for."""
    track: int
    radar: Radar | None
    vector: bool
    shim: bool


class _LoopState(LaneState):
    """The loop's own per-row state: ZOH readings, projection hints,
    predict times and divergence."""

    _LANE_FIELDS = _ZOH_COLS + (
        "eng_hint", "eng_has_hint", "last_predict_t", "has_predict",
        "diverged", "divergence_time", "tape",
    )

    def __init__(self, tape: np.ndarray):
        self.n = n = len(tape)
        for name in _ZOH_COLS:
            setattr(self, name, np.zeros(n))
        self.eng_hint = np.zeros(n)
        self.eng_has_hint = np.zeros(n, dtype=bool)
        self.last_predict_t = np.zeros(n)
        self.has_predict = np.zeros(n, dtype=bool)
        self.diverged = np.zeros(n, dtype=bool)
        self.divergence_time = np.full(n, np.nan)
        self.tape = np.asarray(tape, dtype=np.int64)


@dataclass(slots=True)
class _State:
    """Every row-indexed component of the loop, kept in row order."""

    rows: list
    vehicle: BatchVehicle
    ekf: BatchEkf
    follower: BatchFollower | None
    loop: _LoopState

    def take(self, index: list[int], rows: list) -> "_State":
        """Rows ``index`` of every component, described by ``rows``."""
        vec_pos = np.cumsum([row.vector for row in self.rows]) - 1
        fidx = [vec_pos[i] for i in index if self.rows[i].vector]
        return _State(
            rows=rows,
            vehicle=self.vehicle.take(index),
            ekf=self.ekf.take(index),
            follower=self.follower.take(fidx) if fidx else None,
            loop=self.loop.take(index),
        )

    def concat(self, other: "_State") -> "_State":
        if self.follower is None or other.follower is None:
            follower = self.follower or other.follower
        else:
            follower = self.follower.concat(other.follower)
        return _State(
            rows=self.rows + other.rows,
            vehicle=self.vehicle.concat(other.vehicle),
            ekf=self.ekf.concat(other.ekf),
            follower=follower,
            loop=self.loop.concat(other.loop),
        )


@dataclass(slots=True)
class _Epoch:
    """Trace rows ``[start, stop)`` of a fixed row set, one column per
    row; ``pos`` maps each row's track to its column."""

    start: int
    stop: int
    pos: dict
    cols: dict


def _new_epoch(start: int, stop: int, rows: list) -> _Epoch:
    shape = (stop - start, len(rows))
    cols = {name: np.zeros(shape) for name in _FLOAT_COLS}
    cols.update((name, np.zeros(shape, dtype=bool)) for name in _BOOL_COLS)
    cols["supervisor_lost"] = np.zeros(shape, dtype=np.int64)
    return _Epoch(start, stop, {row.track: i for i, row in enumerate(rows)},
                  cols)


def _history(epochs: list, track: int, lo: int, hi: int) -> dict:
    """Every trace column of ``track`` over steps ``[lo, hi)``.

    Epochs never straddle an event step, and ``lo``/``hi`` always are
    event steps (or the run's ends), so whole epochs are selected.
    """
    pieces = [(ep, ep.pos[track]) for ep in epochs
              if track in ep.pos and lo <= ep.start < hi]
    if len(pieces) == 1:
        ep, col = pieces[0]
        return {name: arr[:, col] for name, arr in ep.cols.items()}
    return {
        name: np.concatenate([ep.cols[name][:, col] for ep, col in pieces])
        for name in pieces[0][0].cols
    }


def _forkable(lane: _Lane) -> bool:
    """Whether the lane may share a prefix: a vector lane, no supervisor,
    and injectors whose activity is their window alone."""
    return (
        lane.supervisor is None
        and is_vectorizable(lane.spec.follower)
        and lane.attack_first is not None
        and lane.fault_first is not None
    )


def _replay_observations(lane: _Lane, history: dict, stop: int, dt: float,
                         has_lead: bool) -> None:
    """Feed a forking lane's injectors the prefix's messages.

    Before onset no injector is active, so the shim would only have made
    its observation calls, on the unmodified readings.  They are rebuilt
    from the slot's ``*_fresh`` and reading columns and replayed in the
    shim's order: ``observe_gps``, ``observe`` per channel, then the
    command.  Only injectors that override a hook are called.
    """
    from repro.attacks.base import Attack

    gps_watchers = [a for a in lane.campaign.attacks
                    if type(a).observe_gps is not Attack.observe_gps]
    observers = {
        channel: [inj for inj in lane.injectors if inj.channel == channel
                  and type(inj).observe is not Attack.observe]
        for channel in ("gps", "imu", "odometry", "compass", "radar",
                        "command")
    }
    if not gps_watchers and not any(observers.values()):
        return
    col = {name: history[name].tolist() for name in (
        "gps_fresh", "gps_x", "gps_y", "imu_fresh", "imu_yaw_rate",
        "imu_accel", "odom_fresh", "odom_speed", "compass_fresh",
        "compass_yaw", "radar_fresh", "radar_range", "radar_range_rate",
        "steer_cmd", "accel_cmd",
    )}
    for step in range(stop):
        t = step * dt
        if col["gps_fresh"][step]:
            fix = GpsFix(t, col["gps_x"][step], col["gps_y"][step])
            for attack in gps_watchers:
                attack.observe_gps(t, fix)
            for injector in observers["gps"]:
                injector.observe(t, fix)
        if observers["imu"] and col["imu_fresh"][step]:
            reading = ImuReading(t=t, yaw_rate=col["imu_yaw_rate"][step],
                                 accel=col["imu_accel"][step])
            for injector in observers["imu"]:
                injector.observe(t, reading)
        if observers["odometry"] and col["odom_fresh"][step]:
            reading = OdometryReading(t=t, speed=col["odom_speed"][step])
            for injector in observers["odometry"]:
                injector.observe(t, reading)
        if observers["compass"] and col["compass_fresh"][step]:
            reading = CompassReading(t=t, yaw=col["compass_yaw"][step])
            for injector in observers["compass"]:
                injector.observe(t, reading)
        if has_lead and observers["radar"] and col["radar_fresh"][step]:
            reading = RadarReading(t=t, range_m=col["radar_range"][step],
                                   range_rate=col["radar_range_rate"][step])
            for injector in observers["radar"]:
                injector.observe(t, reading)
        if observers["command"]:
            command = (col["steer_cmd"][step], col["accel_cmd"][step])
            for injector in observers["command"]:
                injector.observe(t, command)


def _fork_events(step: int, state: "_State | None", lanes: list,
                 classes: list, resuming: list, forking: list, epochs: list,
                 next_track: int, dt: float,
                 has_lead: bool) -> "tuple[_State, int]":
    """Re-shape the row set at an event step, before the step runs.

    In order: memoized slots resuming at ``step`` join the rows; each
    class slot at its first fork step is snapshotted into the memo; the
    lanes with onset ``step`` fork off their slots (their injectors
    replay the prefix's observations); slots no member needs any more
    are dropped.  Returns the new state and the next free track id.
    """
    for c in resuming:
        cls = classes[c]
        snap = cls.resume
        row = _Row(lane=None, cls=c, track=cls.track,
                   radar=copy.deepcopy(snap.radar), vector=True, shim=False)
        resumed = snap.state.take([0], [row])
        resumed.loop.tape[:] = cls.tape
        state = resumed if state is None else state.concat(resumed)
        epochs.append(_Epoch(0, step, {cls.track: 0}, {
            name: arr[:, None] for name, arr in snap.history.items()
        }))
    slot_pos = {row.cls: p for p, row in enumerate(state.rows)
                if row.lane is None}
    forking_classes = {lanes[i].cls for i in forking}
    prefixes = {
        c: _history(epochs, classes[c].track, 0, step) for c in slot_pos
        if step > 0 and (c in forking_classes or classes[c].first_fork == step)
    }
    for c, p in slot_pos.items():
        cls = classes[c]
        if (cls.first_fork == step and step > 0
                and (cls.key, step) not in _PREFIX_MEMO):
            detached = _Row(lane=None, cls=None, track=-1, radar=None,
                            vector=True, shim=False)
            _memo_store(cls.key, _Snapshot(
                step=step,
                state=state.take([p], [detached]),
                radar=copy.deepcopy(state.rows[p].radar),
                history={name: col.copy()
                         for name, col in prefixes[c].items()},
            ))
    index = [p for p, row in enumerate(state.rows)
             if row.lane is not None or classes[row.cls].needed_until > step]
    rows = [state.rows[p] for p in index]
    for i in forking:
        lane = lanes[i]
        p = slot_pos[lane.cls]
        lane.track = next_track
        next_track += 1
        index.append(p)
        rows.append(_Row(lane=i, cls=None, track=lane.track,
                         radar=copy.deepcopy(state.rows[p].radar),
                         vector=True, shim=True))
        if step > 0:
            _replay_observations(lane, prefixes[lane.cls], step, dt, has_lead)
    return state.take(index, rows), next_track


def _window_firsts(items: list, t_col: np.ndarray) -> np.ndarray | None:
    """Per step, the index of the first item whose window is open (-1:
    none), or ``None`` if an item's activity is not its window alone."""
    from repro.attacks.base import Attack

    if any(type(item).active is not Attack.active for item in items):
        return None
    first = np.full(len(t_col), -1)
    for j in reversed(range(len(items))):
        window = items[j].window
        first[(t_col >= window.start) & (t_col < window.end)] = j
    return first


def _window_labels(strings: dict, items: list, first: np.ndarray,
                   kind: str) -> None:
    """Write the ``{kind}_name``/``{kind}_channel`` labels of every step
    at which an item is active (the shim's per-step ``active`` scan)."""
    names, channels = strings[f"{kind}_name"], strings[f"{kind}_channel"]
    for step in np.flatnonzero(first >= 0).tolist():
        item = items[first[step]]
        names[step] = item.name
        channels[step] = item.channel


def _apply_channel(injectors: list, t: float, value, hook):
    """Replica of ``SimulationRunner._apply_channel`` for one lane's
    injectors of one channel."""
    if value is None:
        return None
    for injector in injectors:
        injector.observe(t, value)
        if injector.active(t):
            value = hook(injector, t, value)
            if value is None:
                return None
    return value


def _on_gps(injector, t, value):
    return injector.on_gps(t, value)


def _on_imu(injector, t, value):
    return injector.on_imu(t, value)


def _on_odometry(injector, t, value):
    return injector.on_odometry(t, value)


def _on_compass(injector, t, value):
    return injector.on_compass(t, value)


def _on_radar(injector, t, value):
    return injector.on_radar(t, value)


def _on_command(injector, t, value):
    return injector.on_command(t, value[0], value[1])


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------

def run_batch(lane_specs: "list[LaneSpec]") -> "list[RunResult]":
    """Run every lane to completion in lockstep; serial-bit-exact results."""
    from repro.attacks.base import Attack
    from repro.attacks.campaign import AttackCampaign
    from repro.faults.campaign import FaultCampaign

    if not lane_specs:
        return []
    _check_compat(lane_specs)
    base = lane_specs[0].scenario
    route = base.route
    dt = base.dt
    n_steps = base.num_steps
    n = len(lane_specs)
    broute = BatchRoute(route)
    has_lead = base.lead is not None
    lead = LeadVehicle(base.lead, start_station=0.0) if has_lead else None
    t_col = np.arange(n_steps) * dt

    # --- per-lane setup (mirrors SimulationRunner.run preamble) --------
    lanes: list[_Lane] = []
    for spec in lane_specs:
        campaign = spec.campaign or AttackCampaign.none()
        faults = spec.faults or FaultCampaign.none()
        rngs = RngStreams(spec.scenario.seed)
        spec.follower.reset()
        campaign.reset()
        faults.reset()
        for index, attack in enumerate(campaign.attacks):
            attack.bind_rng(rngs.stream(f"attack.{index}.{attack.name}"))
        for index, fault in enumerate(faults.faults):
            fault.bind_rng(rngs.stream(f"fault.{index}.{fault.name}"))
        injectors = list(faults.faults) + list(campaign.attacks)
        channels: dict[str, list] = {}
        for injector in injectors:
            channels.setdefault(injector.channel, []).append(injector)
        supervisor = (spec.follower
                      if isinstance(spec.follower, SupervisedController)
                      else None)
        gps_watchers = [a for a in campaign.attacks
                        if type(a).observe_gps is not Attack.observe_gps]
        shimmed = _READING_CHANNELS
        if supervisor is None:
            shimmed = shimmed.intersection(
                [*channels, *(["gps"] if gps_watchers else [])])
        lanes.append(_Lane(
            spec=spec,
            campaign=campaign,
            faults=faults,
            injectors=injectors,
            supervisor=supervisor,
            channels=channels,
            shimmed=shimmed,
            gps_watchers=gps_watchers,
            attack_first=_window_firsts(campaign.attacks, t_col),
            fault_first=_window_firsts(faults.faults, t_col),
        ))

    # --- sensor tapes: one per (sensors, seed) -------------------------
    tape_ids: dict[tuple, int] = {}
    tapes = []

    def tape_of(scenario: Scenario) -> int:
        key = (scenario.sensors, scenario.seed)
        if key not in tape_ids:
            tape_ids[key] = len(tapes)
            tapes.append(build_lane_tapes(
                scenario.sensors, RngStreams(scenario.seed), dt, n_steps))
        return tape_ids[key]

    # --- prefix classes -------------------------------------------------
    route_key = _route_key(route)
    classes: list[_Class] = []
    class_of: dict[tuple, int] = {}
    solo: list[int] = []
    for i, lane in enumerate(lanes):
        if not _forkable(lane):
            solo.append(i)
            continue
        key = prefix_key(lane.spec, route_key)
        if key not in class_of:
            class_of[key] = len(classes)
            classes.append(_Class(key=key, members=[], track=len(classes),
                                  tape=tape_of(lane.spec.scenario)))
        lane.cls = class_of[key]
        classes[lane.cls].members.append(i)
        live = np.flatnonzero((lane.attack_first >= 0)
                              | (lane.fault_first >= 0))
        lane.onset = int(live[0]) if live.size else None
    forks: dict[int, list[int]] = {}
    for c, cls in enumerate(classes):
        onsets = [lanes[i].onset for i in cls.members
                  if lanes[i].onset is not None]
        for i in cls.members:
            if lanes[i].onset is not None:
                forks.setdefault(lanes[i].onset, []).append(i)
        cls.first_fork = min(onsets) if onsets else None
        cls.needed_until = (
            max(onsets) if len(onsets) == len(cls.members) else n_steps
        )
        cls.resume = _memo_lookup(
            cls.key, n_steps if cls.first_fork is None else cls.first_fork)
    next_track = len(classes)
    for i in solo:
        lanes[i].track = next_track
        next_track += 1

    # --- fresh rows: unresumed class slots, then solo lanes ------------
    def radar_of(spec: LaneSpec) -> Radar | None:
        if not has_lead:
            return None
        return Radar(RadarConfig(),
                     RngStreams(spec.scenario.seed).stream("sensor.radar"))

    fresh_rows: list[_Row] = []
    fresh_specs: list[LaneSpec] = []
    for c, cls in enumerate(classes):
        if cls.resume is None:
            rep = lanes[cls.members[0]].spec
            fresh_rows.append(_Row(lane=None, cls=c, track=cls.track,
                                   radar=radar_of(rep), vector=True,
                                   shim=False))
            fresh_specs.append(rep)
    for i in solo:
        lane = lanes[i]
        fresh_rows.append(_Row(
            lane=i, cls=None, track=lane.track, radar=radar_of(lane.spec),
            vector=is_vectorizable(lane.spec.follower),
            shim=bool(lane.injectors) or lane.supervisor is not None,
        ))
        fresh_specs.append(lane.spec)

    state: _State | None = None
    if fresh_rows:
        # --- spawn (exact serial per-lane scalar arithmetic) -----------
        start_point, start_heading = route.start_pose()
        m = len(fresh_rows)
        x0 = np.empty(m)
        y0 = np.empty(m)
        for i, spec in enumerate(fresh_specs):
            offset = spec.scenario.initial_lateral_offset
            point = start_point
            if offset != 0.0:
                left = Vec2(-math.sin(start_heading), math.cos(start_heading))
                point = start_point + left * offset
            x0[i] = point.x
            y0[i] = point.y
        yaw0 = np.full(m, start_heading)
        v0 = np.array([spec.scenario.initial_speed for spec in fresh_specs],
                      dtype=float)
        ekf = BatchEkf([spec.ekf_config for spec in fresh_specs])
        ekf.reset(x0, y0, yaw0, v0)
        vector_followers = [spec.follower for row, spec
                            in zip(fresh_rows, fresh_specs) if row.vector]
        state = _State(
            rows=fresh_rows,
            vehicle=BatchVehicle(m, model=base.model, x=x0, y=y0, yaw=yaw0,
                                 v=v0),
            ekf=ekf,
            follower=(BatchFollower(vector_followers, broute)
                      if vector_followers else None),
            loop=_LoopState([tape_of(spec.scenario) for spec in fresh_specs]),
        )

    # --- stacked tapes: (n_steps, n_tapes) and (n_tapes,) --------------
    tape_steps = {name: np.stack([getattr(tape, name) for tape in tapes],
                                 axis=1)
                  for name in _TAPE_STEP_FIELDS}
    tape_lanes = {name: np.array([getattr(tape, name) for tape in tapes])
                  for name in _TAPE_LANE_FIELDS}

    # --- event steps: resumes and forks ---------------------------------
    resumes: dict[int, list[int]] = {}
    for c, cls in enumerate(classes):
        if cls.resume is not None:
            resumes.setdefault(cls.resume.step, []).append(c)
    first_step = 0 if state is not None else min(resumes)
    events = sorted({first_step, *resumes, *forks})
    if has_lead:
        for step in range(first_step):
            lead.step(step * dt, dt)

    epochs: list[_Epoch] = []
    col_s: dict[int, dict[str, list]] = {
        i: {name: [""] * n_steps for name in _STRING_COLS}
        for i, lane in enumerate(lanes)
        if lane.injectors or lane.supervisor is not None
    }
    # Labels that follow from the windows are written up front: a lane
    # steps its own row from its onset on, and no window is open before.
    for i, strings in col_s.items():
        lane = lanes[i]
        if lane.attack_first is not None:
            _window_labels(strings, lane.campaign.attacks, lane.attack_first,
                           "attack")
        if lane.fault_first is not None:
            _window_labels(strings, lane.faults.faults, lane.fault_first,
                           "fault")
    end_point = None if route.closed else route.end_point()
    simulated = 0
    ep = None

    for step in range(first_step, n_steps):
        t = step * dt
        if step in resumes or step in forks or ep is None:
            if ep is not None:
                epochs.append(ep)
            state, next_track = _fork_events(
                step, state, lanes, classes, resumes.get(step, ()),
                forks.get(step, ()), epochs, next_track, dt, has_lead)

            # --- the new epoch's row set -------------------------------
            later = [e for e in events if e > step]
            ep = _new_epoch(step, later[0] if later else n_steps, state.rows)
            rows = state.rows
            n_rows = len(rows)
            simulated += n_rows * (ep.stop - ep.start)
            vehicle, ekf, ls = state.vehicle, state.ekf, state.loop
            bfollower = state.follower
            vec = np.array([p for p, row in enumerate(rows) if row.vector],
                           dtype=np.int64)
            object_rows = [(p, lanes[row.lane]) for p, row in enumerate(rows)
                           if not row.vector]
            # Every row a vector row: the follower takes the arrays whole.
            all_vector = bfollower is not None and len(vec) == n_rows
            shim_rows = [(p, row.lane, lanes[row.lane])
                         for p, row in enumerate(rows) if row.shim]
            command_rows = [(p, lane) for p, _, lane in shim_rows
                            if "command" in lane.channels]
            # Rows whose record labels need a per-step call: an injector
            # with its own ``active``, or a supervisor.
            label_rows = [(p, lane_id, lane) for p, lane_id, lane in shim_rows
                          if lane.attack_first is None
                          or lane.fault_first is None
                          or lane.supervisor is not None]
            radars = [row.radar for row in rows]
            window = slice(ep.start, ep.stop)
            for p, _, lane in shim_rows:
                if lane.attack_first is not None:
                    ep.cols["attack_active"][:, p] = (
                        lane.attack_first[window] >= 0)
                if lane.fault_first is not None:
                    ep.cols["fault_active"][:, p] = (
                        lane.fault_first[window] >= 0)
            # Per-epoch copies: the shim may rewrite a step's fresh flags.
            tp = {name: arr[window][:, ls.tape]
                  for name, arr in tape_steps.items()}
            tp.update((name, arr[ls.tape]) for name, arr in tape_lanes.items())
            col_f = col_b = ep.cols
            col_lost = ep.cols["supervisor_lost"]
            all_true = np.ones(n_rows, dtype=bool)
            zeros = np.zeros(n_rows)
            zeros.setflags(write=False)
            no_radar_fresh = np.zeros(n_rows, dtype=bool)
            no_radar_fresh.setflags(write=False)
        k = step - ep.start

        sx, sy, syaw, sv = vehicle.x, vehicle.y, vehicle.yaw, vehicle.v
        syaw_rate, saccel = vehicle.yaw_rate, vehicle.accel

        # The ground truth at time t is projected with the follower's
        # first projection (control, below): its inputs hold until physics.
        truth = (sx, sy, ls.eng_hint, ls.eng_has_hint)

        # --- sensing (tape playback; serial association order) --------
        gps_f = tp["gps_fresh"][k]
        gps_x = sx + tp["gps_walk_x"][k] + tp["gps_noise_x"][k]
        gps_y = sy + tp["gps_walk_y"][k] + tp["gps_noise_y"][k]
        imu_f = tp["imu_fresh"][k]
        imu_yaw_rate = syaw_rate + tp["imu_gyro_bias"] + tp["imu_gyro_noise"][k]
        imu_accel = saccel + tp["imu_accel_bias"] + tp["imu_accel_noise"][k]
        odom_f = tp["odom_fresh"][k]
        odom_speed = ops.pymax(sv * tp["odom_scale"] + tp["odom_noise"][k], 0.0)
        cmp_f = tp["compass_fresh"][k]
        compass_yaw = ops.normalize_angle(syaw + tp["compass_noise"][k])

        # --- radar / lead ---------------------------------------------
        radar_objs: list = [None] * n_rows
        gap_true = zeros
        if has_lead:
            lead_pos = lead.position_on(route)
            lead_vel = lead.velocity_on(route)
            los_x = lead_pos.x - sx
            los_y = lead_pos.y - sy
            gap_true = ops.map2(math.hypot, los_x, los_y)
            rel_x = lead_vel.x - sv * np.cos(syaw)
            rel_y = lead_vel.y - sv * np.sin(syaw)
            with np.errstate(divide="ignore", invalid="ignore"):
                closing = np.where(
                    gap_true > 1e-6,
                    (rel_x * los_x + rel_y * los_y) / gap_true,
                    0.0,
                )
            gap_list = gap_true.tolist()
            closing_list = closing.tolist()
            for i, radar in enumerate(radars):
                radar_objs[i] = radar.poll_gap(
                    t, gap_list[i], closing_list[i]
                )

        # --- injection + supervisor (object shim per affected row) ----
        if shim_rows:
            gx_l = gps_x.tolist()
            gy_l = gps_y.tolist()
            iyr_l = imu_yaw_rate.tolist()
            iac_l = imu_accel.tolist()
            od_l = odom_speed.tolist()
            cy_l = compass_yaw.tolist()
        for i, _, lane in shim_rows:
            # Only shimmed channels become reading objects; the others
            # keep their tape values untouched.
            channels, shimmed = lane.channels, lane.shimmed
            gfix = imu_r = odo_r = cmp_r = None
            if gps_f[i] and "gps" in shimmed:
                gfix = GpsFix(t, gx_l[i], gy_l[i])
                for attack in lane.gps_watchers:
                    attack.observe_gps(t, gfix)
                gfix = _apply_channel(channels.get("gps", ()), t, gfix,
                                      _on_gps)
            if imu_f[i] and "imu" in shimmed:
                imu_r = _apply_channel(
                    channels.get("imu", ()), t,
                    ImuReading(t=t, yaw_rate=iyr_l[i], accel=iac_l[i]),
                    _on_imu)
            if odom_f[i] and "odometry" in shimmed:
                odo_r = _apply_channel(
                    channels.get("odometry", ()), t,
                    OdometryReading(t=t, speed=od_l[i]), _on_odometry)
            if cmp_f[i] and "compass" in shimmed:
                cmp_r = _apply_channel(
                    channels.get("compass", ()), t,
                    CompassReading(t=t, yaw=cy_l[i]), _on_compass)
            radar_r = radar_objs[i]
            if radar_r is not None and "radar" in channels:
                radar_r = _apply_channel(channels["radar"], t, radar_r,
                                         _on_radar)
            if lane.supervisor is not None:
                gfix, imu_r, odo_r, cmp_r, radar_r = (
                    lane.supervisor.filter_readings(
                        t, gps=gfix, imu=imu_r, odom=odo_r,
                        compass=cmp_r, radar=radar_r,
                    )
                )
            if "gps" in shimmed:
                gps_f[i] = gfix is not None
                if gfix is not None:
                    gps_x[i] = gfix.x
                    gps_y[i] = gfix.y
            if "imu" in shimmed:
                imu_f[i] = imu_r is not None
                if imu_r is not None:
                    imu_yaw_rate[i] = imu_r.yaw_rate
                    imu_accel[i] = imu_r.accel
            if "odometry" in shimmed:
                odom_f[i] = odo_r is not None
                if odo_r is not None:
                    odom_speed[i] = odo_r.speed
            if "compass" in shimmed:
                cmp_f[i] = cmp_r is not None
                if cmp_r is not None:
                    compass_yaw[i] = cmp_r.yaw
            radar_objs[i] = radar_r

        radar_f = no_radar_fresh
        radar_range = radar_rate = zeros
        if has_lead:
            radar_f = np.array([r is not None for r in radar_objs])
            radar_range = np.zeros(n_rows)
            radar_rate = np.zeros(n_rows)
            for i, r in enumerate(radar_objs):
                if r is not None:
                    radar_range[i] = r.range_m
                    radar_rate[i] = r.range_rate

        # --- state estimation -----------------------------------------
        if np.count_nonzero(imu_f):
            predict_dt = np.where(
                ls.has_predict, ops.pymax(t - ls.last_predict_t, 1e-6), dt
            )
            ekf.predict(imu_yaw_rate, imu_accel, predict_dt, imu_f)
            ls.last_predict_t = np.where(imu_f, t, ls.last_predict_t)
            ls.has_predict = ls.has_predict | imu_f
        ekf.update_gps(gps_x, gps_y, gps_f)
        ekf.update_compass(compass_yaw, cmp_f)
        ekf.update_speed(odom_speed, odom_f)
        est_x = ekf.est_x
        est_y = ekf.est_y
        est_yaw = ekf.est_yaw
        est_v = ekf.est_v
        est_cov = ekf.cov_trace
        nis_gps, nis_speed, nis_compass = (
            ekf.nis_gps, ekf.nis_speed, ekf.nis_compass
        )

        # --- control ---------------------------------------------------
        if all_vector:
            (dec_steer, dec_accel, dec_cte, dec_he, dec_station,
             dec_target), proj = bfollower.decide(
                est_x, est_y, est_yaw, est_v, dt, radar_range, radar_rate,
                radar_f, truth,
            )
        else:
            dec_steer, dec_accel, dec_cte, dec_he, dec_station, dec_target = (
                np.zeros(n_rows) for _ in range(6))
            if bfollower is None:
                proj = broute.project(*truth)
            else:
                out, proj = bfollower.decide(
                    est_x[vec], est_y[vec], est_yaw[vec], est_v[vec], dt,
                    radar_range[vec], radar_rate[vec], radar_f[vec], truth,
                )
                (dec_steer[vec], dec_accel[vec], dec_cte[vec], dec_he[vec],
                 dec_station[vec], dec_target[vec]) = out
        ls.eng_hint = proj.station
        ls.eng_has_hint = all_true
        for i, lane in object_rows:
            estimate = Estimate(
                x=float(est_x[i]), y=float(est_y[i]), yaw=float(est_yaw[i]),
                v=float(est_v[i]), cov_trace=float(est_cov[i]),
                nis_gps=float(nis_gps[i]), nis_speed=float(nis_speed[i]),
                nis_compass=float(nis_compass[i]),
            )
            decision = lane.spec.follower.decide(
                estimate, lane.spec.scenario.route, dt, radar=radar_objs[i]
            )
            dec_steer[i] = decision.steer_cmd
            dec_accel[i] = decision.accel_cmd
            dec_cte[i] = decision.cte
            dec_he[i] = decision.heading_err
            dec_station[i] = decision.station
            dec_target[i] = decision.target_speed

        # --- command channel attacks ----------------------------------
        new_cmd_steer, new_cmd_accel = dec_steer, dec_accel
        if command_rows:
            new_cmd_steer = dec_steer.copy()
            new_cmd_accel = dec_accel.copy()
        for i, lane in command_rows:
            command = (float(dec_steer[i]), float(dec_accel[i]))
            command = _apply_channel(lane.channels["command"], t, command,
                                     _on_command)
            if command is None:
                # A dropped command leaves the previous setpoint latched.
                new_cmd_steer[i] = vehicle.cmd_steer[i]
                new_cmd_accel[i] = vehicle.cmd_accel[i]
            else:
                new_cmd_steer[i] = command[0]
                new_cmd_accel[i] = command[1]
        vehicle.apply_control(new_cmd_steer, new_cmd_accel)

        # --- physics ---------------------------------------------------
        vehicle.step(dt)
        if has_lead:
            lead.step(t, dt)

        # --- ground truth scoring (pre-step state, like serial) -------
        if route.closed:
            dist_to_goal = np.full(n_rows, -1.0)
        else:
            dist_to_goal = ops.map2(
                math.hypot, sx - end_point.x, sy - end_point.y
            )
        cte_true = proj.cross_track
        newly = ~ls.diverged & (np.abs(cte_true) > _DIVERGENCE_CTE)
        ls.divergence_time[newly] = t
        ls.diverged |= newly

        # --- record ----------------------------------------------------
        ls.gps_x = np.where(gps_f, gps_x, ls.gps_x)
        ls.gps_y = np.where(gps_f, gps_y, ls.gps_y)
        ls.imu_yaw_rate = np.where(imu_f, imu_yaw_rate, ls.imu_yaw_rate)
        ls.imu_accel = np.where(imu_f, imu_accel, ls.imu_accel)
        ls.odom_speed = np.where(odom_f, odom_speed, ls.odom_speed)
        ls.compass_yaw = np.where(cmp_f, compass_yaw, ls.compass_yaw)
        ls.radar_range = np.where(radar_f, radar_range, ls.radar_range)
        ls.radar_range_rate = np.where(
            radar_f, radar_rate, ls.radar_range_rate
        )

        col_f["true_x"][k] = sx
        col_f["true_y"][k] = sy
        col_f["true_yaw"][k] = syaw
        col_f["true_v"][k] = sv
        col_f["true_yaw_rate"][k] = syaw_rate
        col_f["true_accel"][k] = saccel
        col_f["true_lat_accel"][k] = sv * syaw_rate
        col_f["cte_true"][k] = cte_true
        col_f["heading_err_true"][k] = ops.angle_diff(syaw, proj.heading)
        col_f["station_true"][k] = proj.station
        col_f["dist_to_goal"][k] = dist_to_goal
        for name in _ZOH_COLS:
            col_f[name][k] = getattr(ls, name)
        col_b["gps_fresh"][k] = gps_f
        col_b["imu_fresh"][k] = imu_f
        col_b["odom_fresh"][k] = odom_f
        col_b["compass_fresh"][k] = cmp_f
        col_b["radar_fresh"][k] = radar_f
        col_b["lead_present"][k] = has_lead
        col_f["gap_true"][k] = gap_true
        col_f["lead_speed"][k] = lead.speed if has_lead else 0.0
        col_f["est_x"][k] = est_x
        col_f["est_y"][k] = est_y
        col_f["est_yaw"][k] = est_yaw
        col_f["est_v"][k] = est_v
        col_f["est_cov_trace"][k] = est_cov
        col_f["nis_gps"][k] = nis_gps
        col_f["nis_speed"][k] = nis_speed
        col_f["nis_compass"][k] = nis_compass
        col_f["cte_est"][k] = dec_cte
        col_f["heading_err_est"][k] = dec_he
        col_f["station_est"][k] = dec_station
        col_f["target_speed"][k] = dec_target
        col_f["steer_cmd"][k] = dec_steer
        col_f["accel_cmd"][k] = dec_accel
        col_f["steer_applied"][k] = vehicle.act_steer
        col_f["accel_applied"][k] = vehicle.act_accel

        for i, lane_id, lane in label_rows:
            strings = col_s[lane_id]
            if lane.attack_first is None:
                active_attack = next(
                    (a for a in lane.campaign.attacks if a.active(t)), None
                )
                if active_attack is not None:
                    col_b["attack_active"][k, i] = True
                    strings["attack_name"][step] = active_attack.name
                    strings["attack_channel"][step] = active_attack.channel
            if lane.fault_first is None:
                active_fault = next(
                    (f for f in lane.faults.faults if f.active(t)), None
                )
                if active_fault is not None:
                    col_b["fault_active"][k, i] = True
                    strings["fault_name"][step] = active_fault.name
                    strings["fault_channel"][step] = active_fault.channel
            if lane.supervisor is not None:
                strings["supervisor_mode"][step] = lane.supervisor.mode
                col_lost[k, i] = len(lane.supervisor.lost_channels)
    epochs.append(ep)
    _LANE_STEPS["simulated"] += simulated
    _LANE_STEPS["requested"] += n * n_steps

    # --- assemble per-lane results ------------------------------------
    final_row: dict[int, int] = {}
    for p, row in enumerate(state.rows):
        if row.lane is not None:
            final_row[row.lane] = p
        else:
            for i in classes[row.cls].members:
                if lanes[i].onset is None:
                    final_row[i] = p
    diverged = state.loop.diverged
    divergence_time = state.loop.divergence_time
    step_col = np.arange(n_steps, dtype=np.int64)
    empty_strings = [""] * n_steps
    results: list[RunResult] = []
    for i, lane in enumerate(lanes):
        spec = lane.spec
        scenario = spec.scenario
        meta = TraceMeta(
            scenario=scenario.name,
            controller=spec.follower.name,
            attack=lane.campaign.label,
            seed=scenario.seed,
            dt=dt,
            route_length=route.length,
        )
        if lane.faults.faults:
            meta.extra["fault"] = lane.faults.label
        if lane.cls is None or lane.onset == 0:
            arrays = _history(epochs, lane.track, 0, n_steps)
        elif lane.onset is None:
            arrays = _history(epochs, classes[lane.cls].track, 0, n_steps)
        else:
            # The slot's rows before onset, then the lane's own.
            prefix = _history(epochs, classes[lane.cls].track, 0, lane.onset)
            own = _history(epochs, lane.track, lane.onset, n_steps)
            arrays = {name: np.concatenate([prefix[name], own[name]])
                      for name in own}
        arrays["step"] = step_col
        arrays["t"] = t_col
        strings = col_s.get(i)
        for name in _STRING_COLS:
            arrays[name] = strings[name] if strings else empty_strings
        trace = Trace.from_columns(meta, arrays)
        p = final_row[i]
        results.append(RunResult(
            trace=trace,
            metrics=compute_metrics(trace),
            outcome=ScenarioOutcome(
                completed=True,
                diverged=bool(diverged[p]),
                divergence_time=(
                    float(divergence_time[p]) if diverged[p] else None
                ),
            ),
            scenario=scenario,
            controller_name=spec.follower.name,
            attack_label=lane.campaign.label,
        ))
    return results
