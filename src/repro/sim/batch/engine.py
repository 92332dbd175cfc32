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

A lane the serial engine would crash on (NaN-poisoned state) raises out of
the whole batch; callers are expected to fall back to serial execution so
the per-lane behaviour — including the crash — is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.control.estimator import EkfConfig, Estimate
from repro.control.supervisor import SupervisedController
from repro.geom.vec import Vec2
from repro.sim.batch import ops
from repro.sim.batch.controllers import BatchFollower, is_vectorizable
from repro.sim.batch.dynamics import BatchVehicle
from repro.sim.batch.ekf import BatchEkf
from repro.sim.batch.noise import build_lane_tapes
from repro.sim.batch.route import BatchRoute
from repro.sim.engine import _DIVERGENCE_CTE, RunResult
from repro.sim.lead import LeadVehicle
from repro.sim.rng import RngStreams
from repro.sim.scenario import Scenario, ScenarioOutcome
from repro.sim.sensors.compass import CompassReading
from repro.sim.sensors.gps import GpsFix
from repro.sim.sensors.imu import ImuReading
from repro.sim.sensors.odometry import OdometryReading
from repro.sim.sensors.radar import Radar, RadarConfig
from repro.trace.metrics import compute_metrics
from repro.trace.schema import Trace, TraceMeta

if TYPE_CHECKING:  # annotation-only import; repro.attacks imports repro.sim
    from repro.attacks.campaign import AttackCampaign
    from repro.faults.campaign import FaultCampaign

__all__ = ["LaneSpec", "BatchCompatError", "run_batch"]


class BatchCompatError(ValueError):
    """Lanes cannot share a batch (route/dt/duration/model/lead differ)."""


@dataclass(slots=True)
class LaneSpec:
    """One run of the batch: the same inputs SimulationRunner takes."""

    scenario: Scenario
    follower: object
    campaign: AttackCampaign | None = None
    ekf_config: EkfConfig | None = None
    faults: FaultCampaign | None = None


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


@dataclass
class _Lane:
    """Per-lane serial-side objects the array loop can't absorb."""

    spec: LaneSpec
    campaign: AttackCampaign
    faults: FaultCampaign
    injectors: list = field(default_factory=list)
    supervisor: SupervisedController | None = None
    radar: Radar | None = None


def _apply_channel(injectors: list, channel: str, t: float, value, hook):
    """Replica of ``SimulationRunner._apply_channel`` for one lane."""
    if value is None:
        return None
    for injector in injectors:
        if injector.channel != channel:
            continue
        injector.observe(t, value)
        if injector.active(t):
            value = hook(injector, value)
            if value is None:
                return None
    return value


def run_batch(lane_specs: "list[LaneSpec]") -> "list[RunResult]":
    """Run every lane to completion in lockstep; serial-bit-exact results."""
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

    # --- per-lane setup (mirrors SimulationRunner.run preamble) --------
    lanes: list[_Lane] = []
    tapes = []
    for spec in lane_specs:
        s = spec.scenario
        campaign = spec.campaign or AttackCampaign.none()
        faults = spec.faults or FaultCampaign.none()
        rngs = RngStreams(s.seed)
        tapes.append(build_lane_tapes(s.sensors, rngs, dt, n_steps))
        spec.follower.reset()
        campaign.reset()
        faults.reset()
        for index, attack in enumerate(campaign.attacks):
            attack.bind_rng(rngs.stream(f"attack.{index}.{attack.name}"))
        for index, fault in enumerate(faults.faults):
            fault.bind_rng(rngs.stream(f"fault.{index}.{fault.name}"))
        lane = _Lane(
            spec=spec,
            campaign=campaign,
            faults=faults,
            injectors=list(faults.faults) + list(campaign.attacks),
            supervisor=(spec.follower
                        if isinstance(spec.follower, SupervisedController)
                        else None),
            radar=(Radar(RadarConfig(), rngs.stream("sensor.radar"))
                   if has_lead else None),
        )
        lanes.append(lane)

    shim_ids = [i for i, ln in enumerate(lanes)
                if ln.injectors or ln.supervisor is not None]
    vector_ids = [i for i, ln in enumerate(lanes)
                  if is_vectorizable(ln.spec.follower)]
    object_ids = [i for i in range(n) if i not in set(vector_ids)]
    vec = np.array(vector_ids, dtype=np.int64)
    bfollower = (
        BatchFollower([lanes[i].spec.follower for i in vector_ids], broute)
        if vector_ids else None
    )

    # --- spawn (exact serial per-lane scalar arithmetic) ---------------
    start_point, start_heading = route.start_pose()
    x0 = np.empty(n)
    y0 = np.empty(n)
    for i, spec in enumerate(lane_specs):
        offset = spec.scenario.initial_lateral_offset
        point = start_point
        if offset != 0.0:
            left = Vec2(-math.sin(start_heading), math.cos(start_heading))
            point = start_point + left * offset
        x0[i] = point.x
        y0[i] = point.y
    yaw0 = np.full(n, start_heading)
    v0 = np.array([spec.scenario.initial_speed for spec in lane_specs],
                  dtype=float)

    vehicle = BatchVehicle(n, model=base.model, x=x0, y=y0, yaw=yaw0, v=v0)
    ekf = BatchEkf([spec.ekf_config for spec in lane_specs])
    ekf.reset(x0, y0, yaw0, v0)

    # --- sensor tapes stacked to (n_steps, n) --------------------------
    tp_gps_fresh = np.stack([tp.gps_fresh for tp in tapes], axis=1)
    tp_gps_walk_x = np.stack([tp.gps_walk_x for tp in tapes], axis=1)
    tp_gps_walk_y = np.stack([tp.gps_walk_y for tp in tapes], axis=1)
    tp_gps_noise_x = np.stack([tp.gps_noise_x for tp in tapes], axis=1)
    tp_gps_noise_y = np.stack([tp.gps_noise_y for tp in tapes], axis=1)
    tp_imu_fresh = np.stack([tp.imu_fresh for tp in tapes], axis=1)
    tp_gyro_noise = np.stack([tp.imu_gyro_noise for tp in tapes], axis=1)
    tp_accel_noise = np.stack([tp.imu_accel_noise for tp in tapes], axis=1)
    gyro_bias = np.array([tp.imu_gyro_bias for tp in tapes])
    accel_bias = np.array([tp.imu_accel_bias for tp in tapes])
    tp_odom_fresh = np.stack([tp.odom_fresh for tp in tapes], axis=1)
    tp_odom_noise = np.stack([tp.odom_noise for tp in tapes], axis=1)
    odom_scale = np.array([tp.odom_scale for tp in tapes])
    tp_cmp_fresh = np.stack([tp.compass_fresh for tp in tapes], axis=1)
    tp_cmp_noise = np.stack([tp.compass_noise for tp in tapes], axis=1)

    # --- trace column buffers -----------------------------------------
    col_f = {name: np.zeros((n_steps, n)) for name in _FLOAT_COLS}
    col_b = {name: np.zeros((n_steps, n), dtype=bool) for name in _BOOL_COLS}
    col_lost = np.zeros((n_steps, n), dtype=np.int64)
    col_s: dict[int, dict[str, list]] = {
        i: {name: [""] * n_steps for name in _STRING_COLS} for i in shim_ids
    }

    # ZOH state (recorder semantics: carry the last reading forward)
    zoh = {name: np.zeros(n) for name in (
        "gps_x", "gps_y", "imu_yaw_rate", "imu_accel", "odom_speed",
        "compass_yaw", "radar_range", "radar_range_rate",
    )}

    eng_hint = np.zeros(n)
    eng_has_hint = np.zeros(n, dtype=bool)
    all_true = np.ones(n, dtype=bool)
    last_predict_t = np.zeros(n)
    has_predict = np.zeros(n, dtype=bool)
    diverged = np.zeros(n, dtype=bool)
    divergence_time = np.full(n, np.nan)
    end_point = None if route.closed else route.end_point()
    no_radar = np.zeros(n)
    no_radar_fresh = np.zeros(n, dtype=bool)

    for step in range(n_steps):
        t = step * dt
        sx, sy, syaw, sv = vehicle.x, vehicle.y, vehicle.yaw, vehicle.v
        syaw_rate, saccel = vehicle.yaw_rate, vehicle.accel

        # --- ground truth at time t -----------------------------------
        proj = broute.project(sx, sy, eng_hint, eng_has_hint)
        eng_hint = proj.station
        eng_has_hint = all_true

        # --- sensing (tape playback; serial association order) --------
        gps_f = tp_gps_fresh[step].copy()
        gps_x = sx + tp_gps_walk_x[step] + tp_gps_noise_x[step]
        gps_y = sy + tp_gps_walk_y[step] + tp_gps_noise_y[step]
        imu_f = tp_imu_fresh[step].copy()
        imu_yaw_rate = syaw_rate + gyro_bias + tp_gyro_noise[step]
        imu_accel = saccel + accel_bias + tp_accel_noise[step]
        odom_f = tp_odom_fresh[step].copy()
        odom_speed = ops.pymax(sv * odom_scale + tp_odom_noise[step], 0.0)
        cmp_f = tp_cmp_fresh[step].copy()
        compass_yaw = ops.normalize_angle(syaw + tp_cmp_noise[step])

        # --- radar / lead ---------------------------------------------
        radar_objs: list = [None] * n
        gap_true = np.zeros(n)
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
            for i, lane in enumerate(lanes):
                radar_objs[i] = lane.radar.poll_gap(
                    t, gap_list[i], closing_list[i]
                )

        # --- injection + supervisor (object shim per affected lane) ---
        if shim_ids:
            gx_l = gps_x.tolist()
            gy_l = gps_y.tolist()
            iyr_l = imu_yaw_rate.tolist()
            iac_l = imu_accel.tolist()
            od_l = odom_speed.tolist()
            cy_l = compass_yaw.tolist()
        for i in shim_ids:
            lane = lanes[i]
            inj = lane.injectors
            gfix = GpsFix(t, gx_l[i], gy_l[i]) if gps_f[i] else None
            if gfix is not None:
                for attack in lane.campaign.attacks:
                    attack.observe_gps(t, gfix)
                gfix = _apply_channel(
                    inj, "gps", t, gfix, lambda a, v: a.on_gps(t, v)
                )
            imu_r = (ImuReading(t=t, yaw_rate=iyr_l[i], accel=iac_l[i])
                     if imu_f[i] else None)
            imu_r = _apply_channel(
                inj, "imu", t, imu_r, lambda a, v: a.on_imu(t, v)
            )
            odo_r = (OdometryReading(t=t, speed=od_l[i])
                     if odom_f[i] else None)
            odo_r = _apply_channel(
                inj, "odometry", t, odo_r, lambda a, v: a.on_odometry(t, v)
            )
            cmp_r = (CompassReading(t=t, yaw=cy_l[i]) if cmp_f[i] else None)
            cmp_r = _apply_channel(
                inj, "compass", t, cmp_r, lambda a, v: a.on_compass(t, v)
            )
            radar_r = radar_objs[i]
            if has_lead:
                radar_r = _apply_channel(
                    inj, "radar", t, radar_r, lambda a, v: a.on_radar(t, v)
                )
            if lane.supervisor is not None:
                gfix, imu_r, odo_r, cmp_r, radar_r = (
                    lane.supervisor.filter_readings(
                        t, gps=gfix, imu=imu_r, odom=odo_r,
                        compass=cmp_r, radar=radar_r,
                    )
                )
            gps_f[i] = gfix is not None
            if gfix is not None:
                gps_x[i] = gfix.x
                gps_y[i] = gfix.y
            imu_f[i] = imu_r is not None
            if imu_r is not None:
                imu_yaw_rate[i] = imu_r.yaw_rate
                imu_accel[i] = imu_r.accel
            odom_f[i] = odo_r is not None
            if odo_r is not None:
                odom_speed[i] = odo_r.speed
            cmp_f[i] = cmp_r is not None
            if cmp_r is not None:
                compass_yaw[i] = cmp_r.yaw
            radar_objs[i] = radar_r

        radar_f = np.array([r is not None for r in radar_objs]) \
            if has_lead else no_radar_fresh.copy()
        radar_range = no_radar.copy()
        radar_rate = no_radar.copy()
        if has_lead:
            for i, r in enumerate(radar_objs):
                if r is not None:
                    radar_range[i] = r.range_m
                    radar_rate[i] = r.range_rate

        # --- state estimation -----------------------------------------
        if imu_f.any():
            predict_dt = np.where(
                has_predict, ops.pymax(t - last_predict_t, 1e-6), dt
            )
            ekf.predict(imu_yaw_rate, imu_accel, predict_dt, imu_f)
            last_predict_t = np.where(imu_f, t, last_predict_t)
            has_predict = has_predict | imu_f
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
        dec_steer = np.zeros(n)
        dec_accel = np.zeros(n)
        dec_cte = np.zeros(n)
        dec_he = np.zeros(n)
        dec_station = np.zeros(n)
        dec_target = np.zeros(n)
        if bfollower is not None:
            out = bfollower.decide(
                est_x[vec], est_y[vec], est_yaw[vec], est_v[vec], dt,
                radar_range[vec], radar_rate[vec], radar_f[vec],
            )
            dec_steer[vec], dec_accel[vec], dec_cte[vec] = out[0], out[1], out[2]
            dec_he[vec], dec_station[vec], dec_target[vec] = out[3], out[4], out[5]
        for i in object_ids:
            lane = lanes[i]
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
        new_cmd_steer = dec_steer.copy()
        new_cmd_accel = dec_accel.copy()
        for i in shim_ids:
            command = (float(dec_steer[i]), float(dec_accel[i]))
            command = _apply_channel(
                lanes[i].injectors, "command", t, command,
                lambda a, v: a.on_command(t, v[0], v[1]),
            )
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
            dist_to_goal = np.full(n, -1.0)
        else:
            dist_to_goal = ops.map2(
                math.hypot, sx - end_point.x, sy - end_point.y
            )
        cte_true = proj.cross_track
        newly = ~diverged & (np.abs(cte_true) > _DIVERGENCE_CTE)
        divergence_time[newly] = t
        diverged |= newly

        # --- record ----------------------------------------------------
        zoh["gps_x"] = np.where(gps_f, gps_x, zoh["gps_x"])
        zoh["gps_y"] = np.where(gps_f, gps_y, zoh["gps_y"])
        zoh["imu_yaw_rate"] = np.where(imu_f, imu_yaw_rate, zoh["imu_yaw_rate"])
        zoh["imu_accel"] = np.where(imu_f, imu_accel, zoh["imu_accel"])
        zoh["odom_speed"] = np.where(odom_f, odom_speed, zoh["odom_speed"])
        zoh["compass_yaw"] = np.where(cmp_f, compass_yaw, zoh["compass_yaw"])
        zoh["radar_range"] = np.where(radar_f, radar_range, zoh["radar_range"])
        zoh["radar_range_rate"] = np.where(
            radar_f, radar_rate, zoh["radar_range_rate"]
        )

        col_f["true_x"][step] = sx
        col_f["true_y"][step] = sy
        col_f["true_yaw"][step] = syaw
        col_f["true_v"][step] = sv
        col_f["true_yaw_rate"][step] = syaw_rate
        col_f["true_accel"][step] = saccel
        col_f["true_lat_accel"][step] = sv * syaw_rate
        col_f["cte_true"][step] = cte_true
        col_f["heading_err_true"][step] = ops.angle_diff(syaw, proj.heading)
        col_f["station_true"][step] = proj.station
        col_f["dist_to_goal"][step] = dist_to_goal
        for name in ("gps_x", "gps_y", "imu_yaw_rate", "imu_accel",
                     "odom_speed", "compass_yaw", "radar_range",
                     "radar_range_rate"):
            col_f[name][step] = zoh[name]
        col_b["gps_fresh"][step] = gps_f
        col_b["imu_fresh"][step] = imu_f
        col_b["odom_fresh"][step] = odom_f
        col_b["compass_fresh"][step] = cmp_f
        col_b["radar_fresh"][step] = radar_f
        col_b["lead_present"][step] = has_lead
        col_f["gap_true"][step] = gap_true
        col_f["lead_speed"][step] = lead.speed if has_lead else 0.0
        col_f["est_x"][step] = est_x
        col_f["est_y"][step] = est_y
        col_f["est_yaw"][step] = est_yaw
        col_f["est_v"][step] = est_v
        col_f["est_cov_trace"][step] = est_cov
        col_f["nis_gps"][step] = nis_gps
        col_f["nis_speed"][step] = nis_speed
        col_f["nis_compass"][step] = nis_compass
        col_f["cte_est"][step] = dec_cte
        col_f["heading_err_est"][step] = dec_he
        col_f["station_est"][step] = dec_station
        col_f["target_speed"][step] = dec_target
        col_f["steer_cmd"][step] = dec_steer
        col_f["accel_cmd"][step] = dec_accel
        col_f["steer_applied"][step] = vehicle.act_steer
        col_f["accel_applied"][step] = vehicle.act_accel

        for i in shim_ids:
            lane = lanes[i]
            active_attack = next(
                (a for a in lane.campaign.attacks if a.active(t)), None
            )
            active_fault = next(
                (f for f in lane.faults.faults if f.active(t)), None
            )
            strings = col_s[i]
            if active_attack is not None:
                col_b["attack_active"][step, i] = True
                strings["attack_name"][step] = active_attack.name
                strings["attack_channel"][step] = active_attack.channel
            if active_fault is not None:
                col_b["fault_active"][step, i] = True
                strings["fault_name"][step] = active_fault.name
                strings["fault_channel"][step] = active_fault.channel
            if lane.supervisor is not None:
                strings["supervisor_mode"][step] = lane.supervisor.mode
                col_lost[step, i] = len(lane.supervisor.lost_channels)

    # --- assemble per-lane results ------------------------------------
    step_col = np.arange(n_steps, dtype=np.int64)
    t_col = np.arange(n_steps) * dt
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
        arrays: dict = {"step": step_col, "t": t_col}
        for name in _FLOAT_COLS:
            arrays[name] = col_f[name][:, i]
        for name in _BOOL_COLS:
            arrays[name] = col_b[name][:, i]
        arrays["supervisor_lost"] = col_lost[:, i]
        strings = col_s.get(i)
        for name in _STRING_COLS:
            arrays[name] = strings[name] if strings else empty_strings
        trace = Trace.from_columns(meta, arrays)
        results.append(RunResult(
            trace=trace,
            metrics=compute_metrics(trace),
            outcome=ScenarioOutcome(
                completed=True,
                diverged=bool(diverged[i]),
                divergence_time=(
                    float(divergence_time[i]) if diverged[i] else None
                ),
            ),
            scenario=scenario,
            controller_name=spec.follower.name,
            attack_label=lane.campaign.label,
        ))
    return results
