"""Differential tests: lanes forking off a shared pre-onset prefix.

The batch engine simulates each prefix class (lanes that evolve
identically until their first injector window opens) once and forks every
lane off its class slot at its onset step; a memoized slot snapshot lets a
later call resume mid-run.  None of that may be visible in the results:
every lane must equal the serial :class:`~repro.sim.engine.SimulationRunner`
oracle on every trace column, metric, outcome and assertion verdict.  The
lane-step counters show that the prefix really was shared (or, where it
must not be, that it was not).
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

from repro.attacks.base import AttackWindow
from repro.attacks.campaign import AttackCampaign, standard_attack
from repro.attacks.gps import GpsBiasAttack, GpsFreezeAttack, GpsReplayAttack
from repro.attacks.radar import RadarGhostAttack
from repro.control.acc import AccConfig, AccController
from repro.control.base import make_lateral_controller
from repro.control.estimator import EkfConfig
from repro.control.follower import SpeedProfile, WaypointFollower
from repro.control.lqr import LqrController
from repro.control.pid import PidSpeedController
from repro.control.pure_pursuit import PurePursuitController
from repro.control.stanley import StanleyController
from repro.control.supervisor import SupervisedController
from repro.core.checker import check_trace
from repro.faults.campaign import FaultCampaign, standard_fault
from repro.faults.models import Freeze
from repro.geom.routes import straight_route
from repro.sim.batch import LaneSpec, run_batch
from repro.sim.batch.engine import batch_counters, prefix_key
from repro.sim.engine import SimulationRunner
from repro.sim.lead import LeadVehicleConfig
from repro.sim.scenario import Scenario, acc_scenario, standard_scenarios
from repro.sim.sensors.suite import SensorSuiteConfig
from repro.trace.schema import Trace


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def scenario(name="s_curve", seed=7, duration=12.0) -> Scenario:
    return standard_scenarios(seed=seed, duration=duration)[name]


def follower(scn, controller="pure_pursuit", supervised=False, **lateral):
    lat = (make_lateral_controller(controller) if not lateral else
           {"pure_pursuit": PurePursuitController,
            "stanley": StanleyController,
            "lqr": LqrController}[controller](**lateral))
    f = WaypointFollower(
        lat,
        profile=SpeedProfile(cruise_speed=scn.cruise_speed),
        acc=AccController() if scn.lead is not None else None,
    )
    return SupervisedController(f) if supervised else f


def attack(cls, onset, **kwargs):
    """A one-attack campaign: a standard class name or an Attack type."""
    if isinstance(cls, str):
        return standard_attack(cls, onset=onset)
    return AttackCampaign(label=cls.name,
                          attacks=[cls(window=AttackWindow(onset), **kwargs)])


def spec(scn, controller="pure_pursuit", campaign=None, faults=None,
         ekf_config=None, supervised=False, **lateral) -> LaneSpec:
    return LaneSpec(scenario=scn,
                    follower=follower(scn, controller, supervised, **lateral),
                    campaign=campaign, ekf_config=ekf_config, faults=faults)


def assert_identical(serial, batch) -> None:
    """Every column, metric, outcome and verdict equals the oracle's."""
    assert len(serial.trace) == len(batch.trace)
    sc, bc = serial.trace.columns(), batch.trace.columns()
    for name in Trace.field_names:
        a, b = sc.get(name), bc.get(name)
        if a.dtype.kind == "f":
            assert np.array_equal(a, b, equal_nan=True), name
        else:
            assert np.array_equal(a, b), name
    assert serial.metrics == batch.metrics
    assert serial.outcome == batch.outcome
    assert serial.controller_name == batch.controller_name
    assert serial.attack_label == batch.attack_label
    assert (dataclasses.asdict(check_trace(serial.trace))
            == dataclasses.asdict(check_trace(batch.trace)))


def run_both(factories) -> dict:
    """Batch the lanes, compare each with a serial run of a fresh copy,
    and return the call's lane-step counter deltas."""
    before = batch_counters()
    results = run_batch([make() for make in factories])
    after = batch_counters()
    for make, batch in zip(factories, results):
        s = make()
        serial = SimulationRunner(s.scenario, s.follower, s.campaign,
                                  s.ekf_config, faults=s.faults).run()
        assert_identical(serial, batch)
    return {name: after[name] - before[name]
            for name in ("lane_steps_simulated", "lane_steps_requested")}


def onset_step(scn, onset):
    return int(np.flatnonzero(np.arange(scn.num_steps) * scn.dt >= onset)[0])


# ---------------------------------------------------------------------------
# Forking lanes against the serial oracle
# ---------------------------------------------------------------------------

class TestForkedLanes:
    def test_onsets_at_start_mid_last_step_and_never(self):
        scn = scenario(seed=31)
        last = (scn.num_steps - 1) * scn.dt
        onsets = (0.0, 5.0, last, 100.0)
        lanes = [lambda: spec(scn)] + [
            (lambda o=o: spec(scn, campaign=attack("gps_bias", o)))
            for o in onsets
        ]
        counts = run_both(lanes)
        n = scn.num_steps
        mid = onset_step(scn, 5.0)
        # One slot to the end (clean and never-onset lanes), plus each
        # forked lane from its onset on.
        assert counts["lane_steps_requested"] == 5 * n
        assert counts["lane_steps_simulated"] == n + n + (n - mid) + 1

    @pytest.mark.parametrize("controller", ["pure_pursuit", "stanley", "lqr"])
    def test_observe_hooks_replayed_after_fork(self, controller):
        # GPS freeze/replay attacks and the Freeze fault capture healthy
        # traffic before their window opens: the forked lane's injectors
        # must see the prefix's messages exactly as the shim made them.
        scn = scenario(seed=32)
        run_both([
            lambda: spec(scn, controller),
            lambda: spec(scn, controller,
                         campaign=attack(GpsFreezeAttack, 4.0)),
            lambda: spec(scn, controller,
                         campaign=attack(GpsReplayAttack, 6.0, delay=2.0)),
            lambda: spec(scn, controller, faults=FaultCampaign(
                "gps_freeze", [Freeze("gps", window=AttackWindow(5.0))])),
            lambda: spec(scn, controller, faults=FaultCampaign(
                "odom_freeze",
                [Freeze("odometry", window=AttackWindow(3.0, 7.0))])),
            # Forked at the bias onset; the replay attack opens later and
            # keeps observing through the lane's own shim in between.
            lambda: spec(scn, controller, campaign=AttackCampaign(
                "gps_bias+gps_replay",
                [GpsBiasAttack(4.0, -3.0, window=AttackWindow(3.0, 5.0)),
                 GpsReplayAttack(delay=1.5, window=AttackWindow(8.0))])),
            lambda: spec(scn, controller, campaign=attack("cmd_delay", 6.0),
                         faults=standard_fault("compass_dropout", onset=9.0)),
        ])

    def test_overridden_active_does_not_fork(self):
        class EarlyBias(GpsBiasAttack):
            """Active from 1 s although its window opens at 8 s."""

            def active(self, t):
                return t >= 1.0

        scn = scenario(seed=33)
        counts = run_both([
            lambda: spec(scn),
            lambda: spec(scn, campaign=AttackCampaign(
                "early", [EarlyBias(4.0, -3.0, window=AttackWindow(8.0))])),
        ])
        # The overriding lane runs on its own row from step 0.
        assert counts["lane_steps_simulated"] == 2 * scn.num_steps

    def test_object_lanes_in_a_forking_group(self):
        scn = scenario(seed=34)
        run_both([
            lambda: spec(scn),
            lambda: spec(scn, campaign=attack("gps_drift", 4.0)),
            lambda: spec(scn, "mpc", campaign=attack("gps_drift", 4.0)),
            lambda: spec(scn, supervised=True),
            lambda: spec(scn, supervised=True,
                         faults=standard_fault("gps_dropout", onset=5.0)),
            lambda: spec(scn, "stanley", campaign=attack("steer_offset", 6.0)),
        ])

    def test_acc_group_forks_with_radar_state(self):
        scn = acc_scenario(seed=35, duration=24.0)
        counts = run_both([
            lambda: spec(scn),
            lambda: spec(scn, campaign=attack(RadarGhostAttack, 19.0)),
            lambda: spec(scn, campaign=attack("radar_scale", 20.0)),
            lambda: spec(scn, faults=FaultCampaign(
                "radar_freeze", [Freeze("radar", window=AttackWindow(21.0))])),
            lambda: spec(scn, faults=standard_fault("radar_dropout",
                                                    onset=22.0)),
        ])
        assert counts["lane_steps_simulated"] < counts["lane_steps_requested"]

    def test_dynamic_model_closed_route(self):
        scn = scenario("urban_loop", seed=36, duration=14.0)
        run_both([
            lambda: spec(scn, "stanley"),
            lambda: spec(scn, "stanley", campaign=attack("imu_gyro_bias", 3.0)),
            lambda: spec(scn, "stanley", campaign=attack("odom_scale", 7.0)),
        ])


# ---------------------------------------------------------------------------
# The prefix snapshot memo
# ---------------------------------------------------------------------------

class TestPrefixMemo:
    def test_successive_calls_share_a_snapshot(self):
        scn = scenario(seed=41)
        k = onset_step(scn, 4.0)
        n = scn.num_steps
        first = run_both([
            lambda: spec(scn),
            lambda: spec(scn, campaign=attack("gps_bias", 4.0)),
        ])
        assert first["lane_steps_simulated"] == n + (n - k)
        # Same class, earliest onset no earlier: resumes at step k.
        second = run_both([
            lambda: spec(scn, campaign=attack("gps_freeze", 4.0)),
            lambda: spec(scn, faults=standard_fault("odom_freeze",
                                                    onset=6.0)),
        ])
        assert second["lane_steps_simulated"] == (n - k) + (n - k)
        # A clean lane alone resumes too and runs on to the end.
        third = run_both([lambda: spec(scn)])
        assert third["lane_steps_simulated"] == n - k

    def test_resumed_slot_joins_a_running_group(self):
        # The memoized Stanley slot re-enters mid-run next to fresh rows:
        # a Stanley slot of another seed (lateral groups merge), pure
        # pursuit and LQR slots and an MPC lane.
        scn = scenario(seed=45)
        other = scenario(seed=46)
        n = scn.num_steps
        k4, k5, k6 = (onset_step(scn, t) for t in (4.0, 5.0, 6.0))
        run_both([
            lambda: spec(scn, "stanley"),
            lambda: spec(scn, "stanley", campaign=attack("gps_bias", 4.0)),
        ])
        counts = run_both([
            lambda: spec(scn, "stanley", campaign=attack(GpsFreezeAttack, 5.0)),
            lambda: spec(other, "stanley"),
            lambda: spec(scn),
            lambda: spec(scn, campaign=attack("compass_offset", 6.0)),
            lambda: spec(scn, "lqr"),
            lambda: spec(scn, "mpc"),
        ])
        resumed = (k5 - k4) + (n - k5)
        assert counts["lane_steps_simulated"] == resumed + n + (n + n - k6) \
            + n + n

    def test_earlier_onset_does_not_resume(self):
        scn = scenario(seed=42)
        n = scn.num_steps
        run_both([lambda: spec(scn, campaign=attack("gps_bias", 6.0))])
        early = onset_step(scn, 2.0)
        counts = run_both([lambda: spec(scn, campaign=attack("gps_bias", 2.0))])
        assert counts["lane_steps_simulated"] == early + (n - early)

    @pytest.mark.parametrize("variant,seed", [
        ("seed", 50), ("k_cte", 52), ("sigma_gps", 54),
        ("initial_lateral_offset", 56),
    ])
    def test_one_input_apart_shares_nothing(self, variant, seed):
        def pair(name):
            base = scenario(name, seed=seed)
            other = {
                "seed": dataclasses.replace(base, seed=seed + 1),
                "initial_lateral_offset": dataclasses.replace(
                    base, initial_lateral_offset=0.4),
            }.get(variant, base)
            lateral = {"k_cte": 1.5} if variant == "k_cte" else {}
            ekf = EkfConfig(sigma_gps=0.6) if variant == "sigma_gps" else None

            def a():
                return spec(base, "stanley", campaign=attack("gps_bias", 5.0))

            def b():
                return spec(other, "stanley", campaign=attack("gps_bias", 5.0),
                            ekf_config=ekf, **lateral)

            return a, b, base.num_steps, onset_step(base, 5.0)

        # In one call: two classes, so two slots.
        a, b, n, k = pair("curve")
        assert prefix_key(a()) != prefix_key(b())
        assert run_both([a, b])["lane_steps_simulated"] == 2 * n
        # In successive calls: the first's snapshot is not the second's.
        a, b, n, k = pair("lane_change")
        assert run_both([a])["lane_steps_simulated"] == n
        assert run_both([b])["lane_steps_simulated"] == n
        assert run_both([a])["lane_steps_simulated"] == n - k


# ---------------------------------------------------------------------------
# The prefix key covers every input
# ---------------------------------------------------------------------------

def _perturbed(value):
    """A different valid value of the same kind."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 0.8 if value else 0.1
    if value is None:
        return None
    raise TypeError(value)


def _base_spec(**overrides) -> LaneSpec:
    scn = scenario("s_curve", seed=5)
    return spec(scn, **overrides)


class TestPrefixKey:
    def test_scenario_fields(self):
        scn = scenario("s_curve", seed=5)
        key = prefix_key(LaneSpec(scenario=scn, follower=follower(scn)))
        special = {
            "name": "s_curve_b",
            "route": straight_route(length=300.0),
            "model": "dynamic",
            "sensors": SensorSuiteConfig(),  # nested: see test below
            "lead": LeadVehicleConfig(),
        }
        for f in dataclasses.fields(Scenario):
            if f.name == "sensors":
                continue
            value = special.get(f.name, None)
            if value is None:
                value = _perturbed(getattr(scn, f.name))
            moved = dataclasses.replace(scn, **{f.name: value})
            assert prefix_key(LaneSpec(scenario=moved,
                                       follower=follower(scn))) != key, f.name

    def test_sensor_fields(self):
        scn = scenario("s_curve", seed=5)
        key = prefix_key(LaneSpec(scenario=scn, follower=follower(scn)))
        for group in dataclasses.fields(SensorSuiteConfig):
            config = getattr(scn.sensors, group.name)
            for f in dataclasses.fields(config):
                moved_cfg = dataclasses.replace(
                    config, **{f.name: _perturbed(getattr(config, f.name))})
                sensors = dataclasses.replace(
                    scn.sensors, **{group.name: moved_cfg})
                moved = dataclasses.replace(scn, sensors=sensors)
                assert prefix_key(LaneSpec(
                    scenario=moved, follower=follower(scn))) != key, (
                        group.name, f.name)

    def test_ekf_fields(self):
        key = prefix_key(_base_spec())
        assert prefix_key(_base_spec(ekf_config=EkfConfig())) == key
        for f in dataclasses.fields(EkfConfig):
            value = _perturbed(getattr(EkfConfig(), f.name))
            if value is None:
                value = 9.21
            moved = _base_spec(ekf_config=EkfConfig(**{f.name: value}))
            assert prefix_key(moved) != key, f.name

    @pytest.mark.parametrize("cls", [
        PurePursuitController, StanleyController, LqrController,
    ])
    def test_lateral_controller_parameters(self, cls):
        scn = scenario("s_curve", seed=5)
        controller = {PurePursuitController: "pure_pursuit",
                      StanleyController: "stanley",
                      LqrController: "lqr"}[cls]
        key = prefix_key(spec(scn, controller))
        for name, param in inspect.signature(cls).parameters.items():
            moved = spec(scn, controller,
                         **{name: _perturbed(param.default)})
            assert prefix_key(moved) != key, (cls.__name__, name)

    def test_follower_parameters(self):
        scn = scenario("s_curve", seed=5)
        base = spec(scn)
        key = prefix_key(base)

        def with_follower(**parts):
            f = base.follower
            kwargs = dict(lateral=f.lateral, speed_controller=f.speed_controller,
                          profile=f.profile, acc=f.acc)
            kwargs.update(parts)
            return LaneSpec(scenario=scn, follower=WaypointFollower(**kwargs))

        assert set(inspect.signature(WaypointFollower).parameters) == {
            "lateral", "speed_controller", "profile", "acc"}
        for name, param in inspect.signature(PidSpeedController).parameters.items():
            pid = PidSpeedController(**{name: _perturbed(param.default)})
            assert prefix_key(with_follower(speed_controller=pid)) != key, name
        for f in dataclasses.fields(SpeedProfile):
            profile = dataclasses.replace(
                base.follower.profile,
                **{f.name: _perturbed(getattr(base.follower.profile, f.name))})
            assert prefix_key(with_follower(profile=profile)) != key, f.name
        acc_key = prefix_key(with_follower(acc=AccController()))
        assert acc_key != key
        for f in dataclasses.fields(AccConfig):
            config = AccConfig(**{f.name: _perturbed(getattr(AccConfig(),
                                                             f.name))})
            moved = with_follower(acc=AccController(config))
            assert prefix_key(moved) != acc_key, f.name
