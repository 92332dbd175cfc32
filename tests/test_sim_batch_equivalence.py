"""Differential tests: batched array-native engine vs the serial oracle.

The batch engine (:mod:`repro.sim.batch`) must reproduce the serial
:class:`~repro.sim.engine.SimulationRunner` *exactly* — every trace
column bit for bit, same metrics, same outcome — for any mix of
controllers, attacks, faults and scenarios it accepts.  Two layers of
evidence (mirroring ``test_checker_equivalence.py``):

* property-based streams (hypothesis) drive the batched dynamics and
  EKF primitives against their serial counterparts step by step;
* full closed-loop grids of real runs (attack x fault x controller,
  heterogeneous batches, ACC with radar, the dynamic model) are
  simulated with both engines and compared column by column.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.campaign import standard_attack
from repro.control.acc import AccController
from repro.control.base import make_lateral_controller
from repro.control.estimator import Ekf, EkfConfig
from repro.control.follower import SpeedProfile, WaypointFollower
from repro.control.supervisor import SupervisedController
from repro.faults.campaign import standard_fault
from repro.sim.batch import BatchCompatError, LaneSpec, run_batch
from repro.sim.batch.dynamics import BatchVehicle
from repro.sim.batch.ekf import BatchEkf
from repro.sim.dynamics import VehicleState
from repro.sim.engine import SimulationRunner
from repro.sim.scenario import acc_scenario, standard_scenarios
from repro.sim.vehicle import Vehicle
from repro.trace.schema import Trace


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------

def assert_traces_identical(serial: Trace, batch: Trace) -> None:
    """Every column of the batched trace equals the serial one bitwise."""
    assert len(serial) == len(batch)
    sc, bc = serial.columns(), batch.columns()
    for name in Trace.field_names:
        a, b = sc.get(name), bc.get(name)
        if a.dtype.kind == "f":
            assert np.array_equal(a, b, equal_nan=True), (
                f"column {name!r} differs")
        else:
            assert np.array_equal(a, b), f"column {name!r} differs"


def assert_results_identical(serial, batch) -> None:
    assert_traces_identical(serial.trace, batch.trace)
    assert serial.metrics == batch.metrics
    assert serial.outcome == batch.outcome
    assert serial.controller_name == batch.controller_name
    assert serial.attack_label == batch.attack_label


ONSET = 3.0
"""Injector onset for the closed-loop grids: inside every scenario they
run (8-15 s), unlike the campaign default, so attack and fault lanes
actually exercise the shims instead of running clean."""


def make_spec(scenario, controller="pure_pursuit", attack=None, fault=None,
              supervised=False, ekf_config=None) -> LaneSpec:
    """Fresh LaneSpec (followers are stateful, so every engine run needs
    its own); mirrors :func:`repro.sim.engine.run_scenario` construction."""
    follower = WaypointFollower(
        make_lateral_controller(controller),
        profile=SpeedProfile(cruise_speed=scenario.cruise_speed),
        acc=AccController() if scenario.lead is not None else None,
    )
    if supervised:
        follower = SupervisedController(follower)
    campaign = standard_attack(attack, onset=ONSET) if attack else None
    faults = standard_fault(fault, onset=ONSET) if fault else None
    return LaneSpec(scenario=scenario, follower=follower,
                    campaign=campaign, ekf_config=ekf_config, faults=faults)


def assert_injectors_fired(spec: LaneSpec, trace: Trace) -> None:
    """An attack or fault lane must show its injector active somewhere;
    otherwise the lane is a clean run and the comparison proves nothing
    about the injection paths."""
    cols = trace.columns()
    if spec.campaign is not None and spec.campaign.attacks:
        assert cols.attack_active.any(), (
            f"attack {spec.campaign.label!r} never active")
    if spec.faults is not None and spec.faults.faults:
        assert cols.fault_active.any(), (
            f"fault {spec.faults.label!r} never active")


def run_both(spec_factories) -> list:
    """Simulate the lanes batched and serially; assert bit-identity.

    Returns the batched results."""
    batch_results = run_batch([factory() for factory in spec_factories])
    for factory, batch_result in zip(spec_factories, batch_results):
        spec = factory()
        serial_result = SimulationRunner(
            spec.scenario, spec.follower, spec.campaign,
            spec.ekf_config, faults=spec.faults,
        ).run()
        assert_injectors_fired(spec, serial_result.trace)
        assert_results_identical(serial_result, batch_result)
    return batch_results


# ---------------------------------------------------------------------------
# Property-based primitive streams
# ---------------------------------------------------------------------------

commands = st.tuples(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=-6.0, max_value=4.0, allow_nan=False),
)
command_streams = st.lists(st.lists(commands, min_size=1, max_size=25),
                           min_size=1, max_size=4)


class TestDynamicsStreams:
    """BatchVehicle lanes vs serial Vehicles under arbitrary commands."""

    @pytest.mark.parametrize("model", ["kinematic", "dynamic"])
    @settings(max_examples=40, deadline=None)
    @given(streams=command_streams, data=st.data())
    def test_step_streams_match(self, model, streams, data):
        n = len(streams)
        length = max(len(s) for s in streams)
        # Pad every lane's stream to the batch length by holding the
        # last command (the batch steps all lanes every tick).
        streams = [s + [s[-1]] * (length - len(s)) for s in streams]
        x0 = [data.draw(st.floats(-5, 5, allow_nan=False)) for _ in range(n)]
        yaw0 = [data.draw(st.floats(-3.0, 3.0, allow_nan=False))
                for _ in range(n)]
        v0 = [data.draw(st.floats(0.0, 15.0, allow_nan=False))
              for _ in range(n)]

        serial = [Vehicle(model=model,
                          initial_state=VehicleState(x=x0[i], y=-x0[i],
                                                     yaw=yaw0[i], v=v0[i]))
                  for i in range(n)]
        batch = BatchVehicle(
            n, model,
            x=np.array(x0), y=-np.array(x0),
            yaw=np.array(yaw0), v=np.array(v0),
        )
        dt = 0.05
        for step in range(length):
            for i, vehicle in enumerate(serial):
                vehicle.apply_control(*streams[i][step])
            batch.apply_control(
                np.array([streams[i][step][0] for i in range(n)]),
                np.array([streams[i][step][1] for i in range(n)]),
            )
            states = [vehicle.step(dt) for vehicle in serial]
            batch.step(dt)
            for i, state in enumerate(states):
                assert batch.x[i] == state.x
                assert batch.y[i] == state.y
                assert batch.yaw[i] == state.yaw
                assert batch.v[i] == state.v
                assert batch.vy[i] == state.vy
                assert batch.yaw_rate[i] == state.yaw_rate


ekf_ops = st.lists(
    st.tuples(
        st.sampled_from(["predict", "gps", "speed", "compass"]),
        st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
        st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    ),
    min_size=1, max_size=40,
)


class TestEkfStreams:
    """BatchEkf lanes vs serial Ekf under arbitrary op sequences."""

    @pytest.mark.parametrize("gate_nis", [None, 9.21])
    @settings(max_examples=40, deadline=None)
    @given(ops=ekf_ops)
    def test_op_streams_match(self, gate_nis, ops):
        n = 3
        config = EkfConfig(gate_nis=gate_nis)
        serial = [Ekf(config) for _ in range(n)]
        batch = BatchEkf([config] * n)
        x0 = np.array([0.0, 2.0, -1.5])
        y0 = np.array([1.0, -1.0, 0.5])
        yaw0 = np.array([0.0, 0.7, -2.0])
        v0 = np.array([5.0, 0.0, 9.0])
        for i, ekf in enumerate(serial):
            ekf.reset(x0[i], y0[i], yaw0[i], v0[i])
        batch.reset(x0, y0, yaw0, v0)
        mask = np.ones(n, dtype=bool)
        for op, a, b in ops:
            # Give every lane a distinct measurement stream.
            av = np.array([a + 0.1 * i for i in range(n)])
            bv = np.array([b - 0.2 * i for i in range(n)])
            if op == "predict":
                dt = np.full(n, 0.05)
                for i, ekf in enumerate(serial):
                    ekf.predict(av[i], bv[i], 0.05)
                batch.predict(av, bv, dt, mask)
            elif op == "gps":
                for i, ekf in enumerate(serial):
                    ekf.update_gps(av[i], bv[i])
                batch.update_gps(av, bv, mask)
            elif op == "speed":
                for i, ekf in enumerate(serial):
                    ekf.update_speed(abs(av[i]))
                batch.update_speed(np.abs(av), mask)
            else:
                for i, ekf in enumerate(serial):
                    ekf.update_compass(av[i])
                batch.update_compass(av, mask)
            for i, ekf in enumerate(serial):
                est = ekf.estimate
                assert batch.est_x[i] == est.x
                assert batch.est_y[i] == est.y
                assert batch.est_yaw[i] == est.yaw
                assert batch.est_v[i] == est.v
                assert batch.cov_trace[i] == est.cov_trace
                assert batch.nis_gps[i] == est.nis_gps
                assert batch.nis_speed[i] == est.nis_speed
                assert batch.nis_compass[i] == est.nis_compass


# ---------------------------------------------------------------------------
# Closed-loop differential grids
# ---------------------------------------------------------------------------

def short(name, seed=7, duration=8.0):
    return standard_scenarios(seed=seed, duration=duration)[name]


class TestClosedLoopEquivalence:
    def test_attack_fault_controller_grid(self):
        # One batch covering the attack x fault x controller product the
        # campaign grids exercise (vectorized and object-stepped lanes,
        # injector shims, benign faults and their compositions).
        cases = [
            ("pure_pursuit", None, None),
            ("pure_pursuit", "gps_bias", None),
            ("pure_pursuit", None, "gps_dropout"),
            ("pure_pursuit", "gps_bias", "odom_freeze"),
            ("stanley", "gps_drift", None),
            ("stanley", None, "compass_dropout"),
            ("lqr", "steer_offset", None),
            ("lqr", "odom_scale", "gps_latency"),
            ("mpc", "compass_offset", None),
            ("mpc", None, "gps_intermittent"),
        ]
        run_both([
            (lambda c=c: make_spec(short("s_curve"), controller=c[0],
                                   attack=c[1], fault=c[2]))
            for c in cases
        ])

    def test_heterogeneous_scenarios_rejected(self):
        # Lanes must share dt/step-count/route family; a mixed batch is
        # a loud error, not silently wrong physics.
        specs = [make_spec(short("s_curve")),
                 make_spec(short("straight", duration=12.0))]
        with pytest.raises(BatchCompatError):
            run_batch(specs)

    def test_supervised_and_gated_lanes(self):
        gated = EkfConfig(gate_nis=9.21)
        run_both([
            lambda: make_spec(short("curve"), supervised=True),
            lambda: make_spec(short("curve"), supervised=True,
                              fault="gps_dropout"),
            lambda: make_spec(short("curve"), attack="gps_bias",
                              ekf_config=gated),
            lambda: make_spec(short("curve"), controller="stanley"),
        ])

    def test_seed_diversity(self):
        # Same scenario geometry, different noise tapes per lane.
        run_both([
            (lambda s=s: make_spec(short("lane_change", seed=s)))
            for s in (1, 7, 42)
        ])

    def test_dynamic_model_closed_route(self):
        run_both([
            lambda: make_spec(short("urban_loop", duration=12.0)),
            lambda: make_spec(short("urban_loop", duration=12.0),
                              controller="stanley"),
            lambda: make_spec(short("urban_loop", duration=12.0),
                              attack="imu_gyro_bias"),
        ])

    def test_full_lap_crosses_the_seam(self):
        # urban_loop is 369 m; 56 s at up to 8 m/s laps it, so both engines
        # project across station 0 mid-run with hinted, wrapped windows.
        specs = [
            lambda: make_spec(short("urban_loop", duration=56.0)),
            lambda: make_spec(short("urban_loop", duration=56.0),
                              controller="stanley"),
            lambda: make_spec(short("urban_loop", duration=56.0),
                              attack="gps_drift"),
        ]
        for result in run_both(specs):
            station = result.trace.columns().station_true
            assert (np.diff(station) < -300.0).any(), "no lane lapped"

    def test_acc_with_lead_and_radar(self):
        scenarios = [acc_scenario(seed=s, duration=15.0) for s in (3, 3, 9)]
        run_both([
            lambda: make_spec(scenarios[0]),
            lambda: make_spec(scenarios[1], attack="radar_ghost"),
            lambda: make_spec(scenarios[2], fault="radar_dropout"),
        ])

    def test_single_lane_batch(self):
        run_both([lambda: make_spec(short("straight"))])


class TestGridRunnerEquivalence:
    def test_run_grid_batch_matches_serial(self, tmp_path, monkeypatch):
        from repro.experiments.runner import clear_cache, run_grid
        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))

        grid = dict(
            scenarios=("s_curve",), controllers=("pure_pursuit", "mpc"),
            attacks=("none", "gps_bias"), seeds=(1, 7), duration=8.0,
        )
        clear_cache(disk=True)
        serial = run_grid(sim_engine="serial", **grid)
        clear_cache(disk=True)
        batch = run_grid(sim_engine="batch", **grid)
        assert len(serial) == len(batch) == 8
        for a, b in zip(serial, batch):
            assert (a.scenario, a.controller, a.attack, a.seed) == \
                   (b.scenario, b.controller, b.attack, b.seed)
            assert_traces_identical(a.result.trace, b.result.trace)
            assert a.result.metrics == b.result.metrics
            # Verdicts (and therefore diagnoses) must not drift either.
            assert dataclasses.asdict(a.report) == dataclasses.asdict(b.report)

    def test_run_grid_batch_stats(self, tmp_path, monkeypatch):
        from repro.experiments.runner import clear_cache, run_grid
        from repro.experiments.stats import STATS
        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))

        clear_cache(disk=True)
        run_grid(scenarios=("straight",), controllers=("pure_pursuit",),
                 attacks=("none", "gps_bias"), seeds=(1, 2), duration=8.0,
                 sim_engine="batch")
        stats = STATS.last
        assert stats.sim_engine == "batch"
        assert stats.batch_groups == 1
        assert stats.batch_points == 4
        assert stats.batch_fallbacks == 0

    def test_run_grid_batch_falls_back_on_engine_failure(
            self, tmp_path, monkeypatch):
        # A batch engine crash must degrade to the serial path, not lose
        # the campaign.
        import repro.experiments.runner as runner_mod
        import repro.sim.batch as batch_mod
        from repro.experiments.stats import STATS
        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))

        def explode(specs):
            raise RuntimeError("batch engine down")

        # execute() looks the engine up on repro.sim.batch at call time.
        monkeypatch.setattr(batch_mod, "run_batch", explode)
        runner_mod.clear_cache(disk=True)
        runs = runner_mod.run_grid(
            scenarios=("straight",), controllers=("pure_pursuit",),
            attacks=("none", "gps_bias"), seeds=(1,), duration=8.0,
            sim_engine="batch")
        assert len(runs) == 2
        assert STATS.last.batch_fallbacks == 1
        assert STATS.last.batch_points == 0

    def test_choose_sim_engine_validates_names(self, monkeypatch):
        from repro.experiments.runner import choose_sim_engine
        monkeypatch.delenv("ADASSURE_SIM", raising=False)
        assert choose_sim_engine("batch")[0] == "batch"
        monkeypatch.setenv("ADASSURE_SIM", "batch")
        assert choose_sim_engine()[0] == "batch"
        assert choose_sim_engine("serial")[0] == "serial"
        with pytest.raises(ValueError):
            choose_sim_engine("warp")
        monkeypatch.setenv("ADASSURE_SIM", "warp")
        with pytest.raises(ValueError):
            choose_sim_engine()
