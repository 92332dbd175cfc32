"""Small lockstep groups, batch vs serial, bit for bit.

A group of one or two rows pays almost nothing but the per-step fixed
cost of the batch loop, so that is where the loop's shortcuts live: the
ground-truth projection shares the lateral controllers' first kernel call,
a group of vector rows skips the gather and scatter around the follower,
a shim row runs only the channels that have an injector, and attack and
fault labels come from the injectors' windows.  Every lane must still
equal the serial :class:`~repro.sim.engine.SimulationRunner` on every
trace column, metric, outcome and assertion verdict.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.attacks.base import AttackWindow
from repro.attacks.campaign import AttackCampaign, standard_attack
from repro.attacks.gps import GpsBiasAttack
from repro.control.acc import AccController
from repro.control.base import make_lateral_controller
from repro.control.estimator import EkfConfig
from repro.control.follower import SpeedProfile, WaypointFollower
from repro.control.supervisor import SupervisedController
from repro.core.checker import check_trace
from repro.faults.campaign import standard_fault
from repro.sim.batch import LaneSpec, run_batch
from repro.sim.batch.engine import batch_counters
from repro.sim.engine import SimulationRunner
from repro.sim.scenario import acc_scenario, standard_scenarios
from repro.trace.schema import Trace

VECTOR = ("pure_pursuit", "stanley", "lqr")
ONSET = 3.0


class PulsedGpsBias(GpsBiasAttack):
    """A GPS bias with its own ``active``: on for every other half second
    of its window, so the engine must ask it at every step."""

    name = "gps_bias_pulsed"

    def active(self, t: float) -> bool:
        return super().active(t) and int(t * 2.0) % 2 == 0


def scenario(name="urban_loop", seed=301, duration=8.0):
    return standard_scenarios(seed=seed, duration=duration)[name]


def spec(scn, controller="pure_pursuit", attack=None, fault=None,
         campaign=None, ekf_config=None, supervised=False) -> LaneSpec:
    follower = WaypointFollower(
        make_lateral_controller(controller),
        profile=SpeedProfile(cruise_speed=scn.cruise_speed),
        acc=AccController() if scn.lead is not None else None,
    )
    if supervised:
        follower = SupervisedController(follower)
    if attack is not None:
        campaign = standard_attack(attack, onset=ONSET)
    faults = standard_fault(fault, onset=ONSET) if fault else None
    return LaneSpec(scenario=scn, follower=follower, campaign=campaign,
                    ekf_config=ekf_config, faults=faults)


def assert_identical(serial, batch) -> None:
    assert len(serial.trace) == len(batch.trace)
    sc, bc = serial.trace.columns(), batch.trace.columns()
    for name in Trace.field_names:
        a, b = np.asarray(sc.get(name)), np.asarray(bc.get(name))
        if a.dtype.kind == "f":
            assert a.tobytes() == b.astype(a.dtype).tobytes(), name
        else:
            assert np.array_equal(a, b), name
    assert serial.metrics == batch.metrics
    assert serial.outcome == batch.outcome
    assert serial.controller_name == batch.controller_name
    assert serial.attack_label == batch.attack_label
    assert (dataclasses.asdict(check_trace(serial.trace))
            == dataclasses.asdict(check_trace(batch.trace)))


def run_both(factories) -> dict:
    """Batch fresh lanes, compare each with a serial run of a fresh copy;
    return the call's lane-step counter deltas."""
    before = batch_counters()
    results = run_batch([make() for make in factories])
    after = batch_counters()
    assert len(results) == len(factories)
    for make, batch in zip(factories, results):
        s = make()
        serial = SimulationRunner(s.scenario, s.follower, s.campaign,
                                  s.ekf_config, faults=s.faults).run()
        assert_identical(serial, batch)
    return {name: after[name] - before[name]
            for name in ("lane_steps_simulated", "lane_steps_requested")}


# ---------------------------------------------------------------------------
# One and two rows of each vectorized follower
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("route", ["urban_loop", "s_curve"])
@pytest.mark.parametrize("controller", VECTOR)
def test_one_lane(controller, route):
    scn = scenario(route, seed=311)
    run_both([lambda: spec(scn, controller)])


@pytest.mark.parametrize("route", ["urban_loop", "s_curve"])
@pytest.mark.parametrize("controller", VECTOR)
def test_two_lanes(controller, route):
    # A clean lane and one that forks off it: one row, then two.
    scn = scenario(route, seed=312)
    counts = run_both([
        lambda: spec(scn, controller),
        lambda: spec(scn, controller, attack="gps_drift"),
    ])
    assert counts["lane_steps_simulated"] < counts["lane_steps_requested"]


@pytest.mark.parametrize("controller", VECTOR)
def test_one_lane_to_the_goal(controller):
    # A short open route driven to its end: the goal latch and the
    # stopping profile.
    scn = scenario("straight", seed=313, duration=45.0)
    scn = dataclasses.replace(scn, route=type(scn.route)(
        scn.route.points[:81]))
    results = run_batch([spec(scn, controller)])
    assert results[0].trace.columns().target_speed[-1] == 0.0
    run_both([lambda: spec(scn, controller)])


def test_one_lane_with_a_lead():
    scn = acc_scenario(seed=314, duration=12.0)
    run_both([lambda: spec(scn, "stanley")])
    run_both([lambda: spec(scn, "pure_pursuit", attack="radar_ghost"),
              lambda: spec(scn, "lqr", fault="radar_dropout")])


# ---------------------------------------------------------------------------
# Mixed groups
# ---------------------------------------------------------------------------

def test_mixed_followers_in_one_group():
    # One lateral group per follower type: the stacked first projection
    # spans all of them, and the truth query follows.
    scn = scenario(seed=321)
    run_both([
        lambda: spec(scn, "pure_pursuit"),
        lambda: spec(scn, "stanley", attack="steer_offset"),
        lambda: spec(scn, "lqr"),
        lambda: spec(scn, "stanley"),
    ])


def test_object_row_next_to_a_vector_row():
    scn = scenario(seed=322)
    run_both([lambda: spec(scn, "mpc"), lambda: spec(scn, "stanley")])


def test_object_rows_only():
    # No vector row: the truth query is projected on its own.
    scn = scenario(seed=323)
    run_both([lambda: spec(scn, "mpc")])
    run_both([lambda: spec(scn, "mpc"),
              lambda: spec(scn, "pure_pursuit", supervised=True)])


@pytest.mark.parametrize("width", [1, 2])
def test_gated_ekf_lane(width):
    scn = scenario(seed=330 + width)
    gated = EkfConfig(gate_nis=9.21)
    lanes = [lambda: spec(scn, "stanley", attack="gps_bias",
                          ekf_config=gated),
             lambda: spec(scn, "lqr", ekf_config=gated)]
    run_both(lanes[:width])


# ---------------------------------------------------------------------------
# Shim rows
# ---------------------------------------------------------------------------

def test_injector_with_its_own_active():
    # Labels of a lane whose attack overrides ``active`` are asked for at
    # every step; a window-only fault on the same lane is not.
    scn = scenario(seed=341)

    def lane():
        pulsed = AttackCampaign(
            label="pulsed",
            attacks=[PulsedGpsBias(offset_x=3.0, offset_y=-2.0,
                                   window=AttackWindow(ONSET))])
        return spec(scn, "stanley", campaign=pulsed, fault="compass_dropout")

    run_both([lane])
    active = run_batch([lane()])[0].trace.columns().attack_active
    assert active.any() and not active[np.flatnonzero(active)[0]:].all()


def test_command_channel_and_supervisor_rows():
    scn = scenario("s_curve", seed=342)
    run_both([
        lambda: spec(scn, "pure_pursuit", attack="cmd_delay"),
        lambda: spec(scn, "stanley", fault="gps_dropout", supervised=True),
        lambda: spec(scn, "lqr", attack="steer_offset",
                     fault="odom_freeze"),
    ])


# ---------------------------------------------------------------------------
# A group resumed from a prefix snapshot
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("controller", VECTOR)
def test_resumed_small_group(controller):
    scn = scenario(seed={"pure_pursuit": 351, "stanley": 352,
                         "lqr": 353}[controller])
    n = scn.num_steps
    k = int(np.flatnonzero(np.arange(n) * scn.dt >= ONSET)[0])
    run_both([lambda: spec(scn, controller, attack="gps_bias")])
    # A later group of the same class resumes at the stored step k.
    counts = run_both([
        lambda: spec(scn, controller, attack="gps_freeze"),
        lambda: spec(scn, controller, fault="odom_freeze"),
    ])
    assert counts["lane_steps_simulated"] == 2 * (n - k)
    # A clean lane alone resumes too: a one-row group from step k.
    counts = run_both([lambda: spec(scn, controller)])
    assert counts["lane_steps_simulated"] == n - k
