"""``CheckReport.restricted`` is exact, and E8/E9 lean on it.

The checker evaluates every assertion on its own, so a full-catalog
report projected onto a subset must equal a fresh check with that
subset — summaries, episode order and all.  E8 and the E9 refinement
loop replace their per-stage re-checks with that projection, so with a
warm store they must not call the checker at all.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro.attacks.campaign import standard_attack
from repro.core.catalog import CATALOG_STAGES, default_catalog
from repro.core.checker import check_trace
from repro.core.methodology import AnomalyCase, RefinementLoop
from repro.experiments import ExperimentConfig
from repro.experiments.e8_ablation import build_assertion_ablation
from repro.experiments.e9_refinement import build_refinement_loop
from repro.experiments.runner import clear_cache
from repro.faults.campaign import combined_fault, standard_fault
from repro.sim.engine import run_scenario
from repro.sim.scenario import acc_scenario, standard_scenarios

ONSET = 6.0

RUNS = {
    # name: (scenario, run_scenario kwargs, ids that must fire)
    "gps_bias": ("s_curve",
                 dict(campaign=standard_attack("gps_bias", onset=ONSET)),
                 {"A1", "A4", "A5"}),
    "steer_offset": ("s_curve",
                     dict(campaign=standard_attack("steer_offset",
                                                   onset=ONSET)),
                     {"A16"}),
    "radar_scale": ("acc",
                    dict(campaign=standard_attack("radar_scale",
                                                  onset=ONSET)),
                    {"A18", "A19"}),
    "gps_freeze": ("s_curve",
                   dict(faults=standard_fault("gps_freeze", onset=ONSET)),
                   {"A21"}),
    "gps+compass_dropout": ("s_curve",
                            dict(faults=combined_fault(
                                ["gps_dropout", "compass_dropout"],
                                onset=ONSET)),
                            {"A22"}),
    "clean": ("straight", {}, set()),
}


def _prefixes():
    ids: list[str] = []
    for stage, stage_ids in CATALOG_STAGES.items():
        ids.extend(stage_ids)
        yield stage, tuple(ids)


PREFIXES = dict(_prefixes())


@pytest.fixture(scope="module")
def traces():
    out = {}
    for name, (scenario_name, kwargs, _) in RUNS.items():
        if scenario_name == "acc":
            scenario = acc_scenario(seed=7, duration=20.0)
        elif scenario_name == "straight":
            scenario = standard_scenarios(seed=7)["straight"]
        else:
            scenario = standard_scenarios(seed=7, duration=20.0)[scenario_name]
        out[name] = run_scenario(scenario, controller="pure_pursuit",
                                 **kwargs).trace
    return out


@pytest.mark.parametrize("name", list(RUNS))
def test_runs_fire_what_they_cover(traces, name):
    fired = set(check_trace(traces[name]).fired_ids)
    assert RUNS[name][2] <= fired
    if not RUNS[name][2]:
        assert not fired


@pytest.mark.parametrize("stage", list(PREFIXES))
@pytest.mark.parametrize("name", list(RUNS))
def test_projection_equals_subset_check(traces, name, stage):
    trace = traces[name]
    ids = PREFIXES[stage]
    projected = check_trace(trace).restricted(ids)
    rechecked = check_trace(trace, default_catalog(ids))
    assert projected.to_dict() == rechecked.to_dict()
    assert list(projected.summaries) == list(ids)


def test_projection_keeps_requested_order_and_rejects_unknown(traces):
    report = check_trace(traces["gps_bias"])
    assert list(report.restricted(("A5", "A1")).summaries) == ["A5", "A1"]
    with pytest.raises(KeyError):
        report.restricted(("A99",))


def test_refinement_loop_projection_matches_per_stage_checks(traces):
    causes = {"gps_bias": "gps_bias", "steer_offset": "steer_offset",
              "clean": "none"}
    bare = [AnomalyCase(trace=traces[name], true_cause=cause)
            for name, cause in causes.items()]
    projected = RefinementLoop(bare).run()
    loop = RefinementLoop(bare)
    rechecked = [[loop.analyze_case(case, iteration.assertion_ids)
                  for case in bare] for iteration in projected]
    assert [it.gaps for it in projected] == rechecked
    with_reports = [dataclasses.replace(case, report=check_trace(case.trace))
                    for case in bare]
    assert ([it.gaps for it in RefinementLoop(with_reports).run()]
            == rechecked)


SMALL = dataclasses.replace(
    ExperimentConfig.quick(), scenario="s_curve",
    attacks=("gps_bias", "steer_offset"), duration=20.0, attack_onset=ONSET)


@pytest.fixture()
def fresh_store(tmp_path, monkeypatch):
    monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("ADASSURE_CACHE", raising=False)
    clear_cache()
    yield tmp_path
    clear_cache()


@pytest.fixture()
def check_counter(monkeypatch):
    """Counts every ``check_trace`` call, under any by-name import."""
    calls = []
    original = check_trace

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "check_trace", None) is original):
            monkeypatch.setattr(module, "check_trace", counting)
    return calls


@pytest.mark.parametrize("layer", ["memo", "disk"])
@pytest.mark.parametrize("build", [build_assertion_ablation,
                                   build_refinement_loop])
def test_warm_store_checks_nothing(fresh_store, check_counter, build, layer):
    cold = build(SMALL).render()
    assert check_counter  # the cold pass checked its grid runs
    if layer == "disk":
        clear_cache()
    check_counter.clear()
    assert build(SMALL).render() == cold
    assert check_counter == []
