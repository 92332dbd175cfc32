"""CI smoke scenario for the streaming service.

One server, two concurrent sessions built from *real* closed-loop
simulations (not synthetic records): a nominal run and a GPS-drift
attacked run.  The attacked session is forced through a mid-stream
disconnect and resume.  Both verdicts must be byte-identical to offline
:func:`check_trace`, and the fleet aggregates must reflect exactly the
two sessions.

CI runs this file as its own job step under a hard timeout — if the
service deadlocks (a lost wakeup in backpressure, a resume loop), the
job fails by timeout rather than hanging the pipeline.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.attacks.campaign import standard_attack
from repro.core.checker import check_trace
from repro.service.client import fetch_status, stream_trace
from repro.service.loadgen import generate_fleet_traces
from repro.sim.engine import run_scenario

from service_utils import reference_verdict, serving
from conftest import short_scenario


@pytest.fixture(scope="module")
def fleet_traces():
    scenario = short_scenario("s_curve", seed=11, duration=20.0)
    nominal = run_scenario(scenario).trace
    attacked = run_scenario(
        scenario, campaign=standard_attack("gps_drift", onset=8.0)).trace
    return nominal, attacked


def test_two_session_smoke(fleet_traces, tmp_path):
    nominal, attacked = fleet_traces

    async def go():
        async with serving(tmp_path) as server:
            outcomes = await asyncio.gather(
                stream_trace(nominal, "127.0.0.1", server.port,
                             "smoke-nominal", chunk_records=64),
                stream_trace(attacked, "127.0.0.1", server.port,
                             "smoke-attacked", chunk_records=64,
                             disconnect_after_chunks=2),
            )
            status = await fetch_status("127.0.0.1", server.port)
            return outcomes, status

    (out_nominal, out_attacked), status = asyncio.run(go())

    # verdicts byte-identical to the offline oracle
    assert out_nominal.verdict["report"] == check_trace(nominal).to_dict()
    assert out_attacked.verdict["report"] == check_trace(attacked).to_dict()

    # the disconnected session really took the resume path
    assert out_attacked.reconnects >= 1
    assert status["counters"]["suspends"] >= 1
    assert status["counters"]["resumes"] >= 1

    # exactly one verdict per session, fleet view consistent
    assert status["counters"]["verdicts_issued"] == 2
    assert status["fleet"]["sessions_completed"] == 2
    assert out_attacked.verdict["any_fired"] is True
    assert out_attacked.verdict["top_cause"] is not None


def test_smoke_verdict_replay_after_restart(fleet_traces, tmp_path):
    """Second half of the CI scenario: restart the server on the same
    store and ask for the attacked session's verdict again."""
    nominal, attacked = fleet_traces

    async def first():
        async with serving(tmp_path) as server:
            await stream_trace(attacked, "127.0.0.1", server.port,
                               "smoke-replay", chunk_records=64)

    async def second():
        async with serving(tmp_path) as server:
            return await stream_trace(attacked, "127.0.0.1", server.port,
                                      "smoke-replay", chunk_records=64)

    asyncio.run(first())
    outcome = asyncio.run(second())
    assert outcome.resumed_finished, "verdict must come from the store"
    assert outcome.chunks_sent == 0
    assert outcome.verdict["report"] == check_trace(attacked).to_dict()


def test_fleet_off_the_grid_gets_one_verdict_per_session(tmp_path):
    """Fleet traces off the experiment grid carry the engine that made
    them, and a concurrent fleet of them gets one verdict per session,
    each dict-equal to the offline reference."""
    traces, provenance = generate_fleet_traces(4, duration=10.0)
    assert provenance["sim_engine"] in ("serial", "batch")

    async def go():
        async with serving(tmp_path) as server:
            outcomes = await asyncio.gather(*[
                stream_trace(trace, "127.0.0.1", server.port,
                             f"fleet-{i}", chunk_records=64)
                for i, trace in enumerate(traces)])
            status = await fetch_status("127.0.0.1", server.port)
            return outcomes, status

    outcomes, status = asyncio.run(go())
    assert status["fleet"]["verdict_latency_s"]["n"] == len(traces) == 4
    assert status["counters"]["verdicts_issued"] == 4
    for trace, outcome in zip(traces, outcomes):
        assert outcome.verdict == reference_verdict(trace)
