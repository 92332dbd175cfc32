"""Import budget: each launch imports only what its command runs.

Every check runs in a fresh interpreter: the test process itself has long
since imported everything.  The budgets:

* scipy loads only when an LQR or MPC lane solves.  Checks, cached
  campaigns, ``explain`` on a warm store and the monitoring service never
  solve a DARE or a QP.
* ``import repro`` loads no sub-package: package exports are lazy.
* Building the CLI parser and importing the server load no simulator,
  controller, experiment module or scipy, so ``adassure serve`` starts on
  the service's own imports.  A streamed session then imports nothing:
  the server loads its whole request path before it listens.
* The campaign runner does not load the lockstep engine until a run
  reaches it, and ``experiment`` refuses an unknown id without loading
  any experiment.

With ``PYTHONDONTWRITEBYTECODE=1`` every launch compiles what it imports,
so each module kept off a path is launch time saved.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

PRELUDE = textwrap.dedent("""
    import sys

    def loaded(*prefixes):
        return sorted(m for m in sys.modules
                      if any(m == p or m.startswith(p + ".")
                             for p in prefixes))
""")

NOT_ON_THE_SERVE_PATH = ("repro.sim.engine", "repro.sim.batch",
                         "repro.control", "repro.experiments", "scipy")


def _run(script: str) -> None:
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok"), proc.stdout


def test_scipy_loads_only_at_first_solve():
    _run("""
        import importlib

        import repro.cli, repro.service.server  # noqa: E401
        from repro.experiments import ALL_EXPERIMENTS

        # Everything a cached campaign, ``explain`` or a check launch
        # loads: the controllers, both engines, the runner, the
        # counterfactual search and every experiment builder.
        for name in ("repro.control", "repro.sim", "repro.experiments"):
            package = importlib.import_module(name)
            for public in package.__all__:
                getattr(package, public)
        for name in ("repro.control.lqr", "repro.control.mpc",
                     "repro.sim.engine", "repro.sim.batch",
                     "repro.experiments.runner"):
            importlib.import_module(name)
        builders = [ALL_EXPERIMENTS[exp_id] for exp_id in ALL_EXPERIMENTS]
        assert all(callable(build) for build in builders)
        assert "repro.experiments.e14_degradation" in sys.modules
        assert not loaded("scipy"), loaded("scipy")

        from repro.control.lqr import LqrController
        from repro.control.mpc import MpcController
        from repro.geom.routes import straight_route
        from repro.geom.vec import Pose, Vec2

        gain = LqrController()._gain(8.0, 0.05)
        assert gain.shape == (1, 2), gain.shape
        assert "scipy.linalg" in sys.modules

        decision = MpcController().compute_steer(
            Pose(Vec2(0.0, 1.0), 0.0), 8.0, straight_route(), 0.05)
        assert decision.steer < 0.0, decision  # left of the path: steer right
        assert "scipy.optimize" in sys.modules
        print("ok")
    """)


def test_import_repro_loads_no_subpackage():
    _run("""
        import repro

        assert repro.__version__
        extra = [m for m in loaded("repro") if m not in ("repro", "repro._lazy")]
        assert not extra, extra
        print("ok")
    """)


def test_parser_and_server_load_no_simulator():
    _run(f"""
        from repro.cli import build_parser

        build_parser()
        import repro.service.server  # noqa: F401
        bad = loaded(*{NOT_ON_THE_SERVE_PATH!r})
        assert not bad, bad
        print("ok")
    """)


def test_runner_does_not_load_batch_engine():
    _run("""
        import repro.experiments.runner  # noqa: F401
        assert not loaded("repro.sim.batch"), loaded("repro.sim.batch")
        print("ok")
    """)


def test_unknown_experiment_is_refused_before_any_import():
    _run(r"""
        import contextlib, io, re

        from repro.cli import main

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["experiment", "none"]) == 2
        assert "unknown experiment" in err.getvalue()
        bad = [m for m in loaded("repro.experiments", "repro.sim.batch")
               if re.fullmatch(r"repro\.experiments\.e\d+_\w+", m)
               or m.startswith("repro.sim.batch")]
        assert not bad, bad
        print("ok")
    """)


def test_a_served_session_imports_nothing():
    _run(f"""
        import asyncio, tempfile

        from repro.cli import build_parser
        from repro.service.client import stream_trace
        from repro.service.server import ServerConfig, TraceIngestServer
        from repro.trace.schema import Trace, TraceMeta, TraceRecord

        build_parser()
        trace = Trace(TraceMeta(scenario="synthetic", controller="test",
                                dt=0.05))
        for step in range(120):
            # GPS freezes away from the estimate: assertions fire.
            trace.append(TraceRecord(step=step, t=0.05 * step,
                                     true_x=0.4 * step, true_v=8.0,
                                     gps_x=5.0, gps_fresh=True))

        async def session():
            with tempfile.TemporaryDirectory() as store:
                server = TraceIngestServer(ServerConfig(store_dir=store))
                await server.start()
                before = set(sys.modules)
                outcome = await stream_trace(trace, "127.0.0.1", server.port,
                                             "veh-1", chunk_records=50)
                after = set(sys.modules)
                await server.stop()
            return outcome, sorted(after - before)

        outcome, imported = asyncio.run(session())
        assert outcome.verdict["n_records"] == 120, outcome.verdict
        assert not imported, imported
        assert not loaded(*{NOT_ON_THE_SERVE_PATH!r})
        print("ok")
    """)
