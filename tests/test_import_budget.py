"""Import budget: scipy loads only when an LQR or MPC lane solves.

Checks, cached campaigns, ``explain`` on a warm store and the monitoring
service never solve a DARE or a QP, so no CLI launch, server or shard
should pay for importing scipy.  The check runs in a fresh interpreter:
the test process itself has long since imported everything.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

SCRIPT = textwrap.dedent("""
    import sys

    def scipy_loaded():
        return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

    import repro.cli, repro.service.server, repro.experiments  # noqa: E401
    assert not scipy_loaded(), "scipy imported at launch"

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


def test_scipy_loads_only_at_first_solve():
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
