"""Run one ``adassure`` command with the layer tracer installed.

    python perfbench/launch.py OUT_DIR <adassure arguments...>

Installs the wrappers from :mod:`perfbench.layers`, runs the command
through ``repro.cli.main`` exactly as ``python -m repro.cli`` would,
restores the originals, and writes the process's snapshot (plus the
campaign counters) to ``OUT_DIR/layers-<pid>.json``.  Forked children
(the server's shard workers) write their own snapshots into the same
directory.  ``repro`` must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import layers  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    out_dir, cli_args = Path(argv[0]), argv[1:]
    from repro import cli

    tracer = Tracer()
    layers.install(tracer)
    tracer.follow_forks(out_dir)
    try:
        rc = cli.main(cli_args)
    finally:
        tracer.restore()
        tracer.dump(out_dir / f"layers-{os.getpid()}.json",
                    {"campaign": layers.campaign_counters()})
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
