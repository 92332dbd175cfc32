"""Recompute the pinned output digests in ``perfbench/expected.json``.

    python3 perfbench/pin.py

Run from a checkout root after a deliberate behaviour change; the
benchmark fails every run whose output differs from these pins: the
campaign tables of every campaign seed and the report projection of
every explain subject seed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import checks, proc, workloads  # noqa: E402


def main() -> int:
    root = Path.cwd()
    sys.path.insert(1, str(root / "src"))
    work = root / ".perfbench-work" / f"pin-{os.getpid()}"
    ctx = workloads.Context(root=root, work=work, seed=0, seconds=0,
                            traced=False)
    pins = {"campaign": {}, "explain": {}}
    try:
        work.mkdir(parents=True)
        for seed in workloads.CAMPAIGN_SEEDS:
            p = proc.run_pass(
                ["experiment", "all", "--quick", "--seeds", str(seed)],
                ctx.env(ctx.fresh_dir(f"campaign-{seed}")), work)
            if p.returncode != 0:
                raise SystemExit(p.stderr)
            pins["campaign"][str(seed)] = checks.campaign_digest(p.stdout)
        for seed in workloads.EXPLAIN_SEEDS:
            projection, _ = workloads._explain_projection(
                ctx.fresh_dir(f"explain-{seed}"), seed)
            pins["explain"][str(seed)] = checks.digest(projection)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.EXPECTED_PATH.write_text(json.dumps(pins, indent=2) + "\n",
                                    encoding="utf-8")
    print(json.dumps(pins, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
