"""ADAssure benchmark: ``campaign``, ``explain`` and ``serve``.

    python3 perfbench/run.py --workload serve --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  Every workload drives the program
from outside (CLI subprocesses and the service client) in a sandbox
under ``.perfbench-work/``, checks every output, and prints one JSON
line last: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import checks, workloads  # noqa: E402


def _spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def _host(root: Path) -> dict:
    """Provenance: core count, code identity, interpreter and NumPy.

    Outside a git repository the code is identified by a digest of the
    ``src/`` tree instead of a commit.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    tree = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        tree.update(path.relative_to(root).as_posix().encode())
        tree.update(path.read_bytes())
    import numpy

    return {"nproc": os.cpu_count(), "git_sha": sha,
            "src_sha256": tree.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from a checkout root (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(root / "src"))
    spec = _spec(root)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = root / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    ctx = workloads.Context(root=root, work=work, seed=args.seed,
                            seconds=args.seconds, traced=bool(args.trace))
    correct = True
    try:
        work.mkdir(parents=True)
        outcome = workloads.WORKLOADS[args.workload](ctx)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not correct:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    missing = {m["name"] for m in wanted} ^ set(outcome.metrics)
    if missing:
        raise SystemExit(f"metric set differs from BENCHMARK.json: {missing}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "host": _host(root), **outcome.info}))
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": outcome.metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
