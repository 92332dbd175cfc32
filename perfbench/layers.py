"""The layer table: which public callables make up each layer.

Each entry names a layer and the callables timed as that layer.  A
``Class.method`` target is wrapped on the class that defines it; a bare
function is wrapped on its module and on every by-name import of it.
The table mirrors the layer -> metric -> workload map in
``perfbench/README.md``.
"""

from __future__ import annotations

import importlib

# Catalog assertion ids, fixed here so the metric names do not depend on
# the code under test.
ASSERTION_IDS = (
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9G", "A9S", "A9C",
    "A10", "A11", "A12", "A13", "A14", "A15", "A16", "A17", "A18", "A19",
    "A20", "A21", "A22",
)

# (layer, module, targets)
TIMED = (
    ("sim.batch.project", "repro.sim.batch.route", ("BatchRoute.project",)),
    ("sim.batch.control", "repro.sim.batch.controllers",
     ("BatchFollower.decide",)),
    ("sim.batch.ekf", "repro.sim.batch.ekf",
     ("BatchEkf.predict", "BatchEkf.update_gps", "BatchEkf.update_speed",
      "BatchEkf.update_compass")),
    ("sim.batch.dynamics", "repro.sim.batch.dynamics",
     ("BatchVehicle.step", "BatchVehicle.apply_control")),
    ("sim.batch.tapes", "repro.sim.batch.noise", ("build_lane_tapes",)),
    ("sim.batch.shim", "repro.control.supervisor",
     ("SupervisedController.filter_readings",)),
    ("sim.batch.loop", "repro.sim.batch.engine", ("run_batch",)),
    ("trace.emit", "repro.trace.schema", ("Trace.from_columns",)),
    ("trace.emit", "repro.trace.metrics", ("compute_metrics",)),
    ("geom.project", "repro.geom.polyline", ("Polyline.project",)),
    ("control.decide", "repro.control.follower", ("WaypointFollower.decide",)),
    ("control.decide", "repro.control.supervisor",
     ("SupervisedController.decide",)),
    ("control.ekf", "repro.control.estimator",
     ("Ekf.predict", "Ekf.update_gps", "Ekf.update_speed",
      "Ekf.update_compass")),
    ("sim.serial.dynamics", "repro.sim.vehicle", ("Vehicle.step",)),
    ("sim.serial.loop", "repro.sim.engine", ("SimulationRunner.run",)),
    ("check.report", "repro.core.monitor", ("build_report",)),
    ("diagnosis.diagnose", "repro.core.diagnosis", ("diagnose",)),
    ("store.encode", "repro.trace.io", ("trace_to_npz_bytes",)),
    ("store.write", "repro.experiments.cache", ("RunCache.store",)),
    ("store.decode", "repro.trace.io", ("trace_from_bytes",)),
    ("store.read", "repro.experiments.cache", ("RunCache.load",)),
    ("probe.prefetch", "repro.experiments.counterfactual",
     ("ProbeEngine.prefetch",)),
    ("probe.outcome", "repro.experiments.counterfactual",
     ("ProbeEngine.outcome",)),
    ("service.frame", "repro.service.protocol", ("read_frame",)),
    ("service.chunk_decode", "repro.service.session", ("records_from_chunk",)),
    ("service.monitor_feed", "repro.core.monitor", ("OnlineMonitor.feed",)),
    ("service.checkpoint", "repro.service.session",
     ("SessionState.assemble_bytes",)),
    ("service.checkpoint", "repro.service.store", ("SessionStore.save",)),
    ("service.score", "repro.service.shards", ("ShardPool.score",)),
)

AWAITED = {"service.score"}
"""Coroutine layers timed from call to completion, waiting included."""

SHIM_HOOK_PREFIXES = ("on_", "observe")
"""Attack/fault methods timed as ``sim.batch.shim`` (plus ``active``)."""

TIMED_LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TIMED))

DERIVED = (
    ("store.hit_ratio", "ratio"),
    ("runner.batched_share", "ratio"),
    ("probe.useful_ratio", "ratio"),
    ("service.busy", "count"),
    ("trace.overhead_s", "s"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    metrics = []
    for layer in TIMED_LAYERS:
        metrics.append((f"{layer}.self_s", "s"))
        metrics.append((f"{layer}.calls", "count"))
    metrics.extend((f"check.{aid}.self_s", "s") for aid in ASSERTION_IDS)
    metrics.extend(DERIVED)
    return metrics


def _count_hit(tracer, result) -> None:
    if result is not None:
        tracer.counts["store.hits"] += 1


def _resolve(module, target: str):
    owner_name, _, attr = target.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, attr


def install(tracer) -> None:
    """Wrap every layer's callables on ``tracer``."""
    for layer, module_name, targets in TIMED:
        module = importlib.import_module(module_name)
        for target in targets:
            owner, attr = _resolve(module, target)
            opts = {"awaited": layer in AWAITED}
            if layer == "store.read":
                opts["on_result"] = _count_hit
            if isinstance(owner, type):
                tracer.install_method(owner, attr, layer, **opts)
            else:
                tracer.install_function(owner, attr, layer, **opts)

    dsl = importlib.import_module("repro.core.dsl")
    tracer.install_method(
        dsl.TraceAssertion, "evaluate_offline",
        lambda args: f"check.{args[0].assertion_id}")

    # Injection hooks: every attack and fault class that defines one.
    importlib.import_module("repro.attacks.campaign")
    importlib.import_module("repro.faults.campaign")
    base = importlib.import_module("repro.attacks.base").Attack
    classes, stack = [], [base]
    while stack:
        cls = stack.pop()
        classes.append(cls)
        stack.extend(cls.__subclasses__())
    for cls in dict.fromkeys(classes):
        for attr in list(vars(cls)):
            if attr == "active" or attr.startswith(SHIM_HOOK_PREFIXES):
                if callable(vars(cls)[attr]):
                    tracer.install_method(cls, attr, "sim.batch.shim")

    # Forked shard workers write their snapshot after each verdict.
    session = importlib.import_module("repro.service.session")
    tracer.install_function(session, "score_trace_bytes", flush=True)


def campaign_counters() -> dict:
    """Runner and probe counters of this process's campaign stats."""
    stats = importlib.import_module("repro.experiments.stats").STATS.total
    return {
        "executed": stats.executed,
        "planned": stats.planned,
        "batch_points": stats.batch_points,
        "plan_batched": stats.plan_batched,
        "speculative_issued": stats.speculative_issued,
        "speculative_wasted": stats.speculative_wasted,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(snapshots: list[dict], *, busy: int = 0,
              overhead_s: float = 0.0) -> dict:
    """Per-layer metric values from the snapshots of one or more traced
    processes (every metric present; 0 where a layer never ran)."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for snap in snapshots:
        for key, value in snap.get("self_s", {}).items():
            self_s[key] = self_s.get(key, 0.0) + value
        for key, value in snap.get("calls", {}).items():
            calls[key] = calls.get(key, 0) + value
        for key, value in snap.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        for key, value in snap.get("campaign", {}).items():
            counts[key] = counts.get(key, 0) + value

    values = {}
    for layer in TIMED_LAYERS:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        values[f"{layer}.calls"] = calls.get(layer, 0)
    for aid in ASSERTION_IDS:
        values[f"check.{aid}.self_s"] = self_s.get(f"check.{aid}", 0.0)
    values["store.hit_ratio"] = _ratio(
        counts.get("store.hits", 0), calls.get("store.read", 0))
    values["runner.batched_share"] = _ratio(
        counts.get("batch_points", 0) + counts.get("plan_batched", 0),
        counts.get("executed", 0) + counts.get("planned", 0))
    issued = counts.get("speculative_issued", 0)
    values["probe.useful_ratio"] = _ratio(
        issued - counts.get("speculative_wasted", 0), issued)
    values["service.busy"] = busy
    values["trace.overhead_s"] = overhead_s
    return values
