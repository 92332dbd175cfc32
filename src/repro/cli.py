"""Command-line interface: ``adassure <command>``.

Commands:

* ``run`` — simulate one scenario/controller/attack (and/or benign sensor
  fault), check it, diagnose it, and print the debugging report
  (optionally save the trace).
* ``check`` — run the assertion catalog over a saved trace file.
* ``experiment`` — regenerate one or all evaluation tables (e1..e14),
  choosing the simulation engine (``--sim-engine``; batch by default
  whenever two or more runs are pending), with campaign stats
  (``--stats``).
* ``explain`` — counterfactual root-cause isolation: re-simulate a
  violating run with the injection removed, delta-debug the injection
  window/channels/magnitude to the minimal violating intervention, and
  print the causal report (see ``docs/counterfactual.md``); accepts a
  saved trace, a 40-hex cache key, or explicit flags.
* ``cache`` — inspect (``stats``) or wipe (``clear``) the persistent
  on-disk run cache that accelerates repeated campaigns; ``stats`` also
  counts checkpoint-manifest lease conflicts and the entries older cache
  layouts left behind, which ``clear`` removes too.
* ``diff`` — compare two saved traces and print the divergence timeline.
* ``calibrate`` — fit assertion thresholds on nominal trace files and save
  a catalog spec.
* ``faults`` — list the benign fault classes (``adassure faults list``).
* ``serve`` — run the streaming trace-ingest server (fleet monitoring:
  TCP endpoint, live per-session monitors that also give the verdict,
  crash-safe session checkpoints).
* ``stream`` — stream a saved trace into a running server and print the
  verdict; ``--status`` asks the server for its fleet aggregates.
* ``list`` — show available scenarios, controllers, attacks, faults,
  assertions.

Global flags: ``--profile [FILE]`` (or ``ADASSURE_PROFILE=1``) wraps the
whole command in :mod:`cProfile`, writes a ``pstats`` dump (default
``adassure.pstats``), prints the top-20 functions by cumulative time, and
— when combined with ``experiment --stats --stats-json`` — embeds that
summary into the stats JSON.

Invalid inputs (negative intensities, onsets past the scenario end, empty
seed lists) exit with status 2 and an actionable message on stderr.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import os
import sys

__all__ = ["main"]

# Each command imports what it runs inside its handler: building the
# parser loads no simulator, controller or experiment module, so
# ``adassure serve`` starts on the service's own imports.

_CONTROLLERS = ("pure_pursuit", "stanley", "lqr", "mpc")


class _InjectionChoices:
    """``choices`` for ``--attack``/``--fault``: ``none`` plus the keys of
    a registry (``ATTACK_CLASSES`` or ``FAULT_CLASSES``), read from its
    module the first time argparse checks or lists a value."""

    def __init__(self, module: str, registry: str):
        self._module, self._registry = module, registry

    @functools.cached_property
    def _names(self) -> tuple[str, ...]:
        module = importlib.import_module(self._module)
        return ("none", *getattr(module, self._registry))

    def __contains__(self, name) -> bool:
        return name in self._names

    def __iter__(self):
        return iter(self._names)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.attacks.campaign import standard_attack
    from repro.core.catalog import default_catalog
    from repro.core.checker import check_trace
    from repro.core.diagnosis import diagnose
    from repro.core.report import render_check_report, render_diagnosis
    from repro.faults.campaign import standard_fault
    from repro.sim.engine import run_scenario
    from repro.sim.scenario import acc_scenario, standard_scenarios
    from repro.trace.io import write_trace_jsonl, write_trace_npz

    if args.intensity <= 0:
        raise ValueError(
            f"--intensity must be positive, got {args.intensity:g} "
            "(1.0 is the nominal magnitude)")
    if args.onset < 0:
        raise ValueError(f"--onset must be >= 0, got {args.onset:g}")
    scenarios = standard_scenarios(seed=args.seed)
    if args.scenario == "acc_follow":
        scenario = acc_scenario(seed=args.seed)
    elif args.scenario in scenarios:
        scenario = scenarios[args.scenario]
    else:
        print(f"unknown scenario {args.scenario!r}; try: "
              f"{', '.join(scenarios)}, acc_follow", file=sys.stderr)
        return 2
    if args.onset >= scenario.duration:
        raise ValueError(
            f"--onset {args.onset:g}s is at or past the end of "
            f"{args.scenario!r} (duration {scenario.duration:g}s); "
            "the injection would never activate")
    campaign = standard_attack(args.attack, intensity=args.intensity,
                               onset=args.onset)
    faults = standard_fault(args.fault, intensity=args.intensity,
                            onset=args.onset)
    result = run_scenario(scenario, controller=args.controller,
                          campaign=campaign, faults=faults,
                          supervised=args.supervised)
    report = check_trace(result.trace, default_catalog())
    print(render_check_report(report))
    print()
    print(render_diagnosis(diagnose(report)))
    m = result.metrics
    print()
    print(f"behaviour: mean|cte|={m.mean_abs_cte:.2f} m  "
          f"max|cte|={m.max_abs_cte:.2f} m  goal={'yes' if m.goal_reached else 'no'}  "
          f"diverged={'yes' if result.outcome.diverged else 'no'}")
    if args.save:
        if args.save.endswith(".npz"):
            write_trace_npz(result.trace, args.save)
        else:
            write_trace_jsonl(result.trace, args.save)
        print(f"trace saved to {args.save}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.core.catalog import default_catalog
    from repro.core.checker import check_trace
    from repro.core.diagnosis import diagnose
    from repro.core.report import render_check_report, render_diagnosis
    from repro.trace.io import read_trace_auto

    trace = read_trace_auto(args.trace)
    report = check_trace(trace, default_catalog())
    print(render_check_report(report))
    print()
    print(render_diagnosis(diagnose(report)))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS, ExperimentConfig
    from repro.experiments.export import save_tables
    from repro.experiments.stats import STATS

    if args.sim_engine:
        # Every execute resolves the engine from this env var, so the
        # choice reaches every experiment.
        os.environ["ADASSURE_SIM"] = args.sim_engine

    config = ExperimentConfig.quick() if args.quick else ExperimentConfig.full()
    if args.seeds is not None:
        entries = [s for s in args.seeds.split(",") if s.strip()]
        if not entries:
            raise ValueError(
                "--seeds must name at least one seed, e.g. --seeds 1,7,42")
        try:
            seeds = tuple(int(s) for s in entries)
        except ValueError:
            raise ValueError(
                f"--seeds must be comma-separated integers, got {args.seeds!r}"
            ) from None
        import dataclasses
        config = dataclasses.replace(config, seeds=seeds)
    ids = list(ALL_EXPERIMENTS) if args.id == "all" else [args.id]
    STATS.reset()
    for exp_id in ids:
        if exp_id not in ALL_EXPERIMENTS:
            print(f"unknown experiment {exp_id!r}; try: "
                  f"{', '.join(ALL_EXPERIMENTS)} or 'all'", file=sys.stderr)
            return 2
        output = ALL_EXPERIMENTS[exp_id](config)
        tables = output if isinstance(output, list) else [output]
        for table in tables:
            print(table.render())
            print()
        if args.save_dir:
            written = save_tables(tables, args.save_dir)
            for path in written:
                print(f"saved {path}")
    if args.stats:
        print(STATS.render())
        if args.stats_json:
            path = STATS.write_json(args.stats_json)
            print(f"stats written to {path}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.experiments.counterfactual import explain, resolve_cache_key
    from repro.experiments.stats import STATS
    from repro.trace.io import read_trace_auto

    scenario = args.scenario
    controller = args.controller
    attack = args.attack
    intensity = args.intensity
    onset = args.onset
    seed = args.seed
    extra: dict = {}
    if args.target:
        if os.path.exists(args.target):
            trace = read_trace_auto(args.target)
            meta = trace.meta
            if not meta.scenario or not meta.controller:
                print(f"trace {args.target!r} carries no scenario/controller "
                      "metadata; pass --scenario/--controller instead",
                      file=sys.stderr)
                return 2
            scenario, controller = meta.scenario, meta.controller
            attack, seed = meta.attack, meta.seed
            trace_onset = trace.attack_onset()
            if trace_onset is not None:
                onset = trace_onset
        else:
            try:
                resolved = resolve_cache_key(args.target)
            except ValueError as exc:
                print(f"{exc} (and no such trace file exists)",
                      file=sys.stderr)
                return 2
            if resolved is None:
                print(f"cache key {args.target} matches no checkpointed "
                      "grid point or ledgered off-grid run; pass the "
                      "run's flags instead "
                      "(--scenario/--controller/--attack/...)",
                      file=sys.stderr)
                return 2
            if isinstance(resolved, dict):
                # An off-grid entry from the params ledger (E10–E13
                # sweeps, probe fleet): the dict is explain() kwargs.
                scenario = resolved.pop("scenario")
                controller = resolved.pop("controller", controller)
                attack = resolved.pop("attack", attack)
                intensity = resolved.pop("intensity", intensity)
                seed = resolved.pop("seed", seed)
                onset = resolved.pop("onset", onset)
                args.fault = resolved.pop("fault", args.fault)
                dur = resolved.pop("duration", None)
                extra = resolved
            else:
                scenario, controller, attack, intensity, seed, onset, dur \
                    = resolved
                extra = {}
            if args.duration is None and dur is not None:
                args.duration = dur
    STATS.reset()
    report = explain(
        scenario, controller, attack=attack, fault=args.fault,
        intensity=intensity, onset=onset, seed=seed,
        duration=args.duration, budget=args.budget,
        resolution=args.resolution, sim_engine=args.sim_engine,
        **extra,
    )
    print(report.render())
    if args.stats:
        print()
        print(STATS.render())
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments.cache import RunCache

    cache = RunCache()
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache root : {stats['root']}")
        print(f"entries    : {stats['entries']}")
        print(f"size       : {stats['bytes'] / 1e6:.2f} MB")
        print(f"stale      : {stats['stale_entries']} entries "
              f"({stats['stale_bytes'] / 1e6:.2f} MB) in older layouts, "
              "never read; `cache clear` removes them")
        print(f"conflicts  : {cache.lease_event_count()} lease event(s)")
    elif args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached run(s) from {cache.root}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.trace.diff import diff_traces
    from repro.trace.io import read_trace_auto

    reference = read_trace_auto(args.reference)
    candidate = read_trace_auto(args.candidate)
    diff = diff_traces(reference, candidate)
    print(diff.render())
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.core.spec import CatalogSpec
    from repro.core.tuning import calibrate_catalog
    from repro.trace.io import read_trace_auto

    traces = [read_trace_auto(path) for path in args.traces]
    result = calibrate_catalog(traces, target_headroom=args.headroom)
    print(result.summary())
    spec = CatalogSpec.from_calibration(result)
    spec.save(args.output)
    print(f"catalog spec written to {args.output}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults.campaign import FAULT_CLASSES, standard_fault

    print("benign fault classes (adassure run --fault <class>):")
    for name in FAULT_CLASSES:
        fault = standard_fault(name).faults[0]
        model = type(fault).__name__
        print(f"  {name:<18} [{fault.channel:<8}] {model}")
    print("combine channels in experiments via "
          "repro.faults.combined_fault (e.g. gps_dropout+compass_dropout)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import ServerConfig, TraceIngestServer
    from repro.service.store import LeaseConflict

    config = ServerConfig(
        host=args.host, port=args.port, store_dir=args.store_dir,
        idle_timeout_s=args.idle_timeout,
        max_inflight_bytes=args.max_inflight_mb << 20,
    )

    async def _serve() -> int:
        server = TraceIngestServer(config)
        try:
            await server.start()
        except LeaseConflict as exc:
            print(f"error: another server already owns this checkpoint "
                  f"store ({exc}); point --store-dir elsewhere or stop it",
                  file=sys.stderr)
            return 2
        checkpointed = server.store.session_ids()
        print(f"listening on {config.host}:{server.port}  "
              f"(store={server.store.root}, "
              f"{len(checkpointed)} resumable session(s))")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()
            print()
            print(server.aggregates.render())
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.core.report import render_check_report
    from repro.core.verdicts import CheckReport
    from repro.service.client import fetch_status, stream_trace
    from repro.trace.io import read_trace_auto

    if args.status:
        status = asyncio.run(fetch_status(args.host, args.port))
        print(json.dumps(status, indent=2))
        return 0
    if not args.trace:
        raise ValueError("stream needs a trace file (or --status)")
    trace = read_trace_auto(args.trace)
    session_id = args.session_id or os.path.basename(args.trace)
    outcome = asyncio.run(stream_trace(
        trace, args.host, args.port, session_id,
        chunk_records=args.chunk_records))
    verdict = outcome.verdict
    print(f"session {session_id}: {outcome.chunks_applied} chunk(s), "
          f"{len(outcome.live_violations)} live violation(s), "
          f"{outcome.busy_retries} busy retr(ies), "
          f"{outcome.reconnects} reconnect(s)"
          + (" [verdict replayed from checkpoint]"
             if outcome.resumed_finished else ""))
    print()
    print(render_check_report(CheckReport.from_dict(verdict["report"])))
    if verdict.get("top_cause"):
        print(f"\ntop cause: {verdict['top_cause']}  "
              f"(detection latency: {verdict['detection_latency']})")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.attacks.campaign import ATTACK_CLASSES
    from repro.core.catalog import CATALOG_IDS, make_assertion
    from repro.faults.campaign import FAULT_CLASSES
    from repro.sim.scenario import standard_scenarios

    print("scenarios:  " + ", ".join(standard_scenarios()) + ", acc_follow")
    print("controllers: " + ", ".join(_CONTROLLERS))
    print("attacks:     none, " + ", ".join(ATTACK_CLASSES))
    print("faults:      none, " + ", ".join(FAULT_CLASSES))
    print("assertions:")
    for aid in CATALOG_IDS:
        a = make_assertion(aid)
        print(f"  {aid:<4} [{a.category:<11}] {a.name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adassure",
        description="ADAssure: assertion-based debugging for AD control "
                    "algorithms (DATE 2024 reproduction)",
    )
    parser.add_argument("--profile", nargs="?", const="adassure.pstats",
                        default=None, metavar="FILE",
                        help="cProfile the command; write a pstats dump "
                             "(default adassure.pstats) and print the "
                             "top-20 cumulative functions "
                             "(env: ADASSURE_PROFILE=1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate, check and diagnose one run")
    p_run.add_argument("--scenario", default="s_curve")
    p_run.add_argument("--controller", default="pure_pursuit",
                       choices=_CONTROLLERS)
    # A metavar keeps argparse from listing the registry while the
    # parser is built; --help still lists it through %(choices)s.
    p_run.add_argument("--attack", default="none", metavar="ATTACK",
                       choices=_InjectionChoices("repro.attacks.campaign",
                                                 "ATTACK_CLASSES"),
                       help="attack to inject: %(choices)s")
    p_run.add_argument("--fault", default="none", metavar="FAULT",
                       choices=_InjectionChoices("repro.faults.campaign",
                                                 "FAULT_CLASSES"),
                       help="benign sensor fault to inject (composes "
                            "with --attack; see 'adassure faults list'): "
                            "%(choices)s")
    p_run.add_argument("--supervised", action="store_true",
                       help="wrap the controller in the graceful-"
                            "degradation supervisor (watchdog + safe stop)")
    p_run.add_argument("--intensity", type=float, default=1.0)
    p_run.add_argument("--onset", type=float, default=15.0)
    p_run.add_argument("--seed", type=int, default=7)
    p_run.add_argument("--save", metavar="TRACE.{jsonl,npz}",
                       help="save the trace for later 'adassure check' "
                            "(a .npz suffix selects the binary format: "
                            "one uncompressed column block, version 2, "
                            "readable by numpy.load; anything else writes "
                            "JSONL)")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="check a saved trace file")
    p_check.add_argument("trace",
                         help="path to a saved trace (.jsonl/.jsonl.gz/"
                              ".npz; format is sniffed)")
    p_check.set_defaults(func=_cmd_check)

    p_exp = sub.add_parser("experiment", help="regenerate evaluation tables")
    p_exp.add_argument("id", help="experiment id e1..e9, or 'all'")
    p_exp.add_argument("--quick", action="store_true",
                       help="reduced grid (same shape, faster)")
    p_exp.add_argument("--save-dir", metavar="DIR",
                       help="also export each table as CSV + Markdown")
    p_exp.add_argument("--sim-engine", choices=("serial", "batch"),
                       default=None,
                       help="simulation engine for uncached runs "
                            "(default: $ADASSURE_SIM, else auto — batch "
                            "when >=2 runs are pending and NumPy "
                            "imports; 'batch' steps compatible points in "
                            "lockstep as NumPy arrays, bit-identical "
                            "results)")
    p_exp.add_argument("--seeds", metavar="S1,S2,...", default=None,
                       help="override the config's seed list "
                            "(comma-separated integers, non-empty)")
    p_exp.add_argument("--stats", action="store_true",
                       help="print campaign stats (phase times, cache "
                            "hits, batch groups, retries/quarantine) "
                            "after the tables")
    p_exp.add_argument("--stats-json", metavar="FILE",
                       help="with --stats: also dump machine-readable "
                            "stats JSON")
    p_exp.set_defaults(func=_cmd_experiment)

    p_explain = sub.add_parser(
        "explain",
        help="counterfactually isolate the minimal intervention "
             "behind a violating run")
    p_explain.add_argument(
        "target", nargs="?", default=None,
        help="a saved trace file or a 40-hex run-cache key; omitted, "
             "the run is described by the flags below")
    p_explain.add_argument("--scenario", default="urban_loop")
    p_explain.add_argument("--controller", default="pure_pursuit",
                           choices=_CONTROLLERS)
    p_explain.add_argument("--attack", default="none",
                           help="'+'-composed attack label, e.g. "
                                "gps_bias or gps_bias+imu_bias")
    p_explain.add_argument("--fault", default="none",
                           help="'+'-composed benign-fault label")
    p_explain.add_argument("--intensity", type=float, default=1.0)
    p_explain.add_argument("--onset", type=float, default=15.0)
    p_explain.add_argument("--seed", type=int, default=7)
    p_explain.add_argument("--duration", type=float, default=None,
                           metavar="SECONDS",
                           help="truncate the scenario (faster probes)")
    p_explain.add_argument("--budget", type=int, default=48, metavar="N",
                           help="max counterfactual probes (cached or "
                                "fresh) the explanation may spend")
    p_explain.add_argument("--resolution", type=float, default=0.5,
                           metavar="SECONDS",
                           help="granularity of the window bisection")
    p_explain.add_argument("--sim-engine", choices=("serial", "batch"),
                           default=None,
                           help="simulation engine for uncached probes "
                                "(default: $ADASSURE_SIM, else auto — "
                                "batch when probes are pending and NumPy "
                                "imports)")
    p_explain.add_argument("--stats", action="store_true",
                           help="print probe/cache stats after the report")
    p_explain.set_defaults(func=_cmd_explain)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the persistent run cache")
    p_cache.add_argument("action", choices=("stats", "clear"))
    p_cache.set_defaults(func=_cmd_cache)

    p_diff = sub.add_parser("diff", help="diff two saved traces")
    p_diff.add_argument("reference", help="known-good trace (.jsonl)")
    p_diff.add_argument("candidate", help="anomalous trace (.jsonl)")
    p_diff.set_defaults(func=_cmd_diff)

    p_cal = sub.add_parser("calibrate",
                           help="fit assertion thresholds on nominal traces")
    p_cal.add_argument("traces", nargs="+", help="nominal traces (.jsonl)")
    p_cal.add_argument("--headroom", type=float, default=0.1,
                       help="target nominal margin headroom (default 0.1)")
    p_cal.add_argument("--output", default="catalog_spec.json",
                       help="where to write the catalog spec")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_faults = sub.add_parser(
        "faults", help="list the benign sensor-fault classes")
    p_faults.add_argument("action", choices=("list",))
    p_faults.set_defaults(func=_cmd_faults)

    p_serve = sub.add_parser(
        "serve", help="run the streaming trace-ingest server",
        description="Run the streaming trace-ingest server.  Each session's "
                    "monitor checks records as their chunks arrive, pushes "
                    "violations on ACKs, and gives the session's verdict at "
                    "FINISH; everything runs in this one process.")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8790,
                         help="TCP port (0 = ephemeral; default 8790)")
    p_serve.add_argument("--store-dir", default=None, metavar="DIR",
                         help="session checkpoint directory (default: "
                              "$ADASSURE_SERVICE_DIR or the cache root)")
    p_serve.add_argument("--idle-timeout", type=float, default=30.0,
                         metavar="S",
                         help="suspend connections silent this long "
                              "(stalled clients; default 30s)")
    p_serve.add_argument("--max-inflight-mb", type=int, default=32,
                         metavar="MB",
                         help="backpressure credit: un-applied chunk "
                              "bytes before BUSY (default 32 MB)")
    p_serve.set_defaults(func=_cmd_serve)

    p_stream = sub.add_parser(
        "stream", help="stream a saved trace into a running server")
    p_stream.add_argument("trace", nargs="?",
                          help="saved trace (.jsonl/.jsonl.gz/.npz)")
    p_stream.add_argument("--host", default="127.0.0.1")
    p_stream.add_argument("--port", type=int, default=8790)
    p_stream.add_argument("--session-id", default=None,
                          help="session identity (resume key; default: "
                               "the trace file name)")
    p_stream.add_argument("--chunk-records", type=int, default=64,
                          help="records per chunk frame (default 64)")
    p_stream.add_argument("--status", action="store_true",
                          help="print the server's fleet aggregates "
                               "instead of streaming")
    p_stream.set_defaults(func=_cmd_stream)

    p_list = sub.add_parser("list", help="list scenarios/attacks/assertions")
    p_list.set_defaults(func=_cmd_list)
    return parser


def _profile_file(args: argparse.Namespace) -> str | None:
    """The pstats output path when profiling is requested, else ``None``."""
    if args.profile is not None:
        return args.profile
    flag = os.environ.get("ADASSURE_PROFILE", "").strip().lower()
    if flag in ("", "0", "off", "false", "no"):
        return None
    # Any other value enables profiling; a value with a path separator or
    # .pstats suffix doubles as the output file name.
    if flag in ("1", "on", "true", "yes"):
        return "adassure.pstats"
    return os.environ["ADASSURE_PROFILE"].strip()


def _profile_top(stats, n: int = 20) -> list[dict]:
    """The ``n`` heaviest rows of a :class:`pstats.Stats` by cumulative time."""
    rows = []
    for (file, line, name), (cc, nc, tt, ct, _callers) in stats.stats.items():
        rows.append({
            "function": f"{file}:{line}({name})",
            "calls": nc,
            "tottime_s": round(tt, 4),
            "cumtime_s": round(ct, 4),
        })
    rows.sort(key=lambda r: -r["cumtime_s"])
    return rows[:n]


def _run_profiled(args: argparse.Namespace, pstats_file: str) -> int:
    """Execute the command under cProfile: the run+check hot path and
    everything around it.  Dumps the raw profile, prints the top-20
    cumulative summary, and merges both into the ``--stats-json`` payload
    when the command wrote one."""
    import cProfile
    import io
    import json
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        rc = args.func(args)
    finally:
        profiler.disable()
    profiler.dump_stats(pstats_file)
    stats = pstats.Stats(profiler, stream=io.StringIO())
    stream = stats.stream
    stats.sort_stats("cumulative").print_stats(20)
    print()
    print("-- profile (top 20 by cumulative time) --")
    print(stream.getvalue().rstrip())
    print(f"profile written to {pstats_file}")

    stats_json = getattr(args, "stats_json", None)
    if stats_json and getattr(args, "stats", False):
        # Embed the summary into the stats output the command just wrote.
        try:
            from pathlib import Path
            path = Path(stats_json)
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload["profile"] = {
                "pstats_file": pstats_file,
                "top_cumulative": _profile_top(stats),
            }
            path.write_text(json.dumps(payload, indent=2) + "\n",
                            encoding="utf-8")
            print(f"profile summary merged into {stats_json}")
        except (OSError, ValueError):
            pass  # the profile dump itself already succeeded
    return rc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        pstats_file = _profile_file(args)
        if pstats_file is not None:
            code = _run_profiled(args, pstats_file)
        else:
            code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except ValueError as exc:
        # Input validation: every layer below raises ValueError with an
        # actionable message (bad intensities, onsets past the scenario
        # end, empty seed lists, malformed trace files).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left early (``adassure faults list | head``).  Point
        # stdout at devnull so the interpreter's exit flush cannot raise
        # again, and fail quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
