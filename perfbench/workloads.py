"""The two workloads: ``campaign`` and ``serve``.

Each function takes a :class:`Context` and returns a :class:`Outcome`
with every end-to-end metric (untraced) or every per-layer metric
(traced).  ``perfbench/README.md`` says what each metric means on each
workload.

Every end-to-end time is measured with a :class:`speed.SpeedProbe`
running and reported at the reference speed (see :mod:`perfbench.speed`
for why); the raw wall times go to the info line.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import checks, layers, proc, speed

DEFAULT_SEED = 0

SERVE_SETUP_LAUNCHES = 5
"""Server launches timed for ``serve``'s ``setup_s`` (the median is
reported)."""

CAMPAIGN_SEEDS = (7, 1, 42)
"""``experiment --quick --seeds`` values the benchmark seed picks from:
the quick config's own seed first, then the rest of the full config's."""

CAMPAIGN_MIN_ROUNDS = 3
"""Least number of rounds (set-up launch, warm campaign, cold and warm
explanation) a ``campaign`` run measures."""

EXPLAIN_SUBJECT = dict(
    scenario="urban_loop", controller="stanley",
    attack="gps_drift+imu_gyro_bias+steer_offset", intensity=1.0,
    onset=20.0, duration=60.0, resolution=4.0,
)
EXPLAIN_SEEDS = (11, 15)
"""Subject seeds the benchmark seed picks from: the ``BENCH_probes``
seed first.  Both explain with the same probe structure (41 lanes in 2
groups, 29 wasted), so the choice does not move the timings."""

SERVE_TRACES = 24
"""Distinct traces generated at set-up; the seed picks their order, and
sessions take them round-robin, so every run streams the same mix."""
SERVE_RATE = 4.0
"""Open-loop sessions per second, below the knee on a 2-core host."""
SERVE_OPEN_SHARE = 0.5
"""Share of ``--seconds`` spent in the open loop (at least
``SERVE_MIN_OPEN`` sessions); the closed loop gets the rest."""
SERVE_MIN_OPEN = 100
"""Ten sessions beyond the 90th percentile."""
SERVE_BURSTS = 3
"""Closed-loop bursts, spread before, between and after the two halves
of the open loop so that slow and fast spells of the host average
out."""
SERVE_LATE_LIMIT_S = 0.1
"""A session dispatched later than this past its due time means the
generator fell behind, which invalidates the run."""


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    traced: bool
    nproc: int = field(default_factory=lambda: os.cpu_count() or 1)
    cpu: int = field(default_factory=lambda: max(os.sched_getaffinity(0)))
    """The CPU batch-job passes are pinned to, with the speed probe."""

    def env(self, cache_dir: Path) -> dict:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("ADASSURE_")}
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        env["ADASSURE_CACHE_DIR"] = str(cache_dir)
        return env

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        if path.exists() and any(path.iterdir()):
            raise RuntimeError(f"refusing a cold pass on non-empty {path}")
        path.mkdir(parents=True, exist_ok=True)
        return path


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    info: dict = field(default_factory=dict)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _require_ok(label: str, p: proc.Pass) -> None:
    if p.returncode != 0:
        raise checks.CheckFailed(
            f"{label} exited {p.returncode}: {p.stderr[-2000:]}")


def _snapshots(trace_dir: Path) -> list[dict]:
    return [json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(trace_dir.glob("layers-*.json"))]


# -- campaign ---------------------------------------------------------------
def campaign_seed(seed: int) -> int:
    return CAMPAIGN_SEEDS[seed % len(CAMPAIGN_SEEDS)]


def explain_seed(seed: int) -> int:
    return EXPLAIN_SEEDS[seed % len(EXPLAIN_SEEDS)]


def _explain_args(subject_seed: int) -> list[str]:
    s = EXPLAIN_SUBJECT
    return ["explain", "--scenario", s["scenario"],
            "--controller", s["controller"], "--attack", s["attack"],
            "--intensity", str(s["intensity"]), "--onset", str(s["onset"]),
            "--duration", str(s["duration"]),
            "--resolution", str(s["resolution"]),
            "--seed", str(subject_seed)]


def _explain_projection(cache: Path, subject_seed: int) -> tuple[dict, str]:
    """Replay the explanation in this process against a filled store:
    the report's projection and its rendering."""
    os.environ["ADASSURE_CACHE_DIR"] = str(cache)
    from repro.experiments.counterfactual import explain

    report = explain(seed=subject_seed, **EXPLAIN_SUBJECT)
    return checks.report_projection(report), report.render()


def _check_explain(cache: Path, subject_seed: int, stdout: str) -> str:
    """The replayed report must render as the CLI printed it and match
    its pinned projection; returns the projection digest."""
    projection, rendered = _explain_projection(cache, subject_seed)
    checks.check_equal("replayed report", rendered + "\n", stdout)
    digest = checks.digest(projection)
    pinned = checks.expected()["explain"].get(str(subject_seed))
    if pinned is None:
        raise checks.CheckFailed(f"no pinned projection for {subject_seed}")
    checks.check_equal("report projection digest", digest, pinned)
    return digest


class _Jobs:
    """The two jobs of a ``campaign`` session and their output checks:
    ``experiment all --quick`` (grid-keyed store) and ``explain`` on
    one compound-attack run (params-keyed store), each with its own
    cache directory."""

    def __init__(self, ctx: Context, prefix: str = ""):
        self.ctx = ctx
        self.sim_seed = campaign_seed(ctx.seed)
        self.subject_seed = explain_seed(ctx.seed)
        self.campaign_args = ["experiment", "all", "--quick", "--seeds",
                              str(self.sim_seed), "--stats"]
        self.explain_args = _explain_args(self.subject_seed)
        self.pinned = checks.expected()["campaign"].get(str(self.sim_seed))
        if self.pinned is None:
            raise checks.CheckFailed(
                f"no pinned campaign digest for {self.sim_seed}")
        self.campaign_env = ctx.env(ctx.fresh_dir(f"{prefix}cache"))
        self.explain_cache = ctx.fresh_dir(f"{prefix}explain-cache")
        self.explain_env = ctx.env(self.explain_cache)
        self.report: str | None = None
        self.points = 0
        self.quarantined = 0
        self.passes = 0

    def campaign(self, label: str, p: proc.Pass) -> proc.Pass:
        """Every pass must print the pinned tables; counts its grid
        points and quarantined points."""
        _require_ok(label, p)
        checks.check_equal(f"{label} table digest",
                           checks.campaign_digest(p.stdout), self.pinned)
        points, quarantined = checks.campaign_counts(p.stdout)
        self.points += points
        self.quarantined += quarantined
        return p

    def explain(self, label: str, p: proc.Pass) -> proc.Pass:
        """Every pass must print the first pass's report."""
        _require_ok(label, p)
        if self.report is None:
            self.report = p.stdout
        checks.check_equal(f"{label} report", p.stdout, self.report)
        self.passes += 1
        return p

    def run(self, trace_dir: Path | None = None) -> tuple[proc.Pass,
                                                          proc.Pass]:
        """One pass of each job, checked."""
        kind = "traced" if trace_dir else "untraced"
        c = self.campaign(kind + " campaign", proc.run_pass(
            self.campaign_args, self.campaign_env, self.ctx.work,
            trace_dir=trace_dir, cpu=self.ctx.cpu))
        e = self.explain(kind + " explain", proc.run_pass(
            self.explain_args, self.explain_env, self.ctx.work,
            trace_dir=trace_dir, cpu=self.ctx.cpu))
        return c, e

    def finish(self, explain_cache: Path | None = None) -> dict:
        """Replay-check the explanation against ``explain_cache`` (by
        default the jobs' own); the run's info fields."""
        digest = _check_explain(explain_cache or self.explain_cache,
                                self.subject_seed, self.report)
        return {"campaign_seed": self.sim_seed, "digest": self.pinned,
                "subject_seed": self.subject_seed, "explain_digest": digest}

    @property
    def attempted(self) -> int:
        return self.points + self.passes


def campaign(ctx: Context) -> Outcome:
    """A cold ``experiment all --quick`` fills the campaign store; then,
    until ``--seconds`` have passed, rounds of: one set-up launch, a
    warm campaign, a cold explanation in a fresh store and a warm one
    against it."""
    if ctx.traced:
        with speed.SpeedProbe({ctx.cpu}) as probe:
            base = _Jobs(ctx, "base-")
            untraced = base.run()
            jobs = _Jobs(ctx)
            trace_dir = ctx.fresh_dir("trace")
            traced = jobs.run(trace_dir)
            jobs.run(trace_dir)
        checks.check_equal("traced report", jobs.report, base.report)
        info = jobs.finish()
        overhead = (sum(probe.at_ref(*p.window) for p in traced)
                    - sum(probe.at_ref(*p.window) for p in untraced))
        metrics = layers.summarize(_snapshots(trace_dir), overhead_s=overhead)
        return Outcome(metrics, base.attempted + jobs.attempted,
                       base.quarantined + jobs.quarantined, info)

    jobs = _Jobs(ctx)
    setup_env = ctx.env(ctx.fresh_dir("setup-cache"))

    def run(label: str, check, args: list[str], env: dict) -> proc.Pass:
        return check(label, proc.run_pass(args, env, ctx.work, cpu=ctx.cpu))

    rounds = []
    with speed.SpeedProbe({ctx.cpu}) as probe:
        fill = run("cold campaign", jobs.campaign, jobs.campaign_args,
                   jobs.campaign_env)
        t0 = time.perf_counter()
        while (len(rounds) < CAMPAIGN_MIN_ROUNDS
               or time.perf_counter() - t0 < ctx.seconds):
            setup = run("setup launch", _check_setup, ["experiment", "none"],
                        setup_env)
            w_campaign = run("warm campaign", jobs.campaign,
                             jobs.campaign_args, jobs.campaign_env)
            cache = ctx.fresh_dir(f"explain-cache-{len(rounds)}")
            env = ctx.env(cache)
            c_explain = run("cold explain", jobs.explain, jobs.explain_args,
                            env)
            w_explain = run("warm explain", jobs.explain, jobs.explain_args,
                            env)
            rounds.append((setup, w_campaign, c_explain, w_explain))
    info = jobs.finish(cache)

    def at_ref(p: proc.Pass) -> float:
        return probe.at_ref(*p.window)

    setup = [at_ref(r[0]) for r in rounds]
    warm = [at_ref(r[1]) + at_ref(r[3]) for r in rounds]
    cold = [at_ref(r[2]) for r in rounds]
    # The fastest round: slow spells the probe did not fully scale away
    # only make a round slower.
    cold_s, warm_s = min(cold), min(warm)
    metrics = {
        "setup_s": statistics.median(setup),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "peak_rss_mb": max(p.rss_mb for r in rounds for p in (fill, *r)),
        # A batch job's "session" is the cold explanation (due at
        # launch, done at exit) and its "verdict" a warm campaign plus
        # explanation, answered from the stores.  A handful of rounds
        # is too few for a 90th percentile, so both percentiles repeat
        # the fastest round.
        "session_p50_s": cold_s,
        "session_p90_s": cold_s,
        "verdict_p50_s": warm_s,
        "verdict_p90_s": warm_s,
        "peak_sessions_per_s": 1.0 / warm_s,
    }
    return Outcome(metrics, jobs.attempted, jobs.quarantined, {
        **info, "cold_campaign_s": at_ref(fill),
        "cold_explain_s": cold, "warm_s": warm, "setup_s": setup,
        "wall_s": [[p.wall_s for p in r] for r in rounds]})


def _check_setup(label: str, p: proc.Pass) -> proc.Pass:
    """``experiment none`` imports everything the job needs, refuses the
    unknown target and exits 2 before doing any work."""
    if p.returncode != 2 or "unknown experiment" not in p.stderr:
        raise checks.CheckFailed(f"{label} failed: {p.stderr!r}")
    return p


# -- serve ------------------------------------------------------------------
@dataclass
class _Fleet:
    """Pre-encoded sessions and their offline verdicts."""

    traces: list
    chunks: list[list[bytes]]
    expected: list[dict]


def _build_fleet(ctx: Context) -> _Fleet:
    os.environ["ADASSURE_CACHE_DIR"] = str(ctx.fresh_dir("gen-cache"))
    from repro.service.loadgen import generate_fleet_traces
    from repro.service.session import chunk_to_bytes, score_trace_bytes
    from repro.trace.io import trace_to_npz_bytes

    traces, _ = generate_fleet_traces(SERVE_TRACES)
    random.Random(ctx.seed).shuffle(traces)
    chunks = []
    for trace in traces:
        records = list(trace.records)
        chunks.append([chunk_to_bytes(trace.meta, records[i:i + 64])
                       for i in range(0, len(records), 64)])
    expected = [checks.wire_form(score_trace_bytes(trace_to_npz_bytes(t)))
                for t in traces]
    return _Fleet(traces, chunks, expected)


@dataclass
class _Session:
    """``perf_counter`` times of one streamed session."""

    start: float
    end: float
    finish: float
    """FINISH sent."""
    verdict: float
    """VERDICT received."""
    due: float = 0.0
    """When an open-loop session was due."""


class _SessionGenerator:
    """Streams sessions at one server through ``TraceStreamClient``."""

    def __init__(self, fleet: _Fleet, port: int):
        from repro.service.client import StreamError, TraceStreamClient

        self.fleet = fleet
        self.port = port
        self.errors = (StreamError, ConnectionError, OSError,
                       asyncio.IncompleteReadError)
        self.sessions = 0
        self.failed = 0

        class TimedClient(TraceStreamClient):
            """Reuses the pre-encoded chunks and notes when FINISH went
            and VERDICT came."""

            finish = verdict_at = 0.0

            def _encode_chunks(client, trace):
                return fleet.chunks[client.index]

            async def _finish(client, reader, writer):
                client.finish = time.perf_counter()
                verdict = await super()._finish(reader, writer)
                client.verdict_at = time.perf_counter()
                return verdict

        self.client_cls = TimedClient

    async def session(self) -> _Session | None:
        """The next trace in round-robin order as one session, or
        ``None`` when the stream failed (counted in :attr:`failed`)."""
        index = self.sessions % len(self.fleet.traces)
        session_id = f"s{self.sessions:05d}"
        self.sessions += 1
        client = self.client_cls("127.0.0.1", self.port)
        client.index = index
        t0 = time.perf_counter()
        try:
            outcome = await client.run(self.fleet.traces[index], session_id)
        except self.errors:
            self.failed += 1
            return None
        end = time.perf_counter()
        if outcome.verdict is None:
            self.failed += 1
            return None
        checks.check_verdict(session_id, outcome.verdict,
                             self.fleet.expected[index])
        return _Session(t0, end, client.finish, client.verdict_at)

    async def sequential(self, n: int) -> list[_Session]:
        done = []
        for _ in range(n):
            result = await self.session()
            if result is not None:
                done.append(result)
        return done

    async def open_loop(self, n: int, rate: float,
                        conns: int) -> tuple[list[_Session], list[float]]:
        """Sessions due every ``1/rate`` s over at most ``conns``
        connections; ``(sessions, how late each was dispatched)``."""
        slots = asyncio.Semaphore(conns)
        done, late = [], []
        start = time.perf_counter() + 0.05

        async def one(due: float) -> None:
            late.append(time.perf_counter() - due)
            async with slots:
                result = await self.session()
            if result is not None:
                result.due = due
                done.append(result)

        tasks = []
        for i in range(n):
            due = start + i / rate
            await asyncio.sleep(max(due - time.perf_counter(), 0.0))
            tasks.append(asyncio.create_task(one(due)))
        results = await asyncio.gather(*tasks, return_exceptions=True)
        _raise_first(results)
        return done, late

    async def closed_loop(self, seconds: float,
                          conns: int) -> tuple[list[_Session], float, float]:
        """Sessions back to back over ``conns`` connections, each
        started before ``seconds`` have passed; ``(sessions, start,
        end of the last one)``."""
        deadline = time.perf_counter() + seconds
        done = []

        async def worker() -> None:
            while time.perf_counter() < deadline:
                result = await self.session()
                if result is not None:
                    done.append(result)

        t0 = time.perf_counter()
        results = await asyncio.gather(*[worker() for _ in range(conns)],
                                       return_exceptions=True)
        _raise_first(results)
        return done, t0, time.perf_counter()

    async def busy_count(self) -> int:
        from repro.service.client import fetch_status

        status = await fetch_status("127.0.0.1", self.port)
        return int(status["counters"]["busy_sent"])


def _raise_first(results: list) -> None:
    for result in results:
        if isinstance(result, BaseException):
            raise result


def _launch(ctx: Context, name: str, trace_dir: Path | None = None):
    server = proc.Server(ctx.fresh_dir(name),
                         ctx.env(ctx.fresh_dir(f"{name}-cache")),
                         trace_dir=trace_dir)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server


def _stop(server: proc.Server) -> None:
    orphans = server.stop()
    if orphans:
        raise checks.CheckFailed(
            f"shard workers {orphans} outlived the server")


def serve(ctx: Context) -> Outcome:
    fleet = _build_fleet(ctx)
    conns = max(ctx.nproc, 1)
    n_open = max(SERVE_MIN_OPEN,
                 int(SERVE_RATE * ctx.seconds * SERVE_OPEN_SHARE))
    burst_s = ctx.seconds * (1.0 - SERVE_OPEN_SHARE) / SERVE_BURSTS

    if ctx.traced:
        server = _launch(ctx, "base-store")
        try:
            base = _SessionGenerator(fleet, server.port)
            base_first = asyncio.run(base.sequential(1))
        finally:
            _stop(server)
        trace_dir = ctx.fresh_dir("trace")
        server = _launch(ctx, "store", trace_dir)
        try:
            gen = _SessionGenerator(fleet, server.port)
            traced_first = asyncio.run(gen.sequential(1))
            asyncio.run(gen.open_loop(n_open, SERVE_RATE, conns))
            asyncio.run(gen.closed_loop(burst_s, conns))
            busy = asyncio.run(gen.busy_count())
        finally:
            _stop(server)
        metrics = layers.summarize(
            _snapshots(trace_dir), busy=busy,
            overhead_s=statistics.median(s.end - s.start for s in traced_first)
            - statistics.median(s.end - s.start for s in base_first))
        return Outcome(metrics, base.sessions + gen.sessions,
                       base.failed + gen.failed)

    opened, late, bursts, setup = [], [], [], []
    with speed.SpeedProbe(os.sched_getaffinity(0)) as probe:
        for i in range(SERVE_SETUP_LAUNCHES):
            server = _launch(ctx, f"store-{i}")
            setup.append((server.t0, server.t0 + server.ready_s))
            if i < SERVE_SETUP_LAUNCHES - 1:
                _stop(server)
        try:
            gen = _SessionGenerator(fleet, server.port)
            for burst in range(SERVE_BURSTS):
                if burst:
                    done, lateness = asyncio.run(gen.open_loop(
                        n_open // (SERVE_BURSTS - 1), SERVE_RATE, conns))
                    opened += done
                    late += lateness
                bursts.append(asyncio.run(gen.closed_loop(burst_s, conns)))
            rss = proc.peak_rss_mb(
                [server.proc.pid, *proc.children(server.proc.pid)])
        finally:
            _stop(server)
    late_max = max(late)
    if late_max > SERVE_LATE_LIMIT_S:
        raise checks.CheckFailed(
            f"generator fell behind schedule by {late_max:.3f}s")

    closed = [s for done, _, _ in bursts for s in done]
    due = [probe.at_ref(s.due, s.end) for s in opened]
    verdict = [probe.at_ref(s.finish, s.verdict) for s in opened]
    metrics = {
        "setup_s": statistics.median(probe.at_ref(*w) for w in setup),
        "cold_s": statistics.fmean(
            probe.at_ref(s.start, s.end) for s in opened),
        "warm_s": statistics.fmean(
            probe.at_ref(s.start, s.end) for s in closed),
        "peak_rss_mb": rss,
        "session_p50_s": percentile(due, 50),
        "session_p90_s": percentile(due, 90),
        "verdict_p50_s": percentile(verdict, 50),
        "verdict_p90_s": percentile(verdict, 90),
        "peak_sessions_per_s": len(closed) / sum(
            probe.at_ref(t0, t1) for _, t0, t1 in bursts),
    }
    return Outcome(metrics, gen.sessions, gen.failed, {
        "open_loop_sessions": len(opened),
        "closed_loop_sessions": len(closed), "connections": conns,
        "generator_late_max_s": late_max,
        "generator_late_p50_s": percentile(late, 50),
        "wall_cold_s": statistics.fmean(s.end - s.start for s in opened),
        "wall_warm_s": statistics.fmean(s.end - s.start for s in closed),
        "wall_session_p50_s": percentile([s.end - s.due for s in opened], 50),
        "wall_verdict_p50_s": percentile(
            [s.verdict - s.finish for s in opened], 50)})


WORKLOADS = {"campaign": campaign, "serve": serve}
