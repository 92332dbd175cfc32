"""Crash tolerance of the grid runner.

The fault-tolerance contract of :func:`repro.experiments.runner.run_grid`:
a flaky point, a hopeless point, or an interrupt must not cost a
campaign more than the affected points — and never its correctness.
These tests sabotage the serial oracle, ``backend._simulate``, through
monkeypatching; each stand-in sees the :class:`Run` and keys on its grid
point, ``run.key``.
"""

import json

import pytest

from repro.experiments import backend, runner
from repro.experiments.runner import clear_cache, run_grid
from repro.experiments.stats import STATS

GRID = dict(scenarios=("s_curve",), controllers=("pure_pursuit",),
            attacks=("gps_bias", "odom_scale"), seeds=(1, 7),
            onset=5.0, duration=12.0)

_REAL_SIMULATE = backend._simulate


@pytest.fixture(autouse=True)
def serial_engine(monkeypatch):
    """Pin the serial engine: every test here sabotages
    ``backend._simulate``, which the auto-selected batch engine would
    legitimately bypass."""
    monkeypatch.setenv("ADASSURE_SIM", "serial")


@pytest.fixture()
def no_cache(monkeypatch):
    monkeypatch.setenv("ADASSURE_CACHE", "0")
    monkeypatch.setattr(runner, "_RETRY_BACKOFF", 0.0)
    clear_cache()
    yield
    clear_cache()


def _same_runs(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.result.trace.records == rb.result.trace.records
        assert ra.report.fired_ids == rb.report.fired_ids


class TestRetryAndQuarantine:
    def test_flaky_point_succeeds_after_retries(self, no_cache,
                                                monkeypatch):
        attempts = {"n": 0}

        def flaky(run):
            if run.key[2] == "gps_bias" and run.key[4] == 1:
                attempts["n"] += 1
                if attempts["n"] <= 2:
                    raise OSError("transient")
            return _REAL_SIMULATE(run)

        monkeypatch.setattr(backend, "_simulate", flaky)
        runs = run_grid(retries=2, **GRID)
        assert len(runs) == 4
        assert STATS.last.retries == 2
        assert STATS.last.quarantined == []

    def test_hopeless_point_is_quarantined_not_fatal(self, no_cache,
                                                     monkeypatch):
        def hopeless(run):
            if run.key[2] == "odom_scale":
                raise RuntimeError("sick point")
            return _REAL_SIMULATE(run)

        monkeypatch.setattr(backend, "_simulate", hopeless)
        runs = run_grid(retries=1, **GRID)
        assert len(runs) == 2  # both odom_scale points dropped
        assert all(r.attack == "gps_bias" for r in runs)
        quarantined = STATS.last.quarantined
        assert len(quarantined) == 2
        assert all("sick point" in error for _, error in quarantined)
        rendered = STATS.render()
        assert "quarantined" in rendered
        assert "RuntimeError" in rendered

    def test_stats_json_reports_quarantine(self, no_cache, monkeypatch):
        def hopeless(run):
            raise RuntimeError("sick point")

        monkeypatch.setattr(backend, "_simulate", hopeless)
        runs = run_grid(retries=0, **GRID)
        assert runs == []
        payload = STATS.last.as_dict()
        assert len(payload["quarantined"]) == 4
        assert payload["quarantined"][0]["error"].startswith("RuntimeError")


class TestCheckpointResume:
    def test_interrupt_then_resume_reruns_only_missing(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("ADASSURE_CACHE", raising=False)
        clear_cache()

        done_before_interrupt = 2
        calls = {"n": 0}

        def interrupted(run):
            if calls["n"] >= done_before_interrupt:
                raise KeyboardInterrupt
            calls["n"] += 1
            return _REAL_SIMULATE(run)

        monkeypatch.setattr(backend, "_simulate", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_grid(**GRID)

        # The two completed points were checkpointed incrementally.
        manifests = list(tmp_path.rglob("checkpoints/*.json"))
        assert len(manifests) == 1
        ledger = json.loads(manifests[0].read_text())
        assert len(ledger["completed"]) == done_before_interrupt
        assert ledger["total"] == 4

        # Resume: only the missing half executes, the rest are disk hits.
        monkeypatch.setattr(backend, "_simulate", _REAL_SIMULATE)
        clear_cache()  # drop the memo; force the disk/checkpoint path
        runs = run_grid(**GRID)
        assert len(runs) == 4
        assert STATS.last.executed == 4 - done_before_interrupt
        assert STATS.last.disk_hits == done_before_interrupt

        ledger = json.loads(manifests[0].read_text())
        assert len(ledger["completed"]) == 4
        assert ledger["quarantined"] == []
        clear_cache()

    def test_crash_between_commit_and_manifest_is_lossless(self, tmp_path,
                                                           monkeypatch):
        """Die after a point's cache commit but *before* its manifest
        update — the narrowest crash window the commit-before-ledger
        ordering covers.  Resume must neither lose the committed point
        (the cache, not the ledger, is the source of truth) nor run any
        point twice."""
        from repro.experiments.cache import CheckpointManifest, RunCache

        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("ADASSURE_CACHE", raising=False)
        clear_cache()

        real_complete = CheckpointManifest.complete
        completions = {"n": 0}

        def dying_complete(self, point):
            if completions["n"] >= 2:
                # The point's result is already durable in the cache;
                # this kill leaves only its bookkeeping unwritten.
                raise KeyboardInterrupt
            completions["n"] += 1
            return real_complete(self, point)

        monkeypatch.setattr(CheckpointManifest, "complete", dying_complete)
        with pytest.raises(KeyboardInterrupt):
            run_grid(**GRID)

        # Three commits landed (two ledgered, one in the crash window).
        assert RunCache().stats()["entries"] == 3
        manifests = list(tmp_path.rglob("checkpoints/*.json"))
        assert len(manifests) == 1
        assert len(json.loads(manifests[0].read_text())["completed"]) == 2

        # Resume: the unledgered commit is a disk hit, not a re-run.
        monkeypatch.setattr(CheckpointManifest, "complete", real_complete)
        clear_cache()
        runs = run_grid(**GRID)
        assert len(runs) == 4
        assert STATS.last.executed == 1      # only the truly missing point
        assert STATS.last.disk_hits == 3     # no point lost...
        assert RunCache().stats()["entries"] == 4  # ...and none doubled
        ledger = json.loads(manifests[0].read_text())
        assert len(ledger["completed"]) == 4
        clear_cache()

    def test_manifest_ledger_matches_grid_identity(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("ADASSURE_CACHE", raising=False)
        clear_cache()
        run_grid(**GRID)
        # A different grid must get its own ledger, not resume this one.
        run_grid(**{**GRID, "seeds": (1,)})
        manifests = list(tmp_path.rglob("checkpoints/*.json"))
        assert len(manifests) == 2
        totals = sorted(json.loads(m.read_text())["total"]
                        for m in manifests)
        assert totals == [2, 4]
        clear_cache()


class TestManifestLease:
    """Two campaigns sharing a manifest dir must not corrupt the ledger:
    the second writer detects the first's live lease, goes read-only, and
    the conflict is reported — never silently lost."""

    def test_concurrent_second_writer_goes_read_only(self, tmp_path,
                                                     monkeypatch):
        from repro.experiments.cache import CheckpointManifest, RunCache

        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("ADASSURE_CACHE", raising=False)
        cache = RunCache()
        grid = [("s_curve", "pure_pursuit", "gps_bias", 1.0, s, 5.0, 12.0)
                for s in (1, 7, 42)]

        first = CheckpointManifest.for_grid(cache, grid)
        assert not first.lease_conflict
        first.complete(grid[0])

        # A second runner opens the same grid while the first is live.
        second = CheckpointManifest.for_grid(cache, grid)
        assert second.lease_conflict  # reported, not silent
        second.complete(grid[1])
        second.complete(grid[2])

        # The read-only second writer must not have touched the ledger.
        ledger = json.loads(first.path.read_text())
        assert ledger["completed"] == [list(grid[0])]

        # The owner keeps flushing normally.
        first.complete(grid[1])
        ledger = json.loads(first.path.read_text())
        assert len(ledger["completed"]) == 2

        # Once the owner releases, a fresh campaign owns the ledger again.
        first.release()
        third = CheckpointManifest.for_grid(cache, grid)
        assert not third.lease_conflict
        assert third.resumed == 2  # it resumed the owner's ledger intact
        third.release()

    def test_run_grid_reports_lease_conflict(self, tmp_path, monkeypatch):
        from repro.experiments.cache import CheckpointManifest, RunCache

        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("ADASSURE_CACHE", raising=False)
        clear_cache()

        # Hold the lease for exactly the grid run_grid will build.
        grid = [
            (scenario, controller, attack, 1.0, seed, GRID["onset"],
             GRID["duration"])
            for scenario in GRID["scenarios"]
            for controller in GRID["controllers"]
            for attack in GRID["attacks"]
            for seed in GRID["seeds"]
        ]
        holder = CheckpointManifest.for_grid(RunCache(), grid)
        assert not holder.lease_conflict
        holder.flush()  # materialize the (empty) ledger on disk

        with pytest.warns(RuntimeWarning, match="held by another"):
            runs = run_grid(**GRID)
        assert len(runs) == 4  # the campaign itself still completed
        assert STATS.last.lease_conflicts == 1

        # The holder's ledger was never touched by the read-only loser.
        ledger = json.loads(holder.path.read_text())
        assert ledger["completed"] == []
        holder.release()
        clear_cache()


class TestRetryBackoff:
    """``backend.retry_delay``/``retry_cap``: the jittered, capped backoff
    between a failing serial run's retries."""

    def test_jitter_stays_in_band(self):
        from repro.experiments.backend import retry_delay

        for failures in (1, 2, 3):
            nominal = 0.25 * (2 ** (failures - 1))
            for _ in range(50):
                delay = retry_delay(failures, 0.0, base=0.25, cap=1e9)
                assert 0.5 * nominal <= delay < 1.5 * nominal

    def test_total_sleep_is_capped(self):
        from repro.experiments.backend import retry_delay

        assert retry_delay(1, slept=5.0, base=0.25, cap=5.0) == 0.0
        # Near the cap, the delay is clipped to the remaining budget.
        assert retry_delay(10, slept=4.9, base=0.25, cap=5.0) <= 0.1 + 1e-9

    def test_cap_from_env(self, monkeypatch):
        from repro.experiments.backend import retry_cap

        monkeypatch.setenv("ADASSURE_RETRY_CAP", "7.5")
        assert retry_cap() == 7.5
        monkeypatch.setenv("ADASSURE_RETRY_CAP", "not-a-number")
        with pytest.raises(ValueError, match="ADASSURE_RETRY_CAP"):
            retry_cap()  # malformed fails loudly, never the default

    def test_base_tracks_runner_backoff(self, monkeypatch):
        from repro.experiments.backend import retry_delay

        # Tests zero the module backoff to skip sleeps; retry_delay must
        # honour that patch when no explicit base is given.
        monkeypatch.setattr(runner, "_RETRY_BACKOFF", 0.0)
        assert retry_delay(3, 0.0) == 0.0
