"""Tests for the persistent on-disk run cache and the bounded memo."""

import pytest

from repro.cli import main
from repro.experiments.cache import (
    CACHE_FORMAT_VERSION,
    RunCache,
    cache_key,
    default_cache_dir,
)
from repro.experiments.runner import (
    _MEMO,
    clear_cache,
    run_grid,
    run_scored,
    set_memo_limit,
)
from repro.experiments.stats import STATS

POINT = dict(scenarios=("s_curve",), controllers=("pure_pursuit",),
             attacks=("gps_bias",), seeds=(7,), onset=5.0, duration=12.0)


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    """A per-test cache dir with an empty memo."""
    monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("ADASSURE_CACHE", raising=False)
    clear_cache()
    yield tmp_path
    clear_cache()


class TestCacheKey:
    BASE = ("s_curve", "pure_pursuit", "gps_bias", 1.0, 7, 15.0, None)

    def test_stable(self):
        assert cache_key(*self.BASE) == cache_key(*self.BASE)

    @pytest.mark.parametrize("index,value", [
        (0, "straight"),       # scenario
        (1, "stanley"),        # controller
        (2, "gps_drift"),      # attack
        (3, 0.5),              # intensity
        (4, 8),                # seed
        (5, 10.0),             # onset
        (6, 30.0),             # duration
    ])
    def test_any_coordinate_changes_key(self, index, value):
        changed = list(self.BASE)
        changed[index] = value
        assert cache_key(*changed) != cache_key(*self.BASE)

    def test_catalog_fingerprint_changes_key(self):
        assert (cache_key(*self.BASE, catalog="deadbeef")
                != cache_key(*self.BASE))

    def test_default_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"
        cache = RunCache()
        assert cache.root == tmp_path / "alt" / f"v{CACHE_FORMAT_VERSION}"


class TestDiskRoundTrip:
    def test_hit_after_memo_clear(self, fresh_cache):
        first = run_grid(**POINT)[0]
        assert STATS.last.executed == 1
        clear_cache()  # memo gone, disk stays
        second = run_grid(**POINT)[0]
        assert STATS.last.disk_hits == 1
        assert STATS.last.executed == 0
        # Bit-identical scoring either way.
        assert second.report.fired_ids == first.report.fired_ids
        assert second.report.duration == first.report.duration
        assert ([d.cause for d in second.diagnosis.ranking]
                == [d.cause for d in first.diagnosis.ranking])
        assert second.result.metrics == first.result.metrics
        assert second.result.trace.records == first.result.trace.records

    def test_changed_inputs_miss(self, fresh_cache):
        run_grid(**POINT)
        clear_cache()
        changed = dict(POINT, seeds=(8,))
        run_grid(**changed)
        assert STATS.last.disk_hits == 0
        assert STATS.last.executed == 1

    def test_corrupt_trace_silently_reruns(self, fresh_cache):
        from repro.trace.io import trace_from_bytes

        run_grid(**POINT)
        traces = list(fresh_cache.rglob("*.trace.npz"))
        assert traces, "cache wrote no trace payloads"
        traces[0].write_bytes(b"this is not a trace payload")
        clear_cache()
        runs = run_grid(**POINT)  # must re-simulate, not raise
        assert len(runs) == 1
        assert STATS.last.executed == 1
        assert STATS.last.disk_errors >= 1
        # The corrupt entry was evicted and rewritten as a valid trace.
        assert len(trace_from_bytes(traces[0].read_bytes())) > 0

    def test_corrupt_pickle_silently_reruns(self, fresh_cache):
        run_grid(**POINT)
        scored = list(fresh_cache.rglob("*.scored.pkl"))
        assert scored
        scored[0].write_bytes(b"\x80garbage")
        clear_cache()
        assert len(run_grid(**POINT)) == 1
        assert STATS.last.executed == 1

    def test_truncated_pickle_silently_reruns(self, fresh_cache):
        run_grid(**POINT)
        scored = list(fresh_cache.rglob("*.scored.pkl"))
        data = scored[0].read_bytes()
        scored[0].write_bytes(data[: len(data) // 2])
        clear_cache()
        assert len(run_grid(**POINT)) == 1
        assert STATS.last.executed == 1

    def test_cache_disabled_by_env(self, fresh_cache, monkeypatch):
        monkeypatch.setenv("ADASSURE_CACHE", "0")
        run_grid(**POINT)
        assert not any(fresh_cache.rglob("*.scored.pkl"))
        clear_cache()
        run_grid(**POINT)
        assert STATS.last.disk_hits == 0
        assert STATS.last.executed == 1

    def test_clear_cache_disk_flag(self, fresh_cache):
        run_grid(**POINT)
        assert any(fresh_cache.rglob("*.scored.pkl"))
        clear_cache(disk=True)
        assert not any(fresh_cache.rglob("*.scored.pkl"))


class TestStaleDiagnosis:
    """No salt covers the knowledge base, so a grid entry read from disk
    is re-diagnosed from its stored report: an edited knowledge base is
    served at once, without re-simulating."""

    @staticmethod
    def refined(report):
        """The built-in profiles plus one that predicts exactly what
        fired (the refine step adding a cause)."""
        from repro.core.knowledge import CauseProfile, default_knowledge_base

        kb = default_knowledge_base()
        kb.add(CauseProfile("refined", "added after the cold run",
                            {aid: 0.98 for aid in report.fired_ids}))
        return kb

    @staticmethod
    def higher_false_positive_rate(report, monkeypatch):
        """A source edit of the false-positive rate, 0.06 -> 0.30."""
        import repro.core.knowledge as knowledge

        monkeypatch.setattr(knowledge, "FALSE_POSITIVE_RATE", 0.30)
        return knowledge.default_knowledge_base()

    @pytest.mark.parametrize("edit", ["refined", "higher_false_positive_rate"])
    def test_warm_grid_serves_the_edited_knowledge_base(
            self, fresh_cache, monkeypatch, edit):
        import repro.core.diagnosis as diagnosis

        cold = run_grid(**POINT)[0]
        assert STATS.last.executed == 1
        kb = (self.refined(cold.report) if edit == "refined" else
              self.higher_false_positive_rate(cold.report, monkeypatch))
        monkeypatch.setattr(diagnosis, "_DEFAULT_KB", kb)
        clear_cache()  # memo gone, disk stays: a new process's view
        warm = run_grid(**POINT)[0]
        assert STATS.last.executed == 0
        assert STATS.last.disk_hits == 1

        want = diagnosis.diagnose(warm.report, kb).ranking
        assert warm.diagnosis.ranking == want
        assert warm.diagnosis.ranking != cold.diagnosis.ranking
        if edit == "refined":
            assert warm.diagnosis.rank_of("refined") is not None
            assert cold.diagnosis.rank_of("refined") is None


class TestRunScored:
    """Off-grid runs (E10-E13 style) go through the same cache layers."""

    @staticmethod
    def _spec(seed=3):
        from repro.attacks.campaign import standard_attack
        from repro.sim.engine import lane_spec
        from repro.sim.scenario import standard_scenarios

        scenario = standard_scenarios(seed=seed, duration=12.0)["s_curve"]
        return lane_spec(scenario, controller="pure_pursuit",
                         campaign=standard_attack("gps_bias", onset=5.0))

    PARAMS = {"kind": "test", "scenario": "s_curve", "attack": "gps_bias",
              "seed": 3, "onset": 5.0, "duration": 12.0}

    def test_layers_and_identity(self, fresh_cache):
        result, report = run_scored(self.PARAMS, self._spec)
        assert STATS.last.executed == 1
        # Second call: memo hit, no simulation.
        again = run_scored(self.PARAMS, self._spec)
        assert STATS.last.memo_hits == 1
        assert again[1].fired_ids == report.fired_ids
        # Memo cleared: served from disk, still identical.
        clear_cache()
        res2, rep2 = run_scored(self.PARAMS, self._spec)
        assert STATS.last.disk_hits == 1
        assert rep2.fired_ids == report.fired_ids
        assert res2.metrics == result.metrics
        assert res2.trace.records == result.trace.records

    def test_different_params_execute(self, fresh_cache):
        run_scored(self.PARAMS, self._spec)
        run_scored(dict(self.PARAMS, seed=4), lambda: self._spec(4))
        assert STATS.last.executed == 1


class TestStoredCrash:
    """A deterministic simulator crash is stored like a result."""

    PARAMS = {"kind": "test-crash", "seed": 3}
    MESSAGE = "cannot normalize non-finite angle nan"

    @pytest.fixture()
    def crashing(self):
        calls = []

        def simulate():
            calls.append(1)
            raise ValueError(self.MESSAGE)

        return simulate, calls

    def _failure_files(self, root):
        return list(root.rglob("*.failure.json"))

    def test_cold_run_stores_and_counts_the_crash(self, fresh_cache,
                                                   crashing):
        simulate, calls = crashing
        with pytest.raises(ValueError, match=self.MESSAGE):
            run_scored(self.PARAMS, simulate)
        assert calls == [1]
        assert STATS.last.executed == 1
        assert STATS.last.phase_time["simulate"] > 0.0
        assert len(self._failure_files(fresh_cache)) == 1
        assert RunCache().stats()["entries"] == 1

    @pytest.mark.parametrize("layer", ["memo", "disk"])
    def test_warm_run_reraises_without_simulating(self, fresh_cache,
                                                  crashing, layer):
        simulate, calls = crashing
        with pytest.raises(ValueError):
            run_scored(self.PARAMS, simulate)
        if layer == "disk":
            clear_cache()
        with pytest.raises(ValueError) as warm:
            run_scored(self.PARAMS, simulate)
        assert type(warm.value) is ValueError
        assert str(warm.value) == self.MESSAGE
        assert calls == [1]
        last = STATS.last
        assert last.executed == 0
        assert (last.memo_hits, last.disk_hits) == (
            (1, 0) if layer == "memo" else (0, 1))

    def test_corrupt_entry_simulates_again(self, fresh_cache, crashing):
        simulate, calls = crashing
        with pytest.raises(ValueError):
            run_scored(self.PARAMS, simulate)
        (entry,) = self._failure_files(fresh_cache)
        entry.write_bytes(b"\x00not json")
        clear_cache()
        with pytest.raises(ValueError, match=self.MESSAGE):
            run_scored(self.PARAMS, simulate)
        assert calls == [1, 1]
        assert STATS.last.executed == 1
        assert STATS.last.disk_errors == 1
        assert len(self._failure_files(fresh_cache)) == 1  # re-stored

    def test_evict_removes_the_entry(self, fresh_cache, crashing):
        simulate, calls = crashing
        with pytest.raises(ValueError):
            run_scored(self.PARAMS, simulate)
        cache = RunCache()
        (entry,) = self._failure_files(fresh_cache)
        cache.evict(entry.name.split(".")[0])
        assert not self._failure_files(fresh_cache)
        clear_cache()
        with pytest.raises(ValueError):
            run_scored(self.PARAMS, simulate)
        assert calls == [1, 1]

    @pytest.mark.parametrize("error", [RuntimeError("flaky"),
                                       KeyError("config")])
    def test_other_errors_are_not_stored(self, fresh_cache, error):
        calls = []

        def simulate():
            calls.append(1)
            raise error

        for _ in range(2):
            with pytest.raises(type(error)):
                run_scored(self.PARAMS, simulate)
            assert STATS.last.executed == 1
        assert calls == [1, 1]
        assert not self._failure_files(fresh_cache)

    def test_value_error_subclasses_are_not_stored(self, fresh_cache):
        import json

        calls = []

        def simulate():
            calls.append(1)
            json.loads("{")  # json.JSONDecodeError is a ValueError

        for _ in range(2):
            with pytest.raises(json.JSONDecodeError):
                run_scored(self.PARAMS, simulate)
        assert calls == [1, 1]
        assert not self._failure_files(fresh_cache)


class TestMemoLru:
    def test_memo_is_bounded(self, fresh_cache):
        set_memo_limit(2)
        try:
            for seed in (1, 2, 3, 4):
                run_grid(**dict(POINT, seeds=(seed,)))
            assert len(_MEMO) == 2
            # Most recent seeds survive, oldest were evicted.
            kept_seeds = {key[4] for key in _MEMO}
            assert kept_seeds == {3, 4}
        finally:
            set_memo_limit(512)

    def test_evicted_point_served_from_disk(self, fresh_cache):
        set_memo_limit(1)
        try:
            run_grid(**dict(POINT, seeds=(1,)))
            run_grid(**dict(POINT, seeds=(2,)))  # evicts seed 1 from memo
            run_grid(**dict(POINT, seeds=(1,)))
            assert STATS.last.disk_hits == 1
            assert STATS.last.executed == 0
        finally:
            set_memo_limit(512)

    def test_set_memo_limit_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            set_memo_limit(0)


class TestCacheCli:
    def test_stats_and_clear(self, fresh_cache, capsys):
        run_grid(**POINT)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries    : 1" in out
        assert str(fresh_cache) in out
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 cached run(s)" in out
        assert main(["cache", "stats"]) == 0
        assert "entries    : 0" in capsys.readouterr().out
