"""Abuse tests for the on-disk run cache.

The cache is an accelerator, never a point of failure: torn writes,
unpicklable payloads and concurrent writers may cost a re-simulation but
must never crash a campaign or serve a corrupt entry.
"""

import threading

import pytest

from repro.core.checker import check_trace
from repro.experiments.cache import RunCache, cache_key
from repro.sim.engine import run_scenario

from conftest import short_scenario

KEY_ARGS = ("s_curve", "pure_pursuit", "none", 1.0, 7, 5.0, 12.0)


@pytest.fixture(scope="module")
def scored_run():
    result = run_scenario(short_scenario("s_curve", duration=12.0))
    report = check_trace(result.trace)
    return result, report


@pytest.fixture()
def cache(tmp_path):
    return RunCache(root=tmp_path)


class TestTornEntries:
    def test_truncated_trace_payload_is_evicted(self, cache, scored_run):
        result, report = scored_run
        key = cache_key(*KEY_ARGS)
        cache.store(key, result, report, None)
        trace_path = cache._trace_path(key)
        data = trace_path.read_bytes()
        trace_path.write_bytes(data[: len(data) // 2])
        # A binary payload cut mid-stream cannot be read back; load must
        # reject + evict it rather than serve a shortened trace.
        assert cache.load(key) is None
        assert cache.counters.errors == 1
        assert not trace_path.exists()

    def test_truncated_pickle_payload_is_evicted(self, cache, scored_run):
        result, report = scored_run
        key = cache_key(*KEY_ARGS)
        cache.store(key, result, report, None)
        scored_path = cache._scored_path(key)
        data = scored_path.read_bytes()
        scored_path.write_bytes(data[: len(data) // 2])
        assert cache.load(key) is None
        assert not scored_path.exists()
        assert not cache._trace_path(key).exists()  # pair fully dropped

    def test_missing_half_of_pair_is_a_miss(self, cache, scored_run):
        result, report = scored_run
        key = cache_key(*KEY_ARGS)
        cache.store(key, result, report, None)
        cache._scored_path(key).unlink()
        assert cache.load(key) is None
        assert cache.counters.misses == 1

    def test_wrong_payload_type_is_evicted(self, cache, scored_run):
        result, report = scored_run
        key = cache_key(*KEY_ARGS)
        cache.store(key, result, report, None)
        scored = {"metrics": result.metrics, "outcome": result.outcome,
                  "scenario": result.scenario,
                  "controller_name": result.controller_name,
                  "attack_label": result.attack_label,
                  "report": "not a CheckReport", "diagnosis": None}
        import pickle
        cache._scored_path(key).write_bytes(pickle.dumps(scored))
        assert cache.load(key) is None
        assert cache.counters.errors == 1


class TestUnstorablePayloads:
    def test_unpicklable_report_fails_toward_miss(self, cache, scored_run):
        result, report = scored_run
        key = cache_key(*KEY_ARGS)
        poisoned = lambda: None  # noqa: E731 — lambdas cannot pickle
        cache.store(key, result, poisoned, None)
        assert cache.counters.errors == 1
        assert cache.counters.stores == 0
        # The torn half-write (trace landed, pickle failed) was dropped.
        assert not cache.contains(key)
        assert cache.load(key) is None

    def test_store_after_failure_recovers(self, cache, scored_run):
        result, report = scored_run
        key = cache_key(*KEY_ARGS)
        cache.store(key, result, lambda: None, None)
        cache.store(key, result, report, None)
        assert cache.counters.stores == 1
        entry = cache.load(key)
        assert entry is not None
        assert entry[1].fired_ids == report.fired_ids


class TestConcurrentWriters:
    def test_racing_writers_leave_valid_or_absent_entry(self, cache,
                                                        scored_run):
        result, report = scored_run
        key = cache_key(*KEY_ARGS)
        errors = []

        def writer():
            try:
                for _ in range(5):
                    cache.store(key, result, report, None)
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        entry = cache.load(key)  # valid entry or clean miss, never corrupt
        if entry is not None:
            loaded_result, loaded_report, _ = entry
            assert loaded_report.fired_ids == report.fired_ids
            assert len(loaded_result.trace) == len(result.trace)

    def test_distinct_keys_never_interfere(self, cache, scored_run):
        result, report = scored_run
        keys = [cache_key(*KEY_ARGS[:4], seed, *KEY_ARGS[5:])
                for seed in range(8)]

        def writer(key):
            cache.store(key, result, report, None)

        threads = [threading.Thread(target=writer, args=(k,)) for k in keys]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for key in keys:
            entry = cache.load(key)
            assert entry is not None
            assert entry[1].fired_ids == report.fired_ids

    def test_tmp_files_never_linger(self, cache, scored_run, tmp_path):
        result, report = scored_run
        cache.store(cache_key(*KEY_ARGS), result, report, None)
        assert not list(tmp_path.rglob("*.tmp.*"))


class TestDoubleExecution:
    def test_double_execution_commits_identical_bytes(self, cache):
        # The same point executed twice (a re-run, a second campaign on
        # the same cache): the content-addressed commit collapses both to
        # one entry with identical payloads.
        from repro.core.diagnosis import diagnose
        from repro.experiments.runner import grid_spec

        point = ("s_curve", "pure_pursuit", "gps_bias", 1.0, 1, 5.0, 6.0)
        key = cache_key(*point)

        def execute_point():
            result = grid_spec(point).run()
            report = check_trace(result.trace)
            return result, report, diagnose(report)

        cache.store(key, *execute_point())
        first = (cache._trace_path(key).read_bytes(),
                 cache._scored_path(key).read_bytes())
        cache.store(key, *execute_point())
        assert (cache._trace_path(key).read_bytes(),
                cache._scored_path(key).read_bytes()) == first
        assert cache.stats()["entries"] == 1
