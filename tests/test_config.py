"""``ADASSURE_*`` knobs: one parser each, loud on malformed values.

Every numeric knob resolves through :func:`repro.config.env_number` and
every switch through :func:`repro.config.env_flag`; a value that does
not parse raises a ``ValueError`` naming the variable and the value
instead of silently running with the default.
"""

from __future__ import annotations

import pytest

from repro.config import env_flag, env_number


def _memo_limit():
    from repro.experiments.runner import _memo_limit
    return _memo_limit()


def _batch_lanes():
    from repro.experiments.backend import batch_lanes
    return batch_lanes()


def _point_retries():
    from repro.experiments.runner import _point_retries
    return _point_retries(None)


def _retry_cap():
    from repro.experiments.backend import retry_cap
    return retry_cap()


def _run_cache():
    from repro.experiments.cache import RunCache
    return RunCache.from_env()


def _lease_ttl():
    from repro.locking import default_lease_ttl
    return default_lease_ttl()


KNOBS = [
    ("ADASSURE_MEMO_LIMIT", "lots", _memo_limit),
    ("ADASSURE_BATCH_LANES", "64x", _batch_lanes),
    ("ADASSURE_POINT_RETRIES", "two", _point_retries),
    ("ADASSURE_RETRY_CAP", "30s", _retry_cap),
    ("ADASSURE_LEASE_TTL", "1min", _lease_ttl),
    ("ADASSURE_CACHE", "disable", _run_cache),
    ("ADASSURE_CACHE", "2", _run_cache),
    ("ADASSURE_CACHE", "offf", _run_cache),
]


@pytest.mark.parametrize("name, value, resolve", KNOBS,
                         ids=[name for name, _, _ in KNOBS])
def test_malformed_knob_raises_naming_variable_and_value(
        monkeypatch, name, value, resolve):
    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError) as excinfo:
        resolve()
    assert name in str(excinfo.value)
    assert repr(value) in str(excinfo.value)


def test_unset_and_blank_mean_default(monkeypatch):
    monkeypatch.delenv("ADASSURE_TEST_KNOB", raising=False)
    assert env_number("ADASSURE_TEST_KNOB", 7) == 7
    monkeypatch.setenv("ADASSURE_TEST_KNOB", "  ")
    assert env_number("ADASSURE_TEST_KNOB", 2.5, float) == 2.5
    monkeypatch.setenv("ADASSURE_TEST_KNOB", " 12 ")
    assert env_number("ADASSURE_TEST_KNOB", 7) == 12


@pytest.mark.parametrize("value, expected", [
    ("1", True), ("on", True), ("TRUE", True), ("Yes", True),
    ("0", False), ("OFF", False), ("false", False), (" no ", False),
])
def test_flag_spellings(monkeypatch, value, expected):
    monkeypatch.setenv("ADASSURE_TEST_FLAG", value)
    assert env_flag("ADASSURE_TEST_FLAG", not expected) is expected


def test_flag_unset_and_blank_mean_default(monkeypatch):
    monkeypatch.delenv("ADASSURE_TEST_FLAG", raising=False)
    assert env_flag("ADASSURE_TEST_FLAG", True) is True
    monkeypatch.setenv("ADASSURE_TEST_FLAG", "  ")
    assert env_flag("ADASSURE_TEST_FLAG", False) is False


def test_run_cache_switch(monkeypatch):
    monkeypatch.setenv("ADASSURE_CACHE", "Off")
    assert _run_cache() is None
    monkeypatch.setenv("ADASSURE_CACHE", "yes")
    assert _run_cache() is not None
