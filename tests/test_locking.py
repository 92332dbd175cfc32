"""Tests for repro.locking.FileLease: advisory shared-directory guard."""

import json
import time

import pytest

from repro.locking import DEFAULT_LEASE_TTL, FileLease, LeaseConflict


class TestFileLease:
    def test_acquire_release_roundtrip(self, tmp_path):
        lease = FileLease(tmp_path / "grid.lease")
        assert lease.acquire()
        assert lease.held
        assert lease.path.exists()
        lease.release()
        assert not lease.held
        assert not lease.path.exists()

    def test_second_writer_conflicts(self, tmp_path):
        first = FileLease(tmp_path / "grid.lease")
        second = FileLease(tmp_path / "grid.lease")
        assert first.acquire()
        assert not second.acquire()
        assert not second.held
        with pytest.raises(LeaseConflict, match=first.owner_id):
            second.acquire(raising=True)
        # The loser learns who holds the resource.
        assert second.holder()["owner"] == first.owner_id

    def test_released_lease_is_acquirable(self, tmp_path):
        first = FileLease(tmp_path / "grid.lease")
        second = FileLease(tmp_path / "grid.lease")
        first.acquire()
        first.release()
        assert second.acquire()

    def test_reacquire_own_lease_is_idempotent(self, tmp_path):
        lease = FileLease(tmp_path / "grid.lease")
        assert lease.acquire()
        assert lease.acquire()

    def test_stale_lease_broken_after_ttl(self, tmp_path):
        path = tmp_path / "grid.lease"
        abandoned = FileLease(path, ttl=0.05)
        abandoned.acquire()
        time.sleep(0.1)
        taker = FileLease(path, ttl=0.05)
        assert taker.acquire()
        assert taker.holder()["owner"] == taker.owner_id
        # The original owner must not delete the new owner's lease.
        abandoned.release()
        assert path.exists()
        assert taker.holder()["owner"] == taker.owner_id

    def test_refresh_keeps_lease_fresh(self, tmp_path):
        path = tmp_path / "grid.lease"
        owner = FileLease(path, ttl=0.3)
        owner.acquire()
        contender = FileLease(path, ttl=0.3)
        for _ in range(4):
            time.sleep(0.1)
            owner.refresh()
            assert not contender.acquire()

    def test_corrupt_lease_file_treated_as_abandoned(self, tmp_path):
        path = tmp_path / "grid.lease"
        path.write_text("{not json")
        lease = FileLease(path)
        assert lease.acquire()
        assert json.loads(path.read_text())["owner"] == lease.owner_id

    def test_future_heartbeat_is_stale_and_broken(self, tmp_path):
        # A writer whose clock runs a day fast: trusting its heartbeat
        # would lock the resource until tomorrow.
        path = tmp_path / "grid.lease"
        path.write_text(json.dumps(
            {"owner": "delorean", "heartbeat": time.time() + 86400.0}))
        lease = FileLease(path, ttl=5.0)
        assert lease.acquire()
        assert lease.stale_breaks == 1
        assert lease.holder()["owner"] == lease.owner_id
        lease.release()

    def test_context_manager(self, tmp_path):
        path = tmp_path / "grid.lease"
        with FileLease(path) as lease:
            assert lease.held
            with pytest.raises(LeaseConflict):
                FileLease(path).acquire(raising=True)
        assert not path.exists()

    def test_ttl_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADASSURE_LEASE_TTL", "123.5")
        assert FileLease(tmp_path / "x.lease").ttl == 123.5
        monkeypatch.setenv("ADASSURE_LEASE_TTL", "-1")
        assert FileLease(tmp_path / "x.lease").ttl == DEFAULT_LEASE_TTL
        monkeypatch.setenv("ADASSURE_LEASE_TTL", "bogus")
        with pytest.raises(ValueError, match="ADASSURE_LEASE_TTL"):
            FileLease(tmp_path / "x.lease")  # malformed fails loudly
