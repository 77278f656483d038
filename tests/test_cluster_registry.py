"""Tests for the on-disk worker registry (repro.cluster.registry)."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.cluster.registry import WORKERS_SUBDIR, WorkerAnnouncement, WorkerRegistry
from repro.core import clock
from simloop import ManualClock


def make_announcement(worker_id="w0", port=9000, **overrides):
    fields = dict(
        worker_id=worker_id,
        host="hostA",
        pid=1234,
        tcp_host="127.0.0.1",
        tcp_port=port,
        shm_supported=True,
    )
    fields.update(overrides)
    return WorkerAnnouncement(**fields)


class TestAnnouncementRecord:
    def test_round_trip(self):
        announcement = make_announcement(ttl_s=1.5, heartbeat_at=100.0)
        restored = WorkerAnnouncement.from_record(announcement.to_record())
        assert restored == announcement

    def test_same_host(self):
        announcement = make_announcement()
        assert announcement.same_host_as("hostA")
        assert not announcement.same_host_as("hostB")


class TestRegistry:
    def test_announce_and_read_back(self, tmp_path):
        registry = WorkerRegistry(str(tmp_path))
        registry.announce(make_announcement("w0"))
        registry.announce(make_announcement("w1", port=9001))
        workers = registry.workers()
        assert sorted(workers) == ["w0", "w1"]
        assert workers["w1"].tcp_port == 9001
        # announce() stamped the liveness time.
        assert workers["w0"].heartbeat_at > 0
        assert "missing" not in workers

    def test_heartbeat_refreshes_in_place(self, tmp_path):
        registry = WorkerRegistry(str(tmp_path))
        announcement = make_announcement("w0")
        registry.announce(announcement)
        first = registry.workers()["w0"].heartbeat_at
        time.sleep(0.01)
        registry.announce(announcement)
        assert registry.workers()["w0"].heartbeat_at > first
        assert len(registry.workers()) == 1

    def test_live_workers_ages_out_stale_records(self, tmp_path):
        registry = WorkerRegistry(str(tmp_path))
        registry.announce(make_announcement("fresh"))
        stale = make_announcement("stale", port=9001)
        registry.announce(stale)
        # Backdate the stale worker's heartbeat past any reasonable TTL.
        stale.heartbeat_at = clock.wall() - 60.0
        path = os.path.join(str(tmp_path), WORKERS_SUBDIR, "stale.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(stale.to_record(), handle)
        live = registry.live_workers()
        assert [w.worker_id for w in live] == ["fresh"]
        # Both still visible to the raw scan.
        assert sorted(registry.workers()) == ["fresh", "stale"]

    def test_withdraw_removes_the_record(self, tmp_path):
        registry = WorkerRegistry(str(tmp_path))
        registry.announce(make_announcement("w0"))
        registry.withdraw("w0")
        assert registry.workers() == {}
        registry.withdraw("w0")  # idempotent

    def test_unparseable_records_are_skipped(self, tmp_path):
        registry = WorkerRegistry(str(tmp_path))
        registry.announce(make_announcement("good"))
        junk = os.path.join(str(tmp_path), WORKERS_SUBDIR, "junk.json")
        with open(junk, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert sorted(registry.workers()) == ["good"]

    def test_invalid_worker_ids_rejected(self, tmp_path):
        registry = WorkerRegistry(str(tmp_path))
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                registry.announce(make_announcement(bad))

    def test_unserialisable_announcement_never_touches_the_directory(self, tmp_path):
        registry = WorkerRegistry(str(tmp_path))
        registry.announce(make_announcement("w0"))
        with pytest.raises(TypeError):
            registry.announce(make_announcement("w0", tcp_host=object()))
        with pytest.raises(TypeError):
            registry.announce(make_announcement("w1", tcp_host=object()))
        assert os.listdir(os.path.join(str(tmp_path), WORKERS_SUBDIR)) == ["w0.json"]
        assert registry.workers()["w0"].tcp_host == "127.0.0.1"

    def test_live_workers_sorted_by_id(self, tmp_path):
        registry = WorkerRegistry(str(tmp_path))
        for worker_id in ("b", "c", "a"):
            registry.announce(make_announcement(worker_id))
        assert [w.worker_id for w in registry.live_workers()] == ["a", "b", "c"]


class TestLivenessClock:
    def test_wall_clock_steps_do_not_change_the_live_set(self, tmp_path, monkeypatch):
        hand = ManualClock(monkeypatch)
        registry = WorkerRegistry(str(tmp_path))
        steady = make_announcement("steady", ttl_s=5.0)
        registry.announce(steady)
        registry.announce(make_announcement("stopped", port=9001, ttl_s=5.0))

        def live():
            return [w.worker_id for w in registry.live_workers()]

        assert live() == ["steady", "stopped"]
        for step in (3600.0, -7200.0, 3600.0):
            hand.wall += step
            assert live() == ["steady", "stopped"]

        # "stopped" never heartbeats again; "steady" does, once a second,
        # while the wall clock jumps an hour back in the middle.
        for second in range(1, 8):
            hand.advance(1.0)
            if second == 3:
                hand.wall -= 3600.0
            registry.announce(steady)
            expected = ["steady", "stopped"] if second <= 5 else ["steady"]
            assert live() == expected, second

    def test_a_worker_ages_out_after_the_ttl_it_announced(self, tmp_path, monkeypatch):
        hand = ManualClock(monkeypatch)
        registry = WorkerRegistry(str(tmp_path))
        registry.announce(make_announcement("short", ttl_s=1.0))
        registry.announce(make_announcement("long", port=9001, ttl_s=10.0))
        assert [w.worker_id for w in registry.live_workers()] == ["long", "short"]
        hand.advance(2.0)
        assert [w.worker_id for w in registry.live_workers()] == ["long"]
        # A reader that first looks now places the heartbeats by wall clock.
        late_reader = WorkerRegistry(str(tmp_path))
        assert [w.worker_id for w in late_reader.live_workers()] == ["long"]

    def test_a_change_seen_after_a_long_gap_is_dated_by_the_wall_clock(
        self, tmp_path, monkeypatch
    ):
        hand = ManualClock(monkeypatch)
        registry = WorkerRegistry(str(tmp_path))
        dead = make_announcement("dead", ttl_s=5.0)
        beating = make_announcement("beating", port=9001, ttl_s=5.0)
        registry.announce(dead)
        registry.announce(beating)
        assert [w.worker_id for w in registry.live_workers()] == ["beating", "dead"]
        # "dead" heartbeats once more and is killed; nobody scans for a minute.
        hand.advance(1.0)
        registry.announce(dead)
        hand.advance(60.0)
        registry.announce(beating)
        assert [w.worker_id for w in registry.live_workers()] == ["beating"]
