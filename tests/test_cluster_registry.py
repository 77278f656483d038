"""Tests for the on-disk worker registry (repro.cluster.registry)."""

from __future__ import annotations

import os
import time

import pytest

from repro.cluster.registry import (
    WORKERS_SUBDIR,
    WorkerAnnouncement,
    WorkerRegistry,
    write_json_atomic,
)


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
        announcement = make_announcement(models=["m:1", "n:2"])
        restored = WorkerAnnouncement.from_record(announcement.to_record())
        assert restored == announcement

    def test_age_and_same_host(self):
        announcement = make_announcement(heartbeat_at=100.0)
        assert announcement.age_s(now=103.5) == pytest.approx(3.5)
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
        # announce() stamped liveness and start times.
        assert workers["w0"].heartbeat_at > 0
        assert workers["w0"].started_at > 0
        assert registry.worker("w0").worker_id == "w0"
        assert registry.worker("missing") is None

    def test_heartbeat_refreshes_in_place(self, tmp_path):
        registry = WorkerRegistry(str(tmp_path))
        announcement = make_announcement("w0")
        registry.announce(announcement)
        first = registry.worker("w0").heartbeat_at
        time.sleep(0.01)
        registry.announce(announcement)
        assert registry.worker("w0").heartbeat_at > first
        assert len(registry.workers()) == 1

    def test_live_workers_ages_out_stale_records(self, tmp_path):
        registry = WorkerRegistry(str(tmp_path))
        registry.announce(make_announcement("fresh"))
        stale = make_announcement("stale", port=9001)
        registry.announce(stale)
        # Backdate the stale worker's heartbeat past any reasonable TTL.
        stale.heartbeat_at = time.time() - 60.0
        stale.started_at = stale.heartbeat_at
        path = os.path.join(str(tmp_path), WORKERS_SUBDIR, "stale.json")
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(stale.to_record(), handle)
        live = registry.live_workers(ttl_s=5.0)
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

    def test_live_workers_sorted_by_id(self, tmp_path):
        registry = WorkerRegistry(str(tmp_path))
        for worker_id in ("b", "c", "a"):
            registry.announce(make_announcement(worker_id))
        assert [w.worker_id for w in registry.live_workers()] == ["a", "b", "c"]


class TestAtomicJsonWrite:
    def test_failed_write_leaves_old_record_and_no_tmp_file(self, tmp_path, monkeypatch):
        from repro.cluster import registry as registry_module
        from repro.cluster.ingress import INGRESS_FILE, read_ingress

        path = str(tmp_path / INGRESS_FILE)
        write_json_atomic(path, {"port": 1})

        def disk_full(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(registry_module.os, "fsync", disk_full)
        with pytest.raises(OSError):
            write_json_atomic(path, {"port": 2})
        monkeypatch.undo()

        assert read_ingress(str(tmp_path)) == {"port": 1}
        assert os.listdir(str(tmp_path)) == [INGRESS_FILE]

    def test_unserialisable_record_never_touches_the_directory(self, tmp_path):
        with pytest.raises(TypeError):
            write_json_atomic(str(tmp_path / "ingress.json"), {"port": object()})
        assert os.listdir(str(tmp_path)) == []
