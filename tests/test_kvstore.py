"""Tests for the in-memory key-value state store (Redis stand-in)."""

import pytest

from repro.core.exceptions import StateStoreError
from repro.state.kvstore import KeyValueStore


class TestBasicOperations:
    def test_put_get_round_trip(self):
        store = KeyValueStore()
        store.put("ns", "key", {"weights": [1, 2]})
        assert store.get("ns", "key") == {"weights": [1, 2]}

    def test_get_missing_returns_default(self):
        store = KeyValueStore()
        assert store.get("ns", "missing") is None
        assert store.get("ns", "missing", default=5) == 5

    def test_namespaces_are_isolated(self):
        store = KeyValueStore()
        store.put("a", "k", 1)
        store.put("b", "k", 2)
        assert store.get("a", "k") == 1
        assert store.get("b", "k") == 2

    def test_delete(self):
        store = KeyValueStore()
        store.put("ns", "k", 1)
        assert store.delete("ns", "k") is True
        assert store.delete("ns", "k") is False
        assert store.get("ns", "k") is None and store.keys("ns") == []

    def test_keys_and_namespaces(self):
        store = KeyValueStore()
        store.put("ns", "b", 1)
        store.put("ns", "a", 2)
        store.put("other", "z", 3)
        assert store.keys("ns") == ["a", "b"]
        assert store.namespaces() == ["ns", "other"]

    def test_clear_namespace_only(self):
        store = KeyValueStore()
        store.put("ns", "a", 1)
        store.put("other", "b", 2)
        store.clear("ns")
        assert store.keys("ns") == []
        assert store.get("other", "b") == 2

    def test_validation_errors(self):
        store = KeyValueStore()
        with pytest.raises(StateStoreError):
            store.put("", "k", 1)
        with pytest.raises(StateStoreError):
            store.get("ns", "")


class TestVersioning:
    def test_versions_increment_on_put(self):
        store = KeyValueStore()
        assert store.put("ns", "k", 1) == 1
        assert store.put("ns", "k", 2) == 2
        value, version = store.get_with_version("ns", "k")
        assert (value, version) == (2, 2)

    def test_put_if_version_succeeds_on_match(self):
        store = KeyValueStore()
        store.put("ns", "k", 1)
        assert store.put_if_version("ns", "k", 2, expected_version=1) is True
        assert store.get("ns", "k") == 2

    def test_put_if_version_fails_on_mismatch(self):
        store = KeyValueStore()
        store.put("ns", "k", 1)
        store.put("ns", "k", 2)
        assert store.put_if_version("ns", "k", 3, expected_version=1) is False
        assert store.get("ns", "k") == 2

    def test_put_if_version_none_means_insert_only(self):
        store = KeyValueStore()
        assert store.put_if_version("ns", "new", 1, expected_version=None) is True
        assert store.put_if_version("ns", "new", 2, expected_version=None) is False


class TestVersionsAcrossDelete:
    """Versions are drawn from one store-wide monotonic sequence, so a stale
    version can never match again after the entry was deleted and the key
    re-created — the ABA hazard of per-key counters that restart at 1."""

    def test_insert_after_delete_succeeds_with_larger_version(self):
        store = KeyValueStore()
        store.put("ns", "k", "old")
        _, old_version = store.get_with_version("ns", "k")
        store.delete("ns", "k")
        assert store.put_if_version("ns", "k", "new", old_version) is False
        assert store.put_if_version("ns", "k", "new", None) is True
        _, new_version = store.get_with_version("ns", "k")
        assert new_version > old_version

    def test_stale_version_never_matches_after_delete_and_reinsert(self):
        store = KeyValueStore()
        store.put("ns", "k", "v1")
        _, stale = store.get_with_version("ns", "k")
        store.delete("ns", "k")
        store.put("ns", "k", "v2")
        assert store.put_if_version("ns", "k", "v3", stale) is False
        assert store.get("ns", "k") == "v2"


class TestConcurrentOptimisticWriters:
    def test_interleaved_cas_loses_no_updates(self):
        """Two management writers CAS-incrementing one record stay linearizable."""
        import threading

        store = KeyValueStore()
        store.put("mgmt", "counter", 0)
        increments_per_writer = 200
        barrier = threading.Barrier(2)

        def writer():
            barrier.wait()
            for _ in range(increments_per_writer):
                while True:
                    value, version = store.get_with_version("mgmt", "counter")
                    if store.put_if_version("mgmt", "counter", value + 1, version):
                        break

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        value, version = store.get_with_version("mgmt", "counter")
        assert value == 2 * increments_per_writer
        # One initial put plus exactly one version bump per successful CAS.
        assert version == 1 + 2 * increments_per_writer

    def test_same_snapshot_cas_admits_exactly_one_winner(self):
        store = KeyValueStore()
        store.put("mgmt", "record", {"owner": None})
        _, version = store.get_with_version("mgmt", "record")
        outcomes = [
            store.put_if_version("mgmt", "record", {"owner": "a"}, version),
            store.put_if_version("mgmt", "record", {"owner": "b"}, version),
        ]
        assert sorted(outcomes) == [False, True]
        assert store.get("mgmt", "record") == {"owner": "a"}
