"""Tests for the versioned model registry and its optimistic concurrency."""

import threading

import pytest

from repro.core.exceptions import ManagementError
from repro.management.records import (
    VERSION_CANARY,
    VERSION_RETIRED,
    VERSION_SERVING,
    VERSION_STAGED,
    VERSION_UNDEPLOYED,
)
from repro.management import registry as registry_module
from repro.management.registry import ModelRegistry
from repro.routing.split import TrafficSplit
from repro.state.kvstore import KeyValueStore


SPEC = {"name": "svm", "num_replicas": 1}


def routing(stable, canary=None, previous=None, weight=0.25):
    """A routing record as the frontend projects it from the live table."""
    if canary is None:
        split = TrafficSplit.single(f"svm:{stable}")
    else:
        split = TrafficSplit.canary_split(f"svm:{stable}", f"svm:{canary}", weight)
    record = split.to_record()
    record["previous"] = None if previous is None else f"svm:{previous}"
    return record


def make_registry(versions=()):
    registry = ModelRegistry()
    registry.register_application("app")
    for version in versions:
        registry.project("app", "svm", None, version, spec=SPEC)
    return registry


SPEC = {"name": "svm", "num_replicas": 1}


def routing(stable, canary=None, previous=None, weight=0.25):
    """A routing record as the frontend projects it from the live table."""
    if canary is None:
        split = TrafficSplit.single(f"svm:{stable}")
    else:
        split = TrafficSplit.canary_split(f"svm:{stable}", f"svm:{canary}", weight)
    record = split.to_record()
    record["previous"] = None if previous is None else f"svm:{previous}"
    return record


def make_registry(versions=()):
    registry = ModelRegistry()
    registry.register_application("app")
    for version in versions:
        registry.project("app", "svm", None, version, spec=SPEC)
    return registry


class TestApplications:
    def test_register_and_list(self):
        registry = ModelRegistry()
        registry.register_application("vision")
        registry.register_application("speech")
        assert registry.applications() == ["speech", "vision"]
        assert "registered_at" in registry.application("vision")

    def test_duplicate_application_rejected(self):
        registry = ModelRegistry()
        registry.register_application("vision")
        with pytest.raises(ManagementError):
            registry.register_application("vision")

    def test_unknown_application_rejected(self):
        registry = ModelRegistry()
        with pytest.raises(ManagementError):
            registry.project("ghost", "m", None, 1, spec=SPEC)
        with pytest.raises(ManagementError):
            registry.models("ghost")


class TestModelVersions:
    def test_first_serving_version(self):
        registry = make_registry()
        record = registry.project("app", "svm", routing(1), 1, spec=SPEC)
        assert record["active_version"] == 1
        assert record["versions"]["1"]["state"] == VERSION_SERVING
        assert record["versions"]["1"]["spec"] == SPEC

    def test_later_version_stages(self):
        registry = make_registry()
        registry.project("app", "svm", routing(1), 1, spec=SPEC)
        record = registry.project(
            "app", "svm", routing(1), 2, spec={**SPEC, "num_replicas": 2}
        )
        assert record["active_version"] == 1
        assert record["versions"]["2"]["state"] == VERSION_STAGED
        assert record["versions"]["2"]["num_replicas"] == 2

    def test_versions_are_immutable(self):
        registry = make_registry(versions=[1])
        with pytest.raises(ManagementError):
            registry.project("app", "svm", None, 1, spec=SPEC)
        # The mark keeps the number used: an undeployed version is history.
        registry.project("app", "svm", None, 1, undeployed=True)
        with pytest.raises(ManagementError):
            registry.project("app", "svm", None, 1, spec=SPEC)

    def test_states_are_read_off_the_routing_record(self):
        registry = make_registry(versions=[1, 2, 3])

        def states(record):
            model = registry.project("app", "svm", record)
            return {v: rec["state"] for v, rec in model["versions"].items()}, model

        # A rollout then its rollback: stored as two routing records, no
        # transition is computed here.
        got, model = states(routing(2, previous=1))
        assert got == {"1": VERSION_RETIRED, "2": VERSION_SERVING, "3": VERSION_STAGED}
        assert (model["active_version"], model["previous_version"]) == (2, 1)
        assert "traffic_split" not in model
        got, model = states(routing(1, previous=2))
        assert got == {"1": VERSION_SERVING, "2": VERSION_RETIRED, "3": VERSION_STAGED}

        # A canary in flight — of the rollback target, too: canary wins.
        got, model = states(routing(1, canary=3, previous=2))
        assert got == {"1": VERSION_SERVING, "2": VERSION_RETIRED, "3": VERSION_CANARY}
        in_flight = routing(1, canary=3)
        del in_flight["previous"]
        assert model["traffic_split"] == in_flight  # = TrafficSplit.to_record()
        got, _ = states(routing(1, canary=2, previous=2))
        assert got["2"] == VERSION_CANARY

        # ``retired`` is the rollback key and nothing else: a version
        # displaced two rollouts ago reads staged.
        got, _ = states(routing(3, previous=2))
        assert got == {"1": VERSION_STAGED, "2": VERSION_RETIRED, "3": VERSION_SERVING}

        # Nothing routed.
        got, model = states(None)
        assert set(got.values()) == {VERSION_STAGED}
        assert (model["active_version"], model["previous_version"]) == (None, None)

    def test_undeployed_mark_is_kept_and_wins(self):
        registry = make_registry(versions=[1, 2])
        record = registry.project("app", "svm", routing(1), 2, undeployed=True)
        assert record["versions"]["2"]["state"] == VERSION_UNDEPLOYED
        # Later projections leave the mark alone.
        record = registry.project("app", "svm", routing(1), 2, num_replicas=3)
        assert record["versions"]["2"]["state"] == VERSION_UNDEPLOYED
        record = registry.project("app", "svm", None, 1, undeployed=True)
        assert record["active_version"] is None
        assert record["versions"]["1"]["state"] == VERSION_UNDEPLOYED

    def test_touching_an_unregistered_version_rejected(self):
        registry = make_registry(versions=[1])
        with pytest.raises(ManagementError):
            registry.project("app", "svm", routing(1), 9, num_replicas=2)
        # ... and the refused write stored nothing.
        assert registry.model("app", "svm")["routing"] is None

    def test_num_replicas_follows_scaling(self):
        registry = make_registry(versions=[1])
        record = registry.project("app", "svm", routing(1), 1, num_replicas=4)
        assert record["versions"]["1"]["num_replicas"] == 4
        assert record["versions"]["1"]["spec"] == SPEC  # the spec never moves

    def test_routing_is_stored_verbatim(self):
        registry = make_registry(versions=[1, 2])
        record = routing(1, canary=2, previous=None, weight=0.125)
        assert registry.project("app", "svm", record)["routing"] == record
        record["arms"][0][1] = 0.0  # the caller's dict is not the stored one
        assert registry.model("app", "svm")["routing"]["arms"][0][1] == 0.875


class TestOptimisticConcurrency:
    def test_two_concurrent_writers_both_land(self):
        """Interleaved writers on the same record must not lose updates."""
        store = KeyValueStore()
        registry_a = ModelRegistry(store=store)
        registry_b = ModelRegistry(store=store)
        registry_a.register_application("app")

        versions_per_writer = 25
        barrier = threading.Barrier(2)
        errors = []

        def writer(registry, offset):
            try:
                barrier.wait()
                for i in range(versions_per_writer):
                    registry.project("app", "svm", None, offset + i, spec=SPEC)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(registry_a, 0)),
            threading.Thread(target=writer, args=(registry_b, 1000)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        record = registry_a.model("app", "svm")
        assert len(record["versions"]) == 2 * versions_per_writer

    def test_conflicting_insert_raises_not_overwrites(self):
        """Both writers registering the same version: exactly one wins."""
        store = KeyValueStore()
        registry_a = ModelRegistry(store=store)
        registry_b = ModelRegistry(store=store)
        registry_a.register_application("app")
        registry_a.project("app", "svm", None, 1, spec={"writer": "a"})
        with pytest.raises(ManagementError):
            registry_b.project("app", "svm", None, 1, spec={"writer": "b"})
        assert registry_a.model("app", "svm")["versions"]["1"]["spec"] == {
            "writer": "a"
        }

    def test_cas_exhaustion_raises(self, monkeypatch):
        attempts = []

        class AlwaysLosing(KeyValueStore):
            def put_if_version(self, namespace, key, value, expected_version):
                attempts.append(key)
                return False

        monkeypatch.setattr(registry_module, "MAX_CAS_RETRIES", 3)
        registry = ModelRegistry(store=AlwaysLosing())
        with pytest.raises(ManagementError, match="optimistic-concurrency"):
            registry.register_application("app")
        assert len(attempts) == 3
