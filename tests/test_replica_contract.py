"""The ``Replica`` / ``ReplicaSet`` contract, checked for every implementation.

The batching dispatchers, the health monitor and the admin verbs are typed
against :class:`~repro.containers.replica.Replica` and
:class:`~repro.containers.replica.ReplicaSet` and nothing else, so whatever
they rely on is asserted here once per way a replica can come to exist:
the three local lanes (``inprocess`` / ``tcp`` / ``shm``) placed by
:func:`~repro.containers.replica.place_locally`, and ``remote`` —
:class:`~repro.cluster.remote.RemoteReplica` on in-loop worker daemons,
placed by :meth:`~repro.cluster.remote.WorkerPlacer.replica_set`.
Implementation-specific behaviour stays in ``test_replica.py`` and
``test_cluster_remote.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import run_async
from repro.cluster.remote import RemoteReplica, WorkerPlacer
from repro.cluster.worker import WorkerDaemon
from repro.containers.noop import NoOpContainer
from repro.containers.replica import (
    ContainerReplica,
    Replica,
    ReplicaSet,
    place_locally,
)
from repro.core.config import ModelDeployment
from repro.core.exceptions import ContainerError
from repro.core.types import ModelId
from repro.rpc.shm import HAS_SHARED_MEMORY

KINDS = [
    "inprocess",
    "tcp",
    pytest.param(
        "shm",
        marks=[
            pytest.mark.shm,
            pytest.mark.skipif(not HAS_SHARED_MEMORY, reason="no shared memory"),
        ],
    ),
    "remote",
]


class World:
    """Places replica sets of one implementation inside the test's event loop."""

    def __init__(self, kind: str, tmp_path) -> None:
        self.kind = kind
        self._tmp_path = tmp_path
        self._daemons = []
        self._placer = None

    async def __aenter__(self) -> "World":
        if self.kind == "remote":
            for worker_id in ("w0", "w1"):
                daemon = WorkerDaemon(
                    worker_id,
                    str(self._tmp_path),
                    factories={"echo": lambda: NoOpContainer(output=1)},
                )
                await daemon.start()
                self._daemons.append(daemon)
            self._placer = WorkerPlacer(self._daemons[0].registry)
        return self

    async def __aexit__(self, *exc_info) -> None:
        for daemon in self._daemons:
            await daemon.stop()

    def place(self, num_replicas: int = 1, name: str = "m", version: int = 1) -> ReplicaSet:
        """A replica set built by this implementation's placement callable."""
        deployment = ModelDeployment(
            name=name,
            container_factory=lambda: NoOpContainer(output=1),
            version=version,
            factory_name="echo" if self.kind == "remote" else None,
            # The remote lane is forced to tcp: auto-negotiation would pick
            # shared memory on this host, which the shm kind already covers.
            transport="tcp" if self.kind == "remote" else self.kind,
        )
        # Set after validation so ReplicaSet's own guard is what is tested.
        deployment.num_replicas = num_replicas
        model_id = ModelId(name, version)
        if self.kind == "remote":
            return self._placer.replica_set(deployment, model_id)
        return place_locally(deployment, model_id)

    def check_member(self, replica: Replica) -> None:
        """What a member looks like beyond the shared contract."""
        if self.kind == "remote":
            assert isinstance(replica, RemoteReplica)
            assert replica.transport_lane == "tcp"
            assert replica.name == (
                f"{replica.model_id}[{replica.replica_id}]@{replica.worker.worker_id}"
            )
        else:
            assert isinstance(replica, ContainerReplica)
            assert replica.name == f"{replica.model_id}[{replica.replica_id}]"

    def check_replacement(self, sick: Replica, fresh: Replica) -> None:
        """What ``replace_replica`` guarantees beyond same-id / unstarted."""
        if self.kind == "remote":
            # Re-placed, preferring a worker other than the sick replica's.
            assert fresh.worker.worker_id != sick.worker.worker_id
        else:
            assert fresh.container is not sick.container


@pytest.fixture(params=KINDS)
def world(request, tmp_path) -> World:
    return World(request.param, tmp_path)


class TestReplicaContract:
    def test_predict_batch_round_trip(self, world):
        async def scenario():
            async with world:
                (replica,) = world.place()
                assert not replica.started
                await replica.start()
                assert replica.started
                response = await replica.predict_batch([np.zeros(2)] * 3)
                assert response.ok
                assert response.outputs == [1, 1, 1]
                await replica.stop()
                assert not replica.started

        run_async(scenario())

    def test_predict_before_start_raises(self, world):
        async def scenario():
            async with world:
                (replica,) = world.place()
                with pytest.raises(ContainerError):
                    await replica.predict_batch([np.zeros(2)])

        run_async(scenario())

    def test_start_is_idempotent(self, world):
        async def scenario():
            async with world:
                (replica,) = world.place()
                await replica.start()
                await replica.start()
                response = await replica.predict_batch([np.zeros(1)])
                assert response.ok
                await replica.stop()

        run_async(scenario())

    def test_name_carries_model_version_and_replica_id(self, world):
        async def scenario():
            async with world:
                replica = world.place(4, name="svm", version=2).replicas[3]
                assert replica.model_id == ModelId("svm", 2)
                assert replica.replica_id == 3
                assert replica.name.startswith("svm:2[3]")
                world.check_member(replica)

        run_async(scenario())

    def test_check_health_true_only_while_started(self, world):
        async def scenario():
            async with world:
                (replica,) = world.place()
                assert await replica.check_health(timeout_s=1.0) is False
                await replica.start()
                assert await replica.check_health(timeout_s=1.0) is True
                await replica.stop()
                assert await replica.check_health(timeout_s=1.0) is False

        run_async(scenario())


class TestReplicaSetContract:
    def test_creates_requested_number_of_replicas(self, world):
        async def scenario():
            async with world:
                replica_set = world.place(3)
                assert len(replica_set) == 3
                assert [r.replica_id for r in replica_set] == [0, 1, 2]
                for replica in replica_set:
                    world.check_member(replica)

        run_async(scenario())

    def test_rejects_zero_replicas(self, world):
        async def scenario():
            async with world:
                with pytest.raises(ContainerError):
                    world.place(0)

        run_async(scenario())

    def test_start_stop_all(self, world):
        async def scenario():
            async with world:
                replica_set = world.place(2)
                await replica_set.start()
                for replica in replica_set:
                    response = await replica.predict_batch([np.zeros(1)])
                    assert response.ok
                    assert response.outputs == [1]
                await replica_set.stop()
                assert not any(replica.started for replica in replica_set)

        run_async(scenario())

    def test_add_replica_extends_the_set_with_monotonic_ids(self, world):
        async def scenario():
            async with world:
                replica_set = world.place(2)
                added = replica_set.add_replica()
                assert len(replica_set) == 3
                assert added.replica_id == 2
                assert not added.started
                assert [r.replica_id for r in replica_set] == [0, 1, 2]

        run_async(scenario())

    def test_remove_replica_by_identity(self, world):
        async def scenario():
            async with world:
                replica_set = world.place(3)
                victim = replica_set.replicas[1]
                replica_set.remove_replica(victim)
                assert len(replica_set) == 2
                assert victim not in replica_set.replicas
                with pytest.raises(ContainerError):
                    replica_set.remove_replica(victim)

        run_async(scenario())

    def test_cannot_remove_last_replica(self, world):
        async def scenario():
            async with world:
                replica_set = world.place(1)
                with pytest.raises(ContainerError):
                    replica_set.remove_replica(replica_set.replicas[0])
                assert len(replica_set) == 1

        run_async(scenario())

    def test_ids_are_never_reused(self, world):
        async def scenario():
            async with world:
                replica_set = world.place(3)
                replica_set.remove_replica(replica_set.replicas[-1])
                added = replica_set.add_replica()
                ids = [r.replica_id for r in replica_set]
                assert len(ids) == len(set(ids))
                assert added.replica_id == 3

        run_async(scenario())

    def test_replace_replica_returns_unstarted_fresh_replica_with_same_id(self, world):
        async def scenario():
            async with world:
                replica_set = world.place(2)
                await replica_set.start()
                sick = replica_set.replicas[0]
                fresh = await replica_set.replace_replica(sick)
                assert fresh is not sick
                assert fresh.replica_id == sick.replica_id
                assert replica_set.replicas[0] is fresh
                assert not fresh.started  # the caller (health monitor) starts it
                assert not sick.started
                world.check_replacement(sick, fresh)
                await fresh.start()
                response = await fresh.predict_batch([np.zeros(1)])
                assert response.ok
                assert response.outputs == [1]
                with pytest.raises(ContainerError):
                    await replica_set.replace_replica(sick)  # no longer a member
                await replica_set.stop()

        run_async(scenario())
