"""The ``Replica`` contract and a version's membership rules, per placement.

The batching dispatchers, the health monitor and the admin verbs are typed
against :class:`~repro.containers.replica.Replica`, and which replicas a
version has is kept by :class:`~repro.core.deployed.DeployedModel` alone
(one dispatcher per member, built through the placement's builder).
Whatever they rely on is asserted here once per way a replica can come to
exist: the three local lanes (``inprocess`` / ``tcp`` / ``shm``) placed by
:func:`~repro.containers.replica.place_locally`, and ``remote`` —
:class:`~repro.cluster.remote.RemoteReplica` on in-loop worker daemons,
placed by :meth:`~repro.cluster.remote.WorkerPlacer.replica_builder`.
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
from repro.containers.replica import ContainerReplica, Replica, place_locally
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.deployed import DeployedModel
from repro.core.exceptions import ContainerError, RpcError
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


class BuilderDown(RuntimeError):
    """What a local container factory raises while its world is broken."""


class World:
    """Deploys versions of one implementation inside the test's event loop."""

    def __init__(self, kind: str, tmp_path) -> None:
        self.kind = kind
        self._tmp_path = tmp_path
        self._daemons = []
        self._placer = None
        self._broken = False

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

    def _container(self) -> NoOpContainer:
        if self._broken:
            raise BuilderDown("the container factory is down")
        return NoOpContainer(output=1)

    def place(
        self, num_replicas: int = 1, name: str = "m", version: int = 1
    ) -> DeployedModel:
        """A deployed (not started) version placed by this implementation."""
        placement = (
            self._placer.replica_builder if self.kind == "remote" else place_locally
        )
        clipper = Clipper(ClipperConfig(selection_policy="single"), placement=placement)
        model_id = clipper.deploy_model(
            ModelDeployment(
                name=name,
                container_factory=self._container,
                num_replicas=num_replicas,
                version=version,
                factory_name="echo" if self.kind == "remote" else None,
                # The remote lane is forced to tcp: auto-negotiation would pick
                # shared memory on this host, which the shm kind already covers.
                transport="tcp" if self.kind == "remote" else self.kind,
            )
        )
        return clipper.model_record(str(model_id))

    async def break_builder(self) -> type:
        """Make the next build fail; returns the error it fails with."""
        if self.kind == "remote":
            for daemon in self._daemons:
                await daemon.stop()  # withdrawn: no live worker is left
            self._daemons = []
            return RpcError
        self._broken = True
        return BuilderDown

    def check_member(self, replica: Replica) -> None:
        """What a member looks like beyond the shared contract."""
        if self.kind == "remote":
            assert isinstance(replica, RemoteReplica)
            assert replica.lane == "tcp"
            assert replica.name == (
                f"{replica.model_id}[{replica.replica_id}]@{replica.worker.worker_id}"
            )
        else:
            assert isinstance(replica, ContainerReplica)
            assert replica.name == f"{replica.model_id}[{replica.replica_id}]"

    def check_replacement(self, sick: Replica, fresh: Replica) -> None:
        """What ``replace_replica`` guarantees beyond same-id / unstarted."""
        if self.kind == "remote":
            # Re-placed, avoiding the sick replica's worker.
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
                (replica,) = world.place().replicas
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
                (replica,) = world.place().replicas
                with pytest.raises(ContainerError):
                    await replica.predict_batch([np.zeros(2)])

        run_async(scenario())

    def test_start_is_idempotent(self, world):
        async def scenario():
            async with world:
                (replica,) = world.place().replicas
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
                (replica,) = world.place().replicas
                assert await replica.check_health(timeout_s=1.0) is False
                await replica.start()
                assert await replica.check_health(timeout_s=1.0) is True
                await replica.stop()
                assert await replica.check_health(timeout_s=1.0) is False

        run_async(scenario())


class TestMembershipContract:
    def test_creates_requested_number_of_replicas(self, world):
        async def scenario():
            async with world:
                record = world.place(3)
                assert [d.replica for d in record.dispatchers] == record.replicas
                assert [r.replica_id for r in record.replicas] == [0, 1, 2]
                for replica in record.replicas:
                    world.check_member(replica)

        run_async(scenario())

    def test_start_stop_all(self, world):
        async def scenario():
            async with world:
                record = world.place(2)
                await record.start()
                for replica in record.replicas:
                    response = await replica.predict_batch([np.zeros(1)])
                    assert response.ok
                    assert response.outputs == [1]
                await record.stop()
                assert not any(replica.started for replica in record.replicas)

        run_async(scenario())

    def test_scaling_up_extends_the_version_with_monotonic_ids(self, world):
        async def scenario():
            async with world:
                record = world.place(2)
                assert await record.scale_to(3, running=False) == 3
                added = record.replicas[-1]
                assert added.replica_id == 2
                assert not added.started
                assert [r.replica_id for r in record.replicas] == [0, 1, 2]

        run_async(scenario())

    def test_scaling_down_releases_the_newest_replica(self, world):
        async def scenario():
            async with world:
                record = world.place(3)
                await record.start()
                victim = record.replicas[-1]
                assert await record.scale_to(2, running=True) == 2
                assert victim not in record.replicas
                assert not victim.started
                assert len(record.dispatchers) == 2
                await record.stop()

        run_async(scenario())

    def test_the_last_replica_cannot_leave(self, world):
        async def scenario():
            async with world:
                record = world.place(1)
                await record.start()
                (replica,) = record.replicas
                with pytest.raises(ContainerError):
                    await record.scale_to(0, running=True)
                assert record.replicas == [replica]
                assert replica.started
                assert (await replica.predict_batch([np.zeros(1)])).ok
                await record.stop()

        run_async(scenario())

    def test_ids_are_never_reused(self, world):
        async def scenario():
            async with world:
                record = world.place(3)
                await record.scale_to(2, running=False)
                await record.scale_to(3, running=False)
                ids = [r.replica_id for r in record.replicas]
                assert ids == [0, 1, 3]

        run_async(scenario())

    def test_replace_replica_returns_unstarted_fresh_replica_with_same_id(self, world):
        async def scenario():
            async with world:
                record = world.place(2)
                await record.start()
                dispatcher = record.dispatchers[0]
                sick = dispatcher.replica
                fresh = await record.replace_replica(dispatcher)
                assert fresh is not sick
                assert fresh.replica_id == sick.replica_id
                assert record.replicas[0] is fresh
                assert dispatcher.replica is fresh  # same dispatcher, same history
                assert not fresh.started  # the caller (health monitor) starts it
                assert not sick.started
                world.check_replacement(sick, fresh)
                await fresh.start()
                response = await fresh.predict_batch([np.zeros(1)])
                assert response.ok
                assert response.outputs == [1]
                await record.stop()

        run_async(scenario())

    def test_builder_errors_propagate_and_change_nothing(self, world):
        async def scenario():
            async with world:
                record = world.place(2)
                before = list(record.replicas)
                error = await world.break_builder()
                with pytest.raises(error):
                    await record.replace_replica(record.dispatchers[0])
                with pytest.raises(error):
                    await record.scale_to(3, running=False)
                assert record.replicas == before
                assert len(record.dispatchers) == 2

        run_async(scenario())
