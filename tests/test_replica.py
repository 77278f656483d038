"""Tests specific to in-process container replicas.

What every replica implementation must do — start/stop, ``predict_batch``,
``check_health``, naming, and a version's membership rules — is
in ``test_replica_contract.py``, parametrised over every implementation;
this file keeps what only a replica that owns its container can show.
"""

import pytest

from helpers import run_async
from repro.containers.noop import NoOpContainer
from repro.containers.replica import ContainerReplica, place_locally
from repro.core.config import ModelDeployment
from repro.core.exceptions import ContainerError
from repro.core.types import ModelId


def local_builder(container_factory):
    deployment = ModelDeployment(name="m", container_factory=container_factory)
    return place_locally(deployment, ModelId("m"))


class TestLocalPlacement:
    def test_name_includes_model_and_replica(self):
        replica = ContainerReplica(ModelId("svm", 2), 3, NoOpContainer())
        assert replica.name == "svm:2[3]"

    def test_each_replica_gets_its_own_container(self):
        build = local_builder(NoOpContainer)
        assert build(0, ()).container is not build(1, ()).container

    def test_rejects_factory_returning_non_container(self):
        with pytest.raises(ContainerError):
            local_builder(lambda: object())(0, ())


class TestHealthProbe:
    def test_unhealthy_container_probes_false_even_though_transport_lives(self):
        async def scenario():
            from repro.containers.chaos import KillableContainer

            container = KillableContainer(output=1)
            replica = ContainerReplica(ModelId("m"), 0, container)
            await replica.start()
            assert await replica.check_health(timeout_s=1.0) is True
            container.kill()
            assert await replica.check_health(timeout_s=1.0) is False
            await replica.stop()

        run_async(scenario())
