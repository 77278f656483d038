"""Tests for remote replica placement over in-process worker daemons.

These spin a :class:`~repro.cluster.worker.WorkerDaemon` inside the test's
own event loop (real loopback sockets, no child processes) and drive it
through :class:`~repro.cluster.remote.RemoteReplica`,
:meth:`~repro.cluster.remote.WorkerPlacer.replica_builder` and the Clipper
placement seam — the cluster data path minus process isolation, which the
opt-in ``--cluster`` tier covers.  What a remote replica shares with every
other implementation (the ``Replica`` / membership contract, including
re-placement off a sick worker) is in ``test_replica_contract.py``.
"""

from __future__ import annotations

import asyncio
import glob
import os
import tempfile
import time

import numpy as np
import pytest

from helpers import run_async
from repro.cluster.registry import WorkerAnnouncement, WorkerRegistry
from repro.cluster.remote import RemoteReplica, WorkerPlacer
from repro.cluster.worker import WorkerDaemon
from repro.containers.base import ModelContainer
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.exceptions import ContainerError, RpcError
from repro.core.types import ModelId, Query
from repro.rpc.shm import HAS_SHARED_MEMORY


class SlowContainer(ModelContainer):
    """Blocks ``delay_s`` per batch (in the worker's executor thread)."""

    def __init__(self, delay_s: float = 0.2) -> None:
        self.delay_s = delay_s

    def predict_batch(self, inputs):
        time.sleep(self.delay_s)
        return [1] * len(inputs)


def make_factories(output=1):
    return {
        "echo": lambda: NoOpContainer(output=output),
        "slow": lambda: SlowContainer(),
    }


async def start_daemon(tmp_path, worker_id="w0", **kwargs):
    kwargs.setdefault("factories", make_factories())
    daemon = WorkerDaemon(worker_id, str(tmp_path), **kwargs)
    await daemon.start()
    return daemon


def fake_announcement(registry, worker_id, port=9000):
    registry.announce(
        WorkerAnnouncement(
            worker_id=worker_id,
            host="hostX",
            pid=1,
            tcp_host="127.0.0.1",
            tcp_port=port,
        )
    )


class TestWorkerPlacer:
    def test_round_robin_over_live_workers(self, tmp_path):
        registry = WorkerRegistry(str(tmp_path))
        for worker_id in ("a", "b"):
            fake_announcement(registry, worker_id)
        placer = WorkerPlacer(registry)
        picks = [placer.place().worker_id for _ in range(4)]
        assert picks == ["a", "b", "a", "b"]

    def test_exclude_prefers_other_workers(self, tmp_path):
        registry = WorkerRegistry(str(tmp_path))
        for worker_id in ("a", "b"):
            fake_announcement(registry, worker_id)
        placer = WorkerPlacer(registry)
        picks = {placer.place(exclude=("a",)).worker_id for _ in range(4)}
        assert picks == {"b"}
        # ... but a fully-excluded registry still places somewhere.
        assert placer.place(exclude=("a", "b")).worker_id in {"a", "b"}

    def test_empty_registry_raises_retryable_rpc_error(self, tmp_path):
        placer = WorkerPlacer(WorkerRegistry(str(tmp_path)))
        with pytest.raises(RpcError):
            placer.place()


class TestRemoteReplica:
    @pytest.mark.shm
    @pytest.mark.skipif(not HAS_SHARED_MEMORY, reason="no shared memory")
    def test_same_host_auto_negotiates_shm(self, tmp_path):
        async def scenario():
            daemon = await start_daemon(tmp_path)
            try:
                worker = daemon.registry.workers()["w0"]
                replica = RemoteReplica("m:1", 0, worker, factory_name="echo")
                assert replica.lane == "shm"
                await replica.start()
                response = await replica.predict_batch([np.zeros(2)])
                assert response.outputs == [1]
                await replica.stop()
            finally:
                await daemon.stop()

        run_async(scenario())

    def test_unknown_factory_refused(self, tmp_path):
        async def scenario():
            daemon = await start_daemon(tmp_path)
            try:
                worker = daemon.registry.workers()["w0"]
                replica = RemoteReplica(
                    "m:1", 0, worker, factory_name="ghost", transport="tcp"
                )
                with pytest.raises(RpcError, match="ghost"):
                    await replica.start()
            finally:
                await daemon.stop()

        run_async(scenario())

    def test_worker_reaps_container_when_lane_closes(self, tmp_path):
        async def scenario():
            daemon = await start_daemon(tmp_path)
            try:
                worker = daemon.registry.workers()["w0"]
                replica = RemoteReplica(
                    "m:1", 0, worker, factory_name="echo", transport="tcp"
                )
                await replica.start()
                assert len(daemon._servers) == 1
                await replica.stop()
                deadline = time.monotonic() + 5.0
                while daemon._servers and time.monotonic() < deadline:
                    await asyncio.sleep(0.01)
                assert daemon._servers == set()
            finally:
                await daemon.stop()

        run_async(scenario())


def remote_deployment(factory_name="echo", num_replicas=1):
    return ModelDeployment(
        name="m",
        container_factory=lambda: NoOpContainer(output=7),
        factory_name=factory_name,
        num_replicas=num_replicas,
        transport="tcp",
    )


class TestWorkerPlacement:
    def test_spreads_replicas_across_workers(self, tmp_path):
        async def scenario():
            d0 = await start_daemon(tmp_path, "w0")
            d1 = await start_daemon(tmp_path, "w1")
            try:
                placer = WorkerPlacer(d0.registry)
                build = placer.replica_builder(remote_deployment(), ModelId("m"))
                replicas = [build(0, ()), build(1, ())]
                assert {r.worker.worker_id for r in replicas} == {"w0", "w1"}
                for replica in replicas:
                    await replica.start()
                    response = await replica.predict_batch([np.zeros(1)])
                    assert response.outputs == [1]
                    await replica.stop()
            finally:
                await d0.stop()
                await d1.stop()

        run_async(scenario())

    def test_remote_replica_needs_a_named_factory(self, tmp_path):
        registry = WorkerRegistry(str(tmp_path))
        fake_announcement(registry, "a")
        worker = registry.workers()["a"]
        with pytest.raises(ContainerError):
            RemoteReplica("m:1", 0, worker, factory_name="")


class TestClipperPlacementSeam:
    def make_clipper(self, placer):
        return Clipper(
            ClipperConfig(
                app_name="app", latency_slo_ms=250.0, selection_policy="single"
            ),
            placement=placer.replica_builder,
        )

    def test_named_factory_places_remotely(self, tmp_path):
        async def scenario():
            # Worker factory answers 1; the local fallback factory answers 7.
            # A prediction of 1 proves the container ran inside the daemon.
            daemon = await start_daemon(tmp_path)
            try:
                placer = WorkerPlacer(daemon.registry)
                clipper = self.make_clipper(placer)
                clipper.deploy_model(
                    ModelDeployment(
                        name="m",
                        container_factory=lambda: NoOpContainer(output=7),
                        factory_name="echo",
                        num_replicas=2,
                    )
                )
                await clipper.start()
                try:
                    prediction = await clipper.predict(
                        Query(app_name="app", input=np.zeros(4), user_id="u")
                    )
                    assert prediction.output == 1
                finally:
                    await clipper.stop()
            finally:
                await daemon.stop()

        run_async(scenario())

    def test_unnamed_factory_falls_back_to_local_replicas(self, tmp_path):
        async def scenario():
            daemon = await start_daemon(tmp_path)
            try:
                placer = WorkerPlacer(daemon.registry)
                clipper = self.make_clipper(placer)
                clipper.deploy_model(
                    ModelDeployment(
                        name="m", container_factory=lambda: NoOpContainer(output=7)
                    )
                )
                await clipper.start()
                try:
                    prediction = await clipper.predict(
                        Query(app_name="app", input=np.zeros(4), user_id="u")
                    )
                    assert prediction.output == 7  # served in-process
                finally:
                    await clipper.stop()
            finally:
                await daemon.stop()

        run_async(scenario())


    def test_refused_launch_unwinds_the_deployment(self, tmp_path):
        async def scenario():
            daemon = await start_daemon(tmp_path)
            try:
                clipper = self.make_clipper(WorkerPlacer(daemon.registry))
                clipper.deploy_model(
                    ModelDeployment(name="other", container_factory=NoOpContainer)
                )
                await clipper.start()
                try:
                    def remote(factory_name):
                        return ModelDeployment(
                            name="m",
                            container_factory=NoOpContainer,
                            factory_name=factory_name,
                            num_replicas=2,
                            transport="tcp",
                        )

                    # The worker knows no "ghost" factory and refuses.
                    with pytest.raises(RpcError, match="ghost"):
                        await clipper.deploy_model_async(remote("ghost"))
                    # Nothing of the failed version is left behind ...
                    assert [str(m) for m in clipper.deployed_models()] == ["other:1"]
                    assert clipper.routing.active_key("m") is None
                    assert "m:1" not in clipper.overload.state()["queues"]
                    # ... so the same key deploys cleanly afterwards and serves.
                    await clipper.deploy_model_async(remote("echo"))
                    assert clipper.routing.active_key("m") == "m:1"
                    record = clipper.model_record("m:1")
                    assert all(replica.started for replica in record.replicas)
                    response = await record.replicas[0].predict_batch(
                        [np.zeros(1)]
                    )
                    assert response.outputs == [1]
                finally:
                    await clipper.stop()
            finally:
                await daemon.stop()

        run_async(scenario())

    def test_refused_launch_unwinds_a_scale_up(self, tmp_path):
        async def scenario():
            daemon = await start_daemon(tmp_path)
            try:
                clipper = self.make_clipper(WorkerPlacer(daemon.registry))
                clipper.deploy_model(
                    ModelDeployment(
                        name="m",
                        container_factory=NoOpContainer,
                        factory_name="echo",
                        transport="tcp",
                    )
                )
                await clipper.start()
                try:
                    del daemon._factories["echo"]  # further launches are refused
                    with pytest.raises(RpcError):
                        await clipper.set_num_replicas("m", 3)
                    record = clipper.model_record("m:1")
                    assert len(record.replicas) == 1
                    assert len(record.dispatchers) == 1
                    prediction = await clipper.predict(
                        Query(app_name="app", input=np.zeros(4), user_id="u")
                    )
                    assert prediction.output == 1
                finally:
                    await clipper.stop()
            finally:
                await daemon.stop()

        run_async(scenario())


class TestWorkerDrain:
    def test_drain_withdraws_and_finishes_in_flight_work(self, tmp_path):
        async def scenario():
            daemon = await start_daemon(tmp_path)
            worker = daemon.registry.workers()["w0"]
            replica = RemoteReplica(
                "m:1", 0, worker, factory_name="slow", transport="tcp"
            )
            await replica.start()
            pending = asyncio.ensure_future(replica.predict_batch([np.zeros(1)]))
            await asyncio.sleep(0.05)  # let the batch reach the container
            await daemon.drain(timeout_s=5.0)
            # The announcement is gone (placer stops choosing this worker) ...
            assert daemon.registry.live_workers() == []
            # ... yet the in-flight batch completed rather than being cut.
            response = await pending
            assert response.ok
            assert response.outputs == [1]
            await replica.stop()

        run_async(scenario())

    def test_a_draining_worker_does_not_announce_itself_again(self, tmp_path):
        async def scenario():
            # Heartbeats every 50 ms; the in-flight batch holds the drain 0.5 s.
            daemon = await start_daemon(
                tmp_path, ttl_s=0.15, factories={"slow": lambda: SlowContainer(0.5)}
            )
            worker = daemon.registry.workers()["w0"]
            replica = RemoteReplica("m:1", 0, worker, factory_name="slow", transport="tcp")
            await replica.start()
            pending = asyncio.ensure_future(replica.predict_batch([np.zeros(1)]))
            await asyncio.sleep(0.05)
            drain = asyncio.ensure_future(daemon.drain(timeout_s=5.0))
            await asyncio.sleep(0.15)
            assert not drain.done()
            assert daemon.registry.workers() == {}
            await drain
            assert (await pending).ok
            await replica.stop()

        run_async(scenario())


def private_bell_dirs():
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-bells-*")))


class TestBellDirectory:
    """A worker's shm doorbell listener binds in the system temp dir, one
    socket per lane that is unlinked once the peer connects, so a worker
    makes no directory for them however long its cluster dir is."""

    def test_no_shm_lane_makes_no_tmp_dir(self, tmp_path):
        long_dir = tmp_path / ("x" * 80)
        before = private_bell_dirs()

        async def scenario():
            daemon = await start_daemon(long_dir, shm_enabled=False)
            await daemon.stop()

        run_async(scenario())
        assert private_bell_dirs() == before

    @pytest.mark.shm
    @pytest.mark.skipif(not HAS_SHARED_MEMORY, reason="no shared memory")
    def test_shm_lane_makes_no_bell_dir(self, tmp_path):
        long_dir = tmp_path / ("x" * 80)
        before = private_bell_dirs()

        async def scenario():
            daemon = await start_daemon(long_dir)
            try:
                worker = daemon.registry.workers()["w0"]
                replica = RemoteReplica("m:1", 0, worker, factory_name="echo")
                assert replica.lane == "shm"
                await replica.start()
                assert (await replica.predict_batch([np.zeros(2)])).outputs == [1]
                assert private_bell_dirs() == before
                assert not (long_dir / "bells").exists()
                await replica.stop()
            finally:
                await daemon.stop()

        run_async(scenario())
        assert private_bell_dirs() == before
