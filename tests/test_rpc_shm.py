"""Tests for the shared-memory ring transport and the replica transport lanes.

Everything here runs in-process (both ring endpoints on one event loop) but
exercises the full cross-process wire discipline: framed byte streams
through a real ``multiprocessing.shared_memory`` block, doorbell wakeups
over socketpairs, and frames larger than the ring streaming through in
chunks.  The module is marked ``shm`` and skips itself wholesale where
``multiprocessing.shared_memory`` is unavailable.
"""

import asyncio

import numpy as np
import pytest

from helpers import run_async
from repro.containers.noop import NoOpContainer
from repro.containers.replica import ContainerReplica, place_locally
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.exceptions import ConfigurationError, ContainerError, RpcError
from repro.core.types import ModelId, Query
from repro.rpc.client import RpcClient
from repro.rpc.server import ContainerRpcServer
from repro.rpc.shm import HAS_SHARED_MEMORY, ShmRingPair

pytestmark = [
    pytest.mark.shm,
    pytest.mark.skipif(
        not HAS_SHARED_MEMORY,
        reason="multiprocessing.shared_memory unavailable on this platform",
    ),
]


class TestRingTransport:
    def test_round_trip_dict_with_ndarrays(self):
        async def scenario():
            pair = ShmRingPair()
            client, server = pair.endpoints()
            payload = {
                "request_id": 1,
                "inputs": [np.arange(6, dtype=np.float32)],
                "meta": {"k": "v"},
            }
            await client.send(payload)
            received = await server.recv()
            assert received["request_id"] == 1
            np.testing.assert_array_equal(
                received["inputs"][0], payload["inputs"][0]
            )
            assert received["inputs"][0].dtype == np.float32
            await client.close()
            await server.close()

        run_async(scenario())

    def test_many_frames_with_odd_sizes_wrap_around(self):
        async def scenario():
            # A deliberately tiny ring so frames wrap the circular buffer at
            # awkward offsets many times over.
            pair = ShmRingPair(capacity=256)
            client, server = pair.endpoints()

            async def produce():
                for i in range(50):
                    await client.send({"i": i, "pad": "x" * (i * 7 % 95)})

            async def consume():
                for i in range(50):
                    frame = await server.recv()
                    assert frame["i"] == i
                    assert frame["pad"] == "x" * (i * 7 % 95)

            await asyncio.gather(produce(), consume())
            await client.close()
            await server.close()

        run_async(scenario())

    def test_frame_larger_than_ring_streams_through(self):
        async def scenario():
            pair = ShmRingPair(capacity=1024)
            client, server = pair.endpoints()
            big = np.arange(8192, dtype=np.float64)  # 64 KiB >> 1 KiB ring

            async def produce():
                await client.send({"x": big})

            async def consume():
                return await server.recv()

            _, received = await asyncio.gather(produce(), consume())
            np.testing.assert_array_equal(received["x"], big)
            await client.close()
            await server.close()

        run_async(scenario())

    def test_recv_after_peer_close_raises(self):
        async def scenario():
            pair = ShmRingPair()
            client, server = pair.endpoints()
            await client.close()
            with pytest.raises(RpcError):
                await server.recv()
            await server.close()

        run_async(scenario())

    def test_pending_recv_wakes_on_close(self):
        async def scenario():
            pair = ShmRingPair()
            client, server = pair.endpoints()
            recv_task = asyncio.ensure_future(server.recv())
            await asyncio.sleep(0.01)  # let the recv park on the doorbell
            await client.close()
            with pytest.raises(RpcError):
                await asyncio.wait_for(recv_task, timeout=2.0)
            await server.close()

        run_async(scenario())

    def test_send_on_closed_transport_raises(self):
        async def scenario():
            pair = ShmRingPair()
            client, server = pair.endpoints()
            await client.close()
            with pytest.raises(RpcError):
                await client.send({"x": 1})
            await server.close()

        run_async(scenario())

    def test_tiny_capacity_rejected(self):
        with pytest.raises(RpcError):
            ShmRingPair(capacity=8)


class TestRpcOverSharedMemory:
    def make_pair(self, container, **kwargs):
        ring = ShmRingPair()
        server = ContainerRpcServer(container, ring.server_side)
        client = RpcClient(ring.client_side, **kwargs)
        return client, server

    def test_predict_batches(self):
        async def scenario():
            client, server = self.make_pair(NoOpContainer(output=4))
            server.start()
            response = await client.predict("noop:1", [np.zeros(3)] * 5)
            assert response.ok
            assert response.outputs == [4] * 5
            await server.stop()
            await client.close()

        run_async(scenario())

    def test_pipelined_concurrent_batches(self):
        async def scenario():
            client, server = self.make_pair(NoOpContainer(output=1))
            server.start()
            responses = await asyncio.gather(
                *(
                    client.predict("noop:1", [np.full(4, float(i))])
                    for i in range(20)
                )
            )
            assert all(r.ok for r in responses)
            assert server.requests_served == 20
            await server.stop()
            await client.close()

        run_async(scenario())

    def test_heartbeat_and_trace_propagation(self):
        async def scenario():
            client, server = self.make_pair(NoOpContainer())
            server.start()
            assert await client.heartbeat(timeout_s=2.0)
            response = await client.predict(
                "noop:1", [np.zeros(2)], trace=["trace-1"]
            )
            assert response.ok
            assert "trace-1" in tuple(response.trace)
            await server.stop()
            await client.close()

        run_async(scenario())


class TestReplicaTransportLanes:
    @pytest.mark.parametrize("transport", ["inprocess", "shm", "tcp"])
    def test_replica_round_trip_per_lane(self, transport):
        async def scenario():
            replica = ContainerReplica(
                ModelId("noop"), 0, NoOpContainer(output=2), transport=transport
            )
            await replica.start()
            response = await replica.predict_batch([np.zeros(2)] * 3)
            assert response.ok
            assert response.outputs == [2, 2, 2]
            await replica.stop()

        run_async(scenario())

    def test_unknown_transport_rejected(self):
        with pytest.raises(ContainerError):
            ContainerReplica(
                ModelId("noop"), 0, NoOpContainer(), transport="carrier-pigeon"
            )

    def test_replica_set_propagates_transport(self):
        async def scenario():
            deployment = ModelDeployment(
                name="noop",
                container_factory=NoOpContainer,
                num_replicas=2,
                transport="shm",
            )
            replica_set = place_locally(deployment, ModelId("noop"))
            await replica_set.start()
            for replica in replica_set:
                response = await replica.predict_batch([np.zeros(1)])
                assert response.ok
            await replica_set.stop()

        run_async(scenario())

    def test_deployment_transport_validated(self):
        with pytest.raises(ConfigurationError):
            ModelDeployment(
                name="noop",
                container_factory=NoOpContainer,
                transport="smoke-signals",
            )

    def test_clipper_end_to_end_over_shm(self):
        async def scenario():
            clipper = Clipper(
                ClipperConfig(app_name="shm-app", selection_policy="single")
            )
            clipper.deploy_model(
                ModelDeployment(
                    name="noop",
                    container_factory=lambda: NoOpContainer(output=6),
                    serialize_rpc=True,
                    transport="shm",
                )
            )
            await clipper.start()
            try:
                rng = np.random.default_rng(0)
                for _ in range(10):
                    result = await clipper.predict(
                        Query(app_name="shm-app", input=rng.standard_normal(8))
                    )
                    assert result.output == 6
            finally:
                await clipper.stop()

        run_async(scenario())
