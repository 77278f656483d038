"""Tests for the shared-memory ring transport and the replica transport lanes.

Most tests run both ring endpoints on one event loop and still exercise the
full wire discipline: framed byte streams through a real
``multiprocessing.shared_memory`` block, doorbell wakeups over socketpairs,
and frames larger than the ring streaming through in chunks.  What one loop
cannot show — a peer running *at the same time* — is covered by putting the
peer on a second thread (forced interleavings) and in a second process (a
time-bounded echo stress over the lane the cluster uses).  The module is
marked ``shm`` and skips itself wholesale where
``multiprocessing.shared_memory`` is unavailable.
"""

import asyncio
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from helpers import run_async
from repro.containers.noop import NoOpContainer
from repro.containers.replica import ContainerReplica, place_locally
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.exceptions import ConfigurationError, ContainerError, RpcError
from repro.core.types import ModelId, Query
from repro.rpc.client import RpcClient
from repro.rpc.server import ContainerRpcServer
from repro.rpc.shm import HAS_SHARED_MEMORY, ShmRingPair, attach_shm_endpoint

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


class _StaleOnce:
    """Ring stand-in whose next read of ``field`` runs ``between`` before it
    returns: the caller is left holding a value from before ``between``."""

    def __init__(self, ring, field, between):
        self.__dict__.update(ring=ring, field=field, between=between)

    def __getattr__(self, name):
        value = getattr(self.ring, name)
        if name == self.field and self.between is not None:
            between, self.__dict__["between"] = self.between, None
            between()
        return value

    def __setattr__(self, name, value):
        setattr(self.ring, name, value)


def _until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "peer never reached the awaited state"
        time.sleep(0.001)


class TestBellsAcrossAConcurrentPeer:
    """The two endpoints of a cross-process lane run truly in parallel, so a
    peer can drain (or fill) the ring and park between the moment the other
    side samples the counters and the moment it publishes its own.  Each
    test forces exactly that interleaving with the peer on a second thread
    and requires the parked side to be woken."""

    @staticmethod
    def _peer(coroutine_fn, outcome):
        def target():
            try:
                outcome.append(asyncio.run(coroutine_fn()))
            except BaseException as exc:  # reported by the test's assertion
                outcome.append(exc)

        return threading.Thread(target=target, daemon=True)

    def test_consumer_parking_before_the_publish_gets_the_data_bell(self):
        pair = ShmRingPair(capacity=4096)
        consumer, producer = pair.endpoints()
        frames, outcome = [], []

        async def consume():
            frames.append(await consumer.recv())
            frames.append(await asyncio.wait_for(consumer.recv(), 5.0))
            await consumer.close()

        peer = self._peer(consume, outcome)

        def drain_and_park():
            peer.start()
            _until(lambda: frames and consumer._data_waiter._future is not None)

        async def produce():
            await producer.send({"n": 1})
            producer._out = _StaleOnce(producer._out, "tail", drain_and_park)
            await producer.send({"n": 2})
            await asyncio.to_thread(peer.join, 10.0)
            await producer.close()

        run_async(produce())
        assert outcome == [None] and frames == [{"n": 1}, {"n": 2}]

    def test_producer_parking_before_the_publish_gets_the_space_bell(self):
        pair = ShmRingPair(capacity=256)
        producer, consumer = pair.endpoints()
        big = "x" * 1000  # fills the ring and parks the sender on space
        outcome = []

        async def produce():
            await asyncio.wait_for(producer.send({"pad": big}), 5.0)
            await producer.close()

        peer = self._peer(produce, outcome)

        def fill_and_park():
            peer.start()
            _until(lambda: producer._space_waiter._future is not None)

        async def consume():
            await producer.send({"n": 1})
            consumer._in = _StaleOnce(consumer._in, "head", fill_and_park)
            first = await consumer.recv()
            try:
                second = await asyncio.wait_for(consumer.recv(), 5.0)
            except asyncio.TimeoutError:
                second = "never arrived"
            await asyncio.to_thread(peer.join, 10.0)
            await consumer.close()
            return first, second

        first, second = run_async(consume())
        assert outcome == [None] and first == {"n": 1} and second == {"pad": big}


_ECHO_HOST = """
import asyncio, json, sys
from repro.core.exceptions import RpcError
from repro.rpc.shm import ShmHostEndpoint

async def main():
    endpoint = ShmHostEndpoint(sys.argv[1])
    print(json.dumps(endpoint.descriptor()), flush=True)
    lane = await endpoint.accept(10.0)
    try:
        while True:
            await lane.send(await lane.recv())
    except RpcError:
        await lane.close()

asyncio.run(main())
"""


class TestCrossProcessLane:
    def test_pipelined_echo_loses_and_corrupts_nothing(self, tmp_path):
        """10 000 frames, two in flight, against an echo host in another
        process: every frame comes back, intact and in order, and no side
        is left parked on a bell that was never rung."""
        frames, window = 10_000, 2
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        host = subprocess.Popen(
            [sys.executable, "-c", _ECHO_HOST, str(tmp_path)],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )

        async def scenario():
            lane = await attach_shm_endpoint(json.loads(host.stdout.readline()))
            slots = asyncio.Semaphore(window)

            async def send_all():
                for i in range(frames):
                    await slots.acquire()
                    await lane.send({"i": i, "pad": "x" * (i % 97)})

            sender = asyncio.ensure_future(send_all())
            try:
                for i in range(frames):
                    echoed = await asyncio.wait_for(lane.recv(), 5.0)
                    assert echoed == {"i": i, "pad": "x" * (i % 97)}
                    slots.release()
                await sender
            finally:
                sender.cancel()
                await lane.close()

        try:
            run_async(scenario())
            assert host.wait(timeout=10.0) == 0
        finally:
            host.kill()
            host.wait(timeout=10.0)
            host.stdout.close()


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
