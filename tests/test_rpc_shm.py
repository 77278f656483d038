"""Tests for the shared-memory ring transport and the replica transport lanes.

Most tests run both ring endpoints on one event loop and still exercise the
full wire discipline: framed byte streams through a real
``multiprocessing.shared_memory`` block attached by name, doorbell wakeups
over UNIX-domain connections, and frames larger than the ring streaming
through in chunks.  Every pair is built the one way there is —
:class:`ShmHostEndpoint` plus :func:`attach_shm_endpoint`, as a worker daemon
and its ingress do across processes.  What one loop
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
import tempfile
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
from repro.rpc.shm import (
    DEFAULT_RING_CAPACITY,
    HAS_SHARED_MEMORY,
    ShmHostEndpoint,
    attach_shm_endpoint,
)

pytestmark = [
    pytest.mark.shm,
    pytest.mark.skipif(
        not HAS_SHARED_MEMORY,
        reason="multiprocessing.shared_memory unavailable on this platform",
    ),
]


SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def run_python(script, *interpreter_flags):
    """Run ``script`` in a fresh interpreter that can import ``repro``."""
    return subprocess.run(
        [sys.executable, *interpreter_flags, "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )


async def shm_pair(capacity=DEFAULT_RING_CAPACITY):
    """Connected (client, server) endpoints: host end, then attach by name."""
    host = ShmHostEndpoint(tempfile.gettempdir(), capacity)
    client = await attach_shm_endpoint(host.descriptor())
    return client, await host.accept()


class TestRingTransport:
    def test_round_trip_dict_with_ndarrays(self):
        async def scenario():
            client, server = await shm_pair()
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
            client, server = await shm_pair(capacity=256)

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
            client, server = await shm_pair(capacity=1024)
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
            client, server = await shm_pair()
            await client.close()
            with pytest.raises(RpcError):
                await server.recv()
            await server.close()

        run_async(scenario())

    def test_pending_recv_wakes_on_close(self):
        async def scenario():
            client, server = await shm_pair()
            recv_task = asyncio.ensure_future(server.recv())
            await asyncio.sleep(0.01)  # let the recv park on the doorbell
            await client.close()
            with pytest.raises(RpcError):
                await asyncio.wait_for(recv_task, timeout=2.0)
            await server.close()

        run_async(scenario())

    def test_send_on_closed_transport_raises(self):
        async def scenario():
            client, server = await shm_pair()
            await client.close()
            with pytest.raises(RpcError):
                await client.send({"x": 1})
            await server.close()

        run_async(scenario())

    def test_tiny_capacity_rejected(self, tmp_path):
        with pytest.raises(RpcError):
            ShmHostEndpoint(str(tmp_path), capacity=8)


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
        consumer, producer = run_async(shm_pair(capacity=4096))
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
        producer, consumer = run_async(shm_pair(capacity=256))
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
        host = subprocess.Popen(
            [sys.executable, "-c", _ECHO_HOST, str(tmp_path)],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
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


class TestResourceTrackerBoot:
    def test_the_tracker_is_running_before_any_segment_exists(self):
        """Its ~60 ms boot takes every other time slice from the loop that
        spawned it: a serving process starts it at its own start, not under
        the first query of its first shm lane."""
        script = (
            "from multiprocessing import resource_tracker as rt\n"
            "from repro.rpc.shm import start_resource_tracker\n"
            "assert rt._resource_tracker._fd is None\n"
            "start_resource_tracker()\n"
            "assert rt._resource_tracker._fd is not None\n"
        )
        done = run_python(script)
        assert (done.returncode, done.stderr) == (0, "")


class TestRpcOverSharedMemory:
    async def make_pair(self, container, **kwargs):
        client_side, server_side = await shm_pair()
        server = ContainerRpcServer(container, server_side)
        client = RpcClient(client_side, **kwargs)
        return client, server

    def test_predict_batches(self):
        async def scenario():
            client, server = await self.make_pair(NoOpContainer(output=4))
            server.start()
            response = await client.predict("noop:1", [np.zeros(3)] * 5)
            assert response.ok
            assert response.outputs == [4] * 5
            await server.stop()
            await client.close()

        run_async(scenario())

    def test_pipelined_concurrent_batches(self):
        async def scenario():
            client, server = await self.make_pair(NoOpContainer(output=1))
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
            client, server = await self.make_pair(NoOpContainer())
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

    def test_local_placement_propagates_transport(self):
        async def scenario():
            deployment = ModelDeployment(
                name="noop", container_factory=NoOpContainer, transport="shm"
            )
            build = place_locally(deployment, ModelId("noop"))
            for replica in (build(0, ()), build(1, ())):
                await replica.start()
                assert type(replica.client._transport).__name__ == "ShmRingTransport"
                response = await replica.predict_batch([np.zeros(1)])
                assert response.ok
                await replica.stop()

        run_async(scenario())

    def test_stopped_shm_replica_leaves_nothing_behind(self):
        """No ``/dev/shm`` segment, no bell socket file, and nothing on
        stderr: both ends of the pair live in this process, and the resource
        tracker must hear about the segment exactly once from each."""
        script = """
import asyncio, glob, os, tempfile
import numpy as np
from repro.containers.noop import NoOpContainer
from repro.containers.replica import ContainerReplica
from repro.core.types import ModelId

def leftovers():
    bells = glob.glob(os.path.join(tempfile.gettempdir(), "psm_*.sock"))
    return sorted(glob.glob("/dev/shm/psm_*") + bells)

async def main():
    before = leftovers()
    replica = ContainerReplica(ModelId("noop"), 0, NoOpContainer(), transport="shm")
    await replica.start()
    assert len(leftovers()) == len(before) + 1, "the lane maps one segment"
    assert (await replica.predict_batch([np.zeros(2)])).ok
    await replica.stop()
    assert leftovers() == before, leftovers()

asyncio.run(main())
"""
        done = run_python(script, "-X", "dev", "-W", "error::ResourceWarning")
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")

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
