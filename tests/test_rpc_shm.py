"""Tests for the shared-memory ring transport and the replica transport lanes.

Most tests run both ring endpoints on one event loop and still exercise the
full wire discipline: framed byte streams through a real
``multiprocessing.shared_memory`` block attached by name, doorbell wakeups
over one stream connection, and frames larger than the ring streaming
through in chunks.  The ring framing's contract is drawn by hypothesis
(:class:`TestRingFraming`).  What one loop cannot show — a peer running *at
the same time* — is covered by putting the peer on a second thread with its
own loop (forced interleavings) and in a second process (a time-bounded
echo stress over the lane the cluster uses).  The module is marked ``shm``
and skips itself wholesale where ``multiprocessing.shared_memory`` is
unavailable.
"""

import asyncio
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import repro
from helpers import run_async
from repro.containers.base import FunctionContainer
from repro.containers.noop import NoOpContainer
from repro.containers.replica import ContainerReplica, place_locally
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.exceptions import ConfigurationError, RpcError
from repro.core.types import ModelId, Query
from repro.rpc.client import RpcClient
from repro.rpc.server import ContainerRpcServer
from repro.rpc import shm as shm_module
from repro.rpc.shm import (
    HAS_SHARED_MEMORY,
    ShmRingTransport,
    attach_shm_endpoint,
    create_block,
    shm_pair,
)
from repro.rpc.transport import MAX_FRAME_BYTES

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


async def shm_pair_of(capacity: int):
    """An in-process lane whose rings hold ``capacity`` bytes each."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shm_module, "RING_CAPACITY", capacity)
        return await shm_pair()


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
            client, server = await shm_pair_of(256)

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
            client, server = await shm_pair_of(1024)
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


def _payload(capacity):
    """A bytes payload of 0 to 3x ``capacity`` bytes, or a float32 array of up
    to as many bytes (its segment is not a ``"B"`` buffer), each a pattern in
    which a shifted or dropped byte shows."""
    size = st.integers(0, 3 * capacity)
    return st.builds(
        lambda n, seed: ((np.arange(n) + seed) % 251).astype(np.uint8).tobytes(),
        size, st.integers(0, 250),
    ) | st.builds(
        lambda n, scale: np.arange(n // 4, dtype=np.float32) * np.float32(scale),
        size, st.floats(-1e3, 1e3, width=32),
    )


#: (capacity, payloads, where both rings' counters start, how often the
#: sender and the receiver yield to the loop after each frame).
_LANES = st.integers(64, 4096).flatmap(
    lambda capacity: st.tuples(
        st.just(capacity),
        st.lists(_payload(capacity), min_size=1, max_size=6),
        st.integers(0, 4 * capacity),
        st.lists(st.integers(0, 3), max_size=6),
        st.lists(st.integers(0, 3), max_size=6),
    )
)


def _yields(counts, i):
    return range(counts[i] if i < len(counts) else 0)


class TestRingFraming:
    """The ring framing's written contract, over drawn ring capacities,
    frame sizes up to three rings' worth, start offsets and interleavings of
    one sender and one receiver on one loop: every frame arrives byte-exact
    and in order, and a length prefix past the limit is refused, never
    waited on."""

    @given(_LANES)
    @example((64, [bytes(range(29)), b"", bytes(192)], 60, [], []))  # a 64-byte frame, wrapped
    @example((64, [np.arange(48, dtype=np.float32)], 0, [1], [0]))  # 192 B of "f" segment
    @example((4096, [bytes(12288), b"x"], 4094, [0, 3], [3]))  # the prefix across the wrap
    def test_frames_arrive_byte_exact_and_in_order(self, lane):
        capacity, payloads, start, send_yields, recv_yields = lane

        async def scenario():
            client, server = await shm_pair_of(capacity)
            for ring in (client._out, client._in):
                ring.head = ring.tail = start

            async def send_all():
                for i, payload in enumerate(payloads):
                    await client.send({"i": i, "p": payload})
                    for _ in _yields(send_yields, i):
                        await asyncio.sleep(0)

            async def recv_all():
                received = []
                for i in range(len(payloads)):
                    received.append(await server.recv())
                    for _ in _yields(recv_yields, i):
                        await asyncio.sleep(0)
                return received

            try:
                _, received = await asyncio.wait_for(
                    asyncio.gather(send_all(), recv_all()), 10.0
                )
            finally:
                await client.close()
                await server.close()
            return received

        received = run_async(scenario())
        assert [frame["i"] for frame in received] == list(range(len(payloads)))
        for frame, payload in zip(received, payloads):
            got = frame["p"]
            assert type(got) is type(payload)
            if isinstance(payload, np.ndarray):
                assert got.dtype == payload.dtype and got.tobytes() == payload.tobytes()
            else:
                assert got == payload

    @given(
        st.integers(64, 4096),
        st.integers(0, 4 * 4096),
        st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1),
    )
    @example(64, 62, MAX_FRAME_BYTES + 1)  # the prefix wraps the ring's end
    @example(4096, 0, 2**32 - 1)
    def test_a_prefix_past_the_limit_is_refused_and_never_waited_on(
        self, capacity, start, length
    ):
        async def scenario():
            client, server = await shm_pair_of(capacity)
            ring = server._in
            ring.head = ring.tail = start
            ring.write_at(start, memoryview(struct.pack("<I", length)))
            ring.head = start + 4
            try:
                with pytest.raises(RpcError, match="exceeds maximum"):
                    await asyncio.wait_for(server.recv(), 5.0)
            finally:
                await client.close()
                await server.close()

        run_async(scenario())


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


def _parked(wakeup, bell):
    """Whether the end that waits on ``wakeup`` (its ``_data`` or ``_space``)
    is parked with no wakeup latched and none still in its doorbell socket
    ``bell``: only a bell rung from now on can wake it."""
    try:
        bell.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return wakeup._future is not None and not wakeup._latched
    return False


class TestBellsAcrossAConcurrentPeer:
    """The two endpoints of a cross-process lane run truly in parallel, so a
    peer can drain (or fill) the ring and park between the moment the other
    side samples the counters and the moment it publishes its own.  Each
    test forces exactly that interleaving with the peer on a second thread,
    each end opened on the loop that waits on it, and requires the parked
    side to be woken."""

    @staticmethod
    def _peer(coroutine_fn, outcome):
        def target():
            try:
                outcome.append(asyncio.run(coroutine_fn()))
            except BaseException as exc:  # reported by the test's assertion
                outcome.append(exc)

        return threading.Thread(target=target, daemon=True)

    def test_consumer_parking_before_the_publish_gets_the_data_bell(self, monkeypatch):
        monkeypatch.setattr(shm_module, "RING_CAPACITY", 4096)
        shm, descriptor = create_block()
        producer_bell, consumer_bell = socket.socketpair()
        frames, outcome, ends = [], [], []

        async def consume():
            consumer = await ShmRingTransport.open(descriptor, consumer_bell)
            ends.append(consumer)
            frames.append(await consumer.recv())
            frames.append(await asyncio.wait_for(consumer.recv(), 5.0))
            await consumer.close()

        peer = self._peer(consume, outcome)

        def drain_and_park():
            peer.start()
            _until(lambda: frames and _parked(ends[0]._data, consumer_bell))

        async def produce():
            producer = await ShmRingTransport.open(descriptor, producer_bell, shm)
            await producer.send({"n": 1})
            producer._out = _StaleOnce(producer._out, "tail", drain_and_park)
            await producer.send({"n": 2})
            await asyncio.to_thread(peer.join, 10.0)
            await producer.close()

        run_async(produce())
        assert outcome == [None] and frames == [{"n": 1}, {"n": 2}]

    def test_producer_parking_before_the_publish_gets_the_space_bell(self, monkeypatch):
        monkeypatch.setattr(shm_module, "RING_CAPACITY", 256)
        shm, descriptor = create_block()
        producer_bell, consumer_bell = socket.socketpair()
        big = "x" * 1000  # fills the ring and parks the sender on space
        outcome, ends = [], []
        fill = threading.Event()

        async def produce():
            producer = await ShmRingTransport.open(descriptor, producer_bell)
            ends.append(producer)
            await producer.send({"n": 1})
            await asyncio.to_thread(fill.wait, 10.0)
            await asyncio.wait_for(producer.send({"pad": big}), 5.0)
            await producer.close()

        peer = self._peer(produce, outcome)

        def fill_and_park():
            fill.set()
            _until(lambda: _parked(ends[0]._space, producer_bell))

        async def consume():
            consumer = await ShmRingTransport.open(descriptor, consumer_bell, shm)
            peer.start()
            _until(lambda: consumer._in.head > 0)  # {"n": 1} is in the ring
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
import asyncio, json
from repro.core.exceptions import RpcError
from repro.rpc.shm import host_shm_endpoint

async def announce(descriptor):
    print(json.dumps(descriptor), flush=True)

async def main():
    lane = await host_shm_endpoint(announce, 10.0)
    try:
        while True:
            await lane.send(await lane.recv())
    except RpcError:
        await lane.close()

asyncio.run(main())
"""


class TestCrossProcessLane:
    def test_pipelined_echo_loses_and_corrupts_nothing(self):
        """10 000 frames, two in flight, against an echo host in another
        process: every frame comes back, intact and in order, and no side
        is left parked on a bell that was never rung."""
        frames, window = 10_000, 2
        host = subprocess.Popen(
            [sys.executable, "-c", _ECHO_HOST],
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
            response = await client.predict([np.zeros(3)] * 5)
            assert response.ok
            assert response.outputs == [4] * 5
            await server.stop()
            await client.close()

        run_async(scenario())

    def test_pipelined_concurrent_batches(self):
        batches = []

        async def scenario():
            container = FunctionContainer(lambda xs: batches.append(xs) or [1] * len(xs))
            client, server = await self.make_pair(container)
            server.start()
            responses = await asyncio.gather(
                *(
                    client.predict([np.full(4, float(i))])
                    for i in range(20)
                )
            )
            assert all(r.ok and r.outputs == [1] for r in responses)
            # One container call per batch, in the order they were sent.
            assert [float(xs[0][0]) for xs in batches] == [float(i) for i in range(20)]
            await server.stop()
            await client.close()

        run_async(scenario())

    def test_heartbeat_and_evaluation_stamps(self):
        async def scenario():
            client, server = await self.make_pair(NoOpContainer())
            server.start()
            assert await client.heartbeat(timeout_s=2.0)
            spans = []
            response = await client.predict([np.zeros(2)], span_log=spans)
            assert response.ok
            assert 0.0 < response.eval_start <= response.eval_end
            assert [name for name, _, _, _ in spans] == ["rpc.send", "rpc.wait"]
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
        # The deployment checks the lane name before any replica is built.
        with pytest.raises(ConfigurationError, match="carrier-pigeon"):
            ModelDeployment("noop", NoOpContainer, transport="carrier-pigeon")

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
from repro.containers.base import FunctionContainer
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
