"""A frame the container server cannot read ends the connection, at once.

A well-framed body that does not decode, or a length prefix over the limit,
used to end ``ContainerRpcServer.serve_forever`` silently with its transport
left open: the client's receive pump kept waiting on a connection nobody
read, so the next batch and every health probe waited out ``RPC_TIMEOUT_S``
(30 s).  The serving loop now closes its transport on every way out, and a
socket transport that meets a prefix it cannot honour hangs up, so the peer
fails what it has pending immediately.  Over real sockets; run in CI under
``-X dev -W error::ResourceWarning`` so a transport left open fails there.
"""

from __future__ import annotations

import struct
import time

import numpy as np
import pytest

from helpers import run_async, wait_until

from repro.containers.noop import NoOpContainer
from repro.containers.replica import ContainerReplica
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.exceptions import RpcError
from repro.core.types import ModelId, Query
from repro.rpc.shm import HAS_SHARED_MEMORY
from repro.rpc.transport import MAX_FRAME_BYTES

#: A 4-byte body under a correct prefix: framed, but no message.
UNDECODABLE = struct.pack("<I", 4) + b"\xff\xff\xff\xff"
#: A prefix announcing more than any frame may hold.
OVER_LIMIT = struct.pack("<I", MAX_FRAME_BYTES + 1)

BAD_FRAMES = pytest.mark.parametrize(
    "frame", [UNDECODABLE, OVER_LIMIT], ids=["undecodable", "over_limit"]
)


def inject(replica: ContainerReplica, frame: bytes) -> None:
    """Write raw bytes on the client's end of the replica's connection."""
    replica.client._transport._writer.write(frame)


class TestServerHangsUp:
    @BAD_FRAMES
    def test_next_predict_and_probe_fail_fast_and_nothing_stays_open(self, frame):
        async def scenario():
            replica = ContainerReplica(
                ModelId("noop"), 0, NoOpContainer(output=1), transport="tcp"
            )
            await replica.start()
            try:
                assert (await replica.predict_batch([np.zeros(4)])).outputs == [1]
                server = replica._server
                inject(replica, frame)
                began = time.monotonic()
                with pytest.raises(RpcError):
                    await replica.predict_batch([np.zeros(4)])
                assert not await replica.check_health(timeout_s=5.0)
                assert time.monotonic() - began < 1.0
                assert await wait_until(lambda: server._task.done(), timeout_s=1.0)
                assert server._transport.closed
                assert replica.client._transport.closed
            finally:
                await replica.stop()

        run_async(scenario())

    @pytest.mark.parametrize("transport", ["tcp"] + (["shm"] if HAS_SHARED_MEMORY else []))
    def test_a_message_of_no_known_type_ends_the_connection_too(self, transport):
        async def scenario():
            replica = ContainerReplica(
                ModelId("noop"), 0, NoOpContainer(output=1), transport=transport
            )
            await replica.start()
            try:
                await replica.client._transport.send({"type": 99, "request_id": 1})
                began = time.monotonic()
                with pytest.raises(RpcError):
                    await replica.predict_batch([np.zeros(4)])
                assert time.monotonic() - began < 1.0
                assert await wait_until(
                    lambda: replica._server._transport.closed, timeout_s=1.0
                )
            finally:
                await replica.stop()

        run_async(scenario())


class TestDispatcherSeesTheFailure:
    @BAD_FRAMES
    def test_the_batch_fails_through_the_dispatcher_and_the_query_is_answered(self, frame):
        async def scenario():
            clipper = Clipper(
                ClipperConfig(
                    app_name="malformed", latency_slo_ms=5000.0,
                    selection_policy="single", default_output=-1,
                )
            )
            clipper.deploy_model(
                ModelDeployment(
                    name="noop", container_factory=lambda: NoOpContainer(output=1),
                    transport="tcp",
                )
            )
            await clipper.start()
            try:
                record = clipper.model_record("noop:1")
                dispatcher = record.dispatchers[0]
                first = await clipper.predict(Query(app_name="malformed", input=np.zeros(4)))
                assert first.output == 1
                inject(dispatcher.replica, frame)
                began = time.monotonic()
                # No retry budget: the failed batch fails its query, which is
                # answered with the default output well inside the SLO.
                answer = await clipper.predict(
                    Query(app_name="malformed", input=np.ones(4))
                )
                assert time.monotonic() - began < 1.0
                assert answer.default_used and answer.output == -1
                assert dispatcher.batches_failed >= 1
                assert clipper.metrics.counter("predict.container_errors").value == 1
            finally:
                await clipper.stop()

        run_async(scenario())
