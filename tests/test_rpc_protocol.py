"""Tests for RPC message types, the container envelope and wire framing."""

import asyncio
import struct
import time
from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import run_async
from repro.containers.noop import NoOpContainer
from repro.containers.replica import ContainerReplica
from repro.core.exceptions import RpcError, SerializationError
from repro.core.types import ModelId
from repro.rpc.protocol import (
    MessageType,
    RpcResponse,
    message_type,
    predict_reply,
    predict_request,
)
from repro.rpc.serialization import deserialize, serialize
from repro.rpc.server import ContainerRpcServer
from repro.rpc.shm import HAS_SHARED_MEMORY
from repro.rpc.transport import (
    MAX_FRAME_BYTES,
    TcpTransport,
    frame_length,
    frame_message,
)


class TestEnvelopeBuilders:
    def test_request_round_trip(self):
        payload = predict_request(7, [np.ones(3), np.zeros(3)])
        decoded = deserialize(serialize(payload))
        assert message_type(decoded) == MessageType.PREDICT
        assert decoded["request_id"] == 7
        assert len(decoded["inputs"]) == 2

    def test_ok_reply(self):
        response = RpcResponse.from_payload(predict_reply(3, [1, 2, 3], None, 1.5))
        assert response.ok
        assert response.outputs == [1, 2, 3]
        assert response.container_latency_ms == pytest.approx(1.5)

    def test_error_reply(self):
        response = RpcResponse.from_payload(predict_reply(3, [], "boom", 0.2))
        assert not response.ok
        assert response.error == "boom"

    def test_a_reply_of_another_type_is_refused(self):
        heartbeat = {"type": int(MessageType.HEARTBEAT_RESPONSE), "request_id": 3, "healthy": True}
        with pytest.raises(SerializationError, match="not a prediction reply"):
            RpcResponse.from_payload(heartbeat)


class Reads(dict):
    """A decoded message that records which of its keys were read."""

    def __init__(self, payload: dict) -> None:
        super().__init__(payload)
        self.read: set = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def exchanged(lane: str, monkeypatch, **batch) -> Tuple[Reads, Reads]:
    """One batch of two inputs over ``lane``: the request as the container
    server's handler got it and the reply as ``RpcResponse.from_payload`` got it."""
    seen = {}
    handle, from_payload = ContainerRpcServer._handle, RpcResponse.from_payload

    async def handle_recorded(self, payload, received):
        seen["request"] = Reads(payload)
        return await handle(self, seen["request"], received)

    def from_payload_recorded(payload):
        seen["reply"] = Reads(payload)
        return from_payload(seen["reply"])

    monkeypatch.setattr(ContainerRpcServer, "_handle", handle_recorded)
    monkeypatch.setattr(RpcResponse, "from_payload", staticmethod(from_payload_recorded))

    async def scenario():
        replica = ContainerReplica(ModelId("m"), 0, NoOpContainer(output=1), transport=lane)
        await replica.start()
        try:
            return await replica.predict_batch([1.0, 2.0], **batch)
        finally:
            await replica.stop()

    assert run_async(scenario()).ok
    return seen["request"], seen["reply"]


ENVELOPE_LANES = pytest.mark.parametrize(
    "lane", ["inprocess", "tcp"] + (["shm"] if HAS_SHARED_MEMORY else [])
)


class TestEnvelopeContract:
    """A frame carries only what its receiver reads, on every lane."""

    @ENVELOPE_LANES
    def test_a_plain_batch_carries_the_bare_envelope(self, lane, monkeypatch):
        request, reply = exchanged(lane, monkeypatch)
        assert set(request) == {"type", "request_id", "inputs"}
        assert set(reply) == {"type", "request_id", "outputs", "error", "container_latency_ms"}
        assert set(request) <= request.read
        assert set(reply) <= reply.read

    @ENVELOPE_LANES
    def test_every_optional_field_written_is_read(self, lane, monkeypatch):
        expired = time.monotonic() - 10.0
        request, reply = exchanged(lane, monkeypatch, span_log=[], deadlines=[expired, 0.0])
        assert set(request) == {"type", "request_id", "inputs", "stamp", "budgets_ms"}
        assert set(reply) == {
            "type", "request_id", "outputs", "error", "container_latency_ms",
            "eval_start", "eval_end", "skipped",
        }
        assert set(request) <= request.read
        assert set(reply) <= reply.read


class Wire(asyncio.Transport):
    """The socket end of a protocol under test: records what is done to it."""

    def __init__(self) -> None:
        super().__init__()
        self.written = bytearray()
        self.hung_up = False
        self.reading = True

    def write(self, data) -> None:
        self.written += data

    def close(self) -> None:
        self.hung_up = True

    def is_closing(self) -> bool:
        return self.hung_up

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


def connected() -> Tuple[TcpTransport, Wire]:
    endpoint, wire = TcpTransport(), Wire()
    endpoint.connection_made(wire)
    return endpoint, wire


async def collect(endpoint: TcpTransport, got: list) -> str:
    """Append each message ``recv`` yields to ``got``; the error that ended it."""
    while True:
        try:
            got.append(await endpoint.recv())
        except RpcError as exc:
            return str(exc)


def receive(data: bytes, frames: int = 1) -> list:
    """What a socket transport reads when its peer sent ``data`` and hung up."""

    async def scenario():
        endpoint, _ = connected()
        endpoint.data_received(data)
        endpoint.eof_received()
        return [await endpoint.recv() for _ in range(frames)]

    return run_async(scenario())


def framed(payload) -> bytes:
    return b"".join(bytes(segment) for segment in frame_message(payload)[0])


MESSAGES = st.lists(
    st.builds(
        lambda i, size, text: {
            "type": 1, "request_id": i, "x": np.arange(size, dtype=float), "text": text,
        },
        st.integers(0, 2**31), st.integers(0, 64), st.text(max_size=8),
    ),
    min_size=1, max_size=5,
)
ENDINGS = {
    "clean": (b"", "by peer"),
    "mid_frame": (struct.pack("<I", 10) + b"\x00" * 3, "inside a frame"),
    "over_limit": (struct.pack("<I", MAX_FRAME_BYTES + 1) + b"\x00" * 7, "exceeds maximum"),
}


def same_messages(got: list, sent: list) -> bool:
    return len(got) == len(sent) and all(
        a["request_id"] == b["request_id"] and a["text"] == b["text"]
        and np.array_equal(a["x"], b["x"])
        for a, b in zip(got, sent)
    )


class TestFraming:
    """The framing the socket and shared-memory transports both run, fed to
    the socket transport's protocol callbacks as a peer's bytes."""

    def test_frame_round_trip(self):
        payload = predict_request(1, [np.arange(4.0)])
        (decoded,) = receive(framed(payload))
        assert decoded["request_id"] == 1
        np.testing.assert_array_equal(decoded["inputs"][0], np.arange(4.0))

    def test_back_to_back_frames_are_cut_apart(self):
        data = framed({"type": int(MessageType.HEARTBEAT), "request_id": 1}) + framed(
            {"type": int(MessageType.HEARTBEAT), "request_id": 2}
        )
        assert [m["request_id"] for m in receive(data, frames=2)] == [1, 2]
        with pytest.raises(RpcError):
            receive(data, frames=3)

    def test_incomplete_header_raises(self):
        with pytest.raises(RpcError):
            receive(b"\x01\x00")

    def test_incomplete_body_raises(self):
        frame = framed({"type": 3, "request_id": 1})
        with pytest.raises(RpcError):
            receive(frame[:-1])

    def test_oversized_frames_are_refused_on_receipt(self):
        with pytest.raises(RpcError, match="exceeds maximum"):
            frame_length(struct.pack("<I", MAX_FRAME_BYTES + 1))
        with pytest.raises(RpcError, match="exceeds maximum"):
            receive(struct.pack("<I", MAX_FRAME_BYTES + 1))
        assert frame_length(struct.pack("<I", MAX_FRAME_BYTES)) == MAX_FRAME_BYTES

    def test_payload_must_be_an_envelope(self):
        # A well-framed body that is not a message dict: the transport hands
        # it up and the server's dispatch on its type refuses it.
        (payload,) = receive(framed([1, 2, 3]))
        with pytest.raises(SerializationError):
            message_type(payload)

    def test_message_type_of_invalid_payload(self):
        with pytest.raises(SerializationError):
            message_type({"type": 999})


class TestSegmentation:
    """However the peer's bytes are cut, ``data_received`` yields its frames."""

    @given(
        sent=MESSAGES,
        cuts=st.lists(st.integers(0, 10**6), max_size=12),
        ending=st.sampled_from(sorted(ENDINGS)),
    )
    def test_every_chunking_yields_the_same_messages(self, sent, cuts, ending):
        tail, error = ENDINGS[ending]
        data = b"".join(framed(message) for message in sent) + tail
        points = sorted({0, len(data), *(cut % (len(data) + 1) for cut in cuts)})
        chunks = [data[a:b] for a, b in zip(points, points[1:])]

        async def scenario():
            endpoint, wire = connected()
            got: list = []
            reader = asyncio.ensure_future(collect(endpoint, got))
            for chunk in chunks:
                await asyncio.sleep(0)
                endpoint.data_received(chunk)
            await asyncio.sleep(0)
            # Each frame woke the parked reader as its last byte came in.
            assert same_messages(got, sent)
            if ending != "over_limit":  # a refused prefix already ended it
                endpoint.eof_received()
            assert error in await reader
            assert same_messages(got, sent)
            assert wire.hung_up and endpoint.closed

        run_async(scenario())

    def test_an_over_limit_prefix_hangs_up_before_anyone_reads(self):
        async def scenario():
            endpoint, wire = connected()
            over_limit = struct.pack("<I", MAX_FRAME_BYTES + 1)
            endpoint.data_received(framed({"request_id": 1}) + over_limit)
            assert wire.hung_up
            assert (await endpoint.recv())["request_id"] == 1  # cut before it: delivered
            with pytest.raises(RpcError, match="exceeds maximum"):
                await endpoint.recv()

        run_async(scenario())

    def test_each_frame_is_stamped_when_its_last_byte_arrives(self):
        async def scenario():
            endpoint, _ = connected()
            frame = framed({"request_id": 1})
            endpoint.data_received(frame[:-1])
            await asyncio.sleep(0.05)
            before = time.monotonic()
            endpoint.data_received(frame[-1:])
            await asyncio.sleep(0.05)
            message, arrived = await endpoint.recv_stamped()
            assert message["request_id"] == 1
            assert before <= arrived <= before + 0.04

        run_async(scenario())

    def test_reading_pauses_while_nobody_reads_and_resumes_on_recv(self):
        async def scenario():
            endpoint, wire = connected()
            big = framed({"request_id": 1, "x": np.zeros(200_000)})  # 1.6 MB
            endpoint.data_received(big)
            assert not wire.reading
            assert (await endpoint.recv())["request_id"] == 1
            reader = asyncio.ensure_future(endpoint.recv())
            await asyncio.sleep(0)
            assert wire.reading
            reader.cancel()

        run_async(scenario())

    def test_send_writes_the_frame_and_refuses_after_a_hang_up(self):
        async def scenario():
            endpoint, wire = connected()
            await endpoint.send({"request_id": 4})
            assert bytes(wire.written) == framed({"request_id": 4})
            endpoint.eof_received()
            with pytest.raises(RpcError):
                await endpoint.recv()
            with pytest.raises(RpcError, match="closed"):
                await endpoint.send({"request_id": 5})

        run_async(scenario())
