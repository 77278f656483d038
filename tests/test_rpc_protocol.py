"""Tests for RPC message types and wire framing."""

import asyncio
import struct

import numpy as np
import pytest

from helpers import run_async
from repro.core.exceptions import RpcError, SerializationError
from repro.rpc.protocol import MessageType, RpcRequest, RpcResponse, message_type
from repro.rpc.serialization import deserialize, serialize
from repro.rpc.transport import (
    MAX_FRAME_BYTES,
    TcpTransport,
    frame_length,
    frame_message,
)


class TestRpcRequest:
    def test_payload_round_trip(self):
        request = RpcRequest(
            request_id=7,
            model_name="svm:1",
            inputs=[np.ones(3), np.zeros(3)],
            metadata={"priority": 1},
        )
        decoded = deserialize(serialize(request.to_payload()))
        assert decoded["request_id"] == 7
        assert decoded["model_name"] == "svm:1"
        assert len(decoded["inputs"]) == 2
        assert decoded["metadata"] == {"priority": 1}

    def test_payload_type_tag(self):
        request = RpcRequest(request_id=1, model_name="m", inputs=[1])
        assert message_type(request.to_payload()) == MessageType.PREDICT


class TestRpcResponse:
    def test_ok_response(self):
        response = RpcResponse(request_id=3, outputs=[1, 2, 3], container_latency_ms=1.5)
        assert response.ok
        decoded = RpcResponse.from_payload(response.to_payload())
        assert decoded.outputs == [1, 2, 3]
        assert decoded.container_latency_ms == pytest.approx(1.5)

    def test_error_response(self):
        response = RpcResponse(request_id=3, outputs=[], error="boom")
        assert not response.ok
        decoded = RpcResponse.from_payload(response.to_payload())
        assert decoded.error == "boom"


class _NullWriter:
    """Enough of a StreamWriter for a transport that is only read from."""

    def close(self):
        pass

    async def wait_closed(self):
        pass


def receive(data: bytes, frames: int = 1) -> list:
    """What a socket transport reads when its peer sent ``data`` and hung up."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        transport = TcpTransport(reader, _NullWriter())
        return [await transport.recv() for _ in range(frames)]

    return run_async(scenario())


def framed(payload) -> bytes:
    return b"".join(bytes(segment) for segment in frame_message(payload)[0])


class TestFraming:
    """The framing the socket and shared-memory transports both run."""

    def test_frame_round_trip(self):
        payload = RpcRequest(
            request_id=1, model_name="m", inputs=[np.arange(4.0)]
        ).to_payload()
        (decoded,) = receive(framed(payload))
        assert decoded["model_name"] == "m"
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
