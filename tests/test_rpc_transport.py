"""Tests for the TCP RPC transport."""

import numpy as np
import pytest

from helpers import run_async
from repro.core.exceptions import RpcError
from repro.rpc.transport import TcpListener, TcpTransport


class TestTcpTransport:
    def test_round_trip_over_real_sockets(self):
        async def scenario():
            listener = TcpListener()
            await listener.start()
            client = await TcpTransport.connect("127.0.0.1", listener.port)
            server = await listener.accept()
            await client.send({"type": 1, "request_id": 5, "array": np.ones(8)})
            received = await server.recv()
            assert received["request_id"] == 5
            np.testing.assert_array_equal(received["array"], np.ones(8))
            await server.send({"type": 2, "request_id": 5, "outputs": [1] * 8})
            reply = await client.recv()
            assert reply["outputs"] == [1] * 8
            await client.close()
            await server.close()
            await listener.close()

        run_async(scenario())

    def test_recv_after_peer_disconnect_raises(self):
        async def scenario():
            listener = TcpListener()
            await listener.start()
            client = await TcpTransport.connect("127.0.0.1", listener.port)
            server = await listener.accept()
            await client.close()
            with pytest.raises(RpcError):
                await server.recv()
            await server.close()
            await listener.close()

        run_async(scenario())

    def test_accept_before_start_raises(self):
        async def scenario():
            listener = TcpListener()
            with pytest.raises(RpcError):
                await listener.accept()

        run_async(scenario())
