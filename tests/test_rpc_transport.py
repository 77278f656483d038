"""Tests for the TCP RPC transport."""

import asyncio

import numpy as np
import pytest

from helpers import run_async
from repro.core.exceptions import RpcError
from repro.rpc.transport import tcp_pair


class TestTcpTransport:
    def test_round_trip_over_real_sockets(self):
        async def scenario():
            client, server = await tcp_pair()
            await client.send({"type": 1, "request_id": 5, "array": np.ones(8)})
            received = await server.recv()
            assert received["request_id"] == 5
            np.testing.assert_array_equal(received["array"], np.ones(8))
            await server.send({"type": 2, "request_id": 5, "outputs": [1] * 8})
            reply = await client.recv()
            assert reply["outputs"] == [1] * 8
            await client.close()
            await server.close()

        run_async(scenario())

    def test_recv_after_peer_disconnect_raises(self):
        async def scenario():
            client, server = await tcp_pair()
            await client.close()
            with pytest.raises(RpcError):
                await server.recv()
            assert server.closed
            await server.close()

        run_async(scenario())

    def test_the_pair_leaves_no_listener_behind(self):
        async def scenario():
            client, server = await tcp_pair()
            port = server.transport.get_extra_info("sockname")[1]
            assert client.transport.get_extra_info("peername")[1] == port
            # The listener closed once its one connection was accepted.
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)
            await client.close()
            await server.close()

        run_async(scenario())
