"""Tests for the RPC client / container server pair."""

import threading

import numpy as np
import pytest

from helpers import queue_pair, run_async
from repro.containers.base import FunctionContainer, ModelContainer
from repro.containers.noop import NoOpContainer
from repro.core.exceptions import RpcError
from repro.rpc.client import RpcClient
from repro.rpc.server import ContainerRpcServer


def make_pair(container, timeout_s=5.0):
    client_side, server_side = queue_pair()
    server = ContainerRpcServer(container, server_side)
    client = RpcClient(client_side, timeout_s=timeout_s)
    return client, server


class TestPredictRoundTrip:
    def test_noop_batch(self):
        async def scenario():
            client, server = make_pair(NoOpContainer(output=9))
            server.start()
            response = await client.predict("noop:1", [np.ones(2), np.ones(2)])
            assert response.ok
            assert response.outputs == [9, 9]
            assert response.container_latency_ms >= 0.0
            await server.stop()
            await client.close()

        run_async(scenario())

    def test_function_container_echoes_sums(self):
        async def scenario():
            container = FunctionContainer(lambda xs: [float(np.sum(x)) for x in xs])
            client, server = make_pair(container)
            server.start()
            response = await client.predict("sum:1", [np.ones(3), np.full(2, 2.0)])
            assert response.outputs == [3.0, 4.0]
            await server.stop()

        run_async(scenario())

    def test_multiple_sequential_requests(self):
        async def scenario():
            client, server = make_pair(NoOpContainer(output=1))
            server.start()
            for _ in range(5):
                response = await client.predict("noop:1", [np.zeros(1)])
                assert response.ok
            assert server.requests_served == 5
            await server.stop()

        run_async(scenario())

    def test_empty_batch_rejected_client_side(self):
        async def scenario():
            client, server = make_pair(NoOpContainer())
            server.start()
            with pytest.raises(RpcError):
                await client.predict("noop:1", [])
            await server.stop()

        run_async(scenario())

    def test_evaluates_off_the_event_loop_thread(self):
        threads = []

        def model(inputs):
            threads.append(threading.get_ident())
            return [2] * len(inputs)

        async def scenario():
            client, server = make_pair(FunctionContainer(model))
            server.start()
            response = await client.predict("fn:1", [np.zeros(1)] * 3)
            assert response.outputs == [2, 2, 2]
            assert threads and threads[0] != threading.get_ident()
            await server.stop()

        run_async(scenario())


class TestErrorHandling:
    def test_container_exception_becomes_error_response(self):
        class FailingContainer(ModelContainer):
            def predict_batch(self, inputs):
                raise RuntimeError("model blew up")

        async def scenario():
            client, server = make_pair(FailingContainer())
            server.start()
            response = await client.predict("bad:1", [np.zeros(1)])
            assert not response.ok
            assert "model blew up" in response.error
            # The server keeps serving after a failure.
            response2 = await client.predict("bad:1", [np.zeros(1)])
            assert not response2.ok
            await server.stop()

        run_async(scenario())

    def test_wrong_output_count_raises_client_side(self):
        class BrokenContainer(ModelContainer):
            def predict_batch(self, inputs):
                return [0]  # wrong length for any batch > 1

        async def scenario():
            client, server = make_pair(BrokenContainer())
            server.start()
            with pytest.raises(RpcError):
                await client.predict("broken:1", [np.zeros(1), np.zeros(1)])
            await server.stop()

        run_async(scenario())


class TestHeartbeat:
    def test_heartbeat_when_alive(self):
        async def scenario():
            client, server = make_pair(NoOpContainer())
            server.start()
            assert await client.heartbeat() is True
            await server.stop()

        run_async(scenario())
