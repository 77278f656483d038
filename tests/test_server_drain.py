"""Graceful-drain tests for the RPC container server and the HTTP edge.

Both servers expose ``drain(timeout_s)``: stop accepting new work, let every
in-flight request finish, then stop.  This is the SIGTERM path the cluster
worker daemons and the ingress tier ride.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from helpers import SimulatedLatencyContainer, queue_pair, run_async
from repro.api.http import create_server
from repro.client import AsyncClipperClient
from repro.containers.base import ModelContainer
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.exceptions import RpcError
from repro.core.frontend import QueryFrontend
from repro.rpc.client import RpcClient
from repro.rpc.server import ContainerRpcServer


class SlowContainer(ModelContainer):
    framework = "slow"

    def __init__(self, delay_s: float = 0.2) -> None:
        self.delay_s = delay_s

    def predict_batch(self, inputs):
        time.sleep(self.delay_s)
        return [1] * len(inputs)


class TestContainerRpcServerDrain:
    def test_drain_idle_server_stops_promptly(self):
        async def scenario():
            _, server_side = queue_pair()
            server = ContainerRpcServer(NoOpContainer(), server_side)
            server.start()
            started = time.monotonic()
            await server.drain(timeout_s=5.0)
            assert time.monotonic() - started < 1.0

        run_async(scenario())

    def test_drain_waits_for_the_in_flight_batch(self):
        async def scenario():
            client_side, server_side = queue_pair()
            server = ContainerRpcServer(SlowContainer(delay_s=0.2), server_side)
            client = RpcClient(client_side, timeout_s=5.0)
            server.start()
            pending = asyncio.ensure_future(client.predict("m:1", [np.zeros(1)]))
            await asyncio.sleep(0.05)  # batch is now inside the container
            await server.drain(timeout_s=5.0)
            response = await pending
            assert response.ok
            assert response.outputs == [1]
            await client.close()

        run_async(scenario())

    def test_requests_after_drain_fail_fast(self):
        async def scenario():
            client_side, server_side = queue_pair()
            server = ContainerRpcServer(NoOpContainer(output=1), server_side)
            client = RpcClient(client_side, timeout_s=1.0)
            server.start()
            response = await client.predict("m:1", [np.zeros(1)])
            assert response.ok
            await server.drain(timeout_s=5.0)
            with pytest.raises(RpcError):
                await client.predict("m:1", [np.zeros(1)])
            await client.close()

        run_async(scenario())


def make_http_server(latency_ms=0.0):
    clipper = Clipper(
        ClipperConfig(app_name="app", latency_slo_ms=2000.0, selection_policy="single")
    )
    if latency_ms:
        factory = lambda: SimulatedLatencyContainer(base_latency_ms=latency_ms)  # noqa: E731
    else:
        factory = lambda: NoOpContainer(output=0)  # noqa: E731
    clipper.deploy_model(ModelDeployment(name="m", container_factory=factory))
    query = QueryFrontend()
    query.register_application(clipper)
    return create_server(query=query)


class TestHttpApiServerDrain:
    def test_drain_idle_server_stops_promptly(self):
        async def scenario():
            server = make_http_server()
            await server.start()
            started = time.monotonic()
            await server.drain(timeout_s=5.0)
            assert time.monotonic() - started < 1.0
            assert server.port is None  # fully stopped

        run_async(scenario())

    def test_drain_finishes_in_flight_requests(self):
        async def scenario():
            server = make_http_server(latency_ms=200.0)
            await server.start()
            client = AsyncClipperClient("127.0.0.1", server.port)
            pending = asyncio.ensure_future(client.predict("app", [0.0]))
            await asyncio.sleep(0.05)  # the request is now in flight
            await server.drain(timeout_s=5.0)
            prediction = await pending
            assert prediction.output == 0
            await client.close()

        run_async(scenario())

    def test_new_connections_refused_after_drain(self):
        async def scenario():
            server = make_http_server()
            await server.start()
            port = server.port
            await server.drain(timeout_s=5.0)
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)

        run_async(scenario())
