"""The REST edge serves a connection inline: raw-socket tests of the cases
where a connection moves between its socket callbacks and a task.

A connection's loop is stepped from ``data_received`` while it waits for
bytes and runs in a task only while a request waits on anything else (a
cache miss, a held handler, a paused write).  Reading pausing under a
pipelining flood behind a held request is
``test_api_http_framing.py::TestFlowControl::test_a_pipelining_flood_pauses_reading``.
"""

from __future__ import annotations

import asyncio
import json

from helpers import SimulatedLatencyContainer, run_async, wait_until
from repro.api import http as http_module
from repro.api.http import create_server
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.frontend import QueryFrontend
from test_api_http_framing import READ_TIMEOUT_S, Edge, get, post, read_response, split_responses


def predict(x) -> bytes:
    body = json.dumps({"input": x}).encode()
    return (
        b"POST /api/v1/app/predict HTTP/1.1\r\nHost: t\r\nContent-Type: application/json"
        b"\r\nContent-Length: %d\r\n\r\n%b" % (len(body), body)
    )


def carried_tasks():
    """The tasks an edge connection is running in while it waits off its socket."""
    return [t for t in asyncio.all_tasks() if type(t.get_coro()).__name__ == "_Carried"]


class TestInlineServing:
    """A connection is served from its socket callbacks while it waits for
    bytes, and from a task only while a request waits on something else."""

    def test_a_miss_then_a_pipelined_hit_are_answered_in_order(self):
        async def scenario():
            clipper = Clipper(ClipperConfig(
                app_name="app", input_type="doubles", input_shape=(2,), latency_slo_ms=5000.0
            ))
            clipper.deploy_model(ModelDeployment(
                "slow", lambda: SimulatedLatencyContainer(base_latency_ms=50.0, default_output=5)
            ))
            frontend = QueryFrontend()
            frontend.register_application(clipper)
            async with create_server(query=frontend) as server:
                await frontend.predict("app", [1.0, 2.0])  # the hit is cached
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(predict([3.0, 4.0]) + predict([1.0, 2.0]))
                first = await read_response(reader)
                suspended = carried_tasks()
                second = await read_response(reader)
                writer.close()
                return first, second, suspended

        first, second, suspended = run_async(scenario())
        assert (first[0], first[2]["output"], first[2]["from_cache"]) == (200, 5, False)
        assert (second[0], second[2]["output"], second[2]["from_cache"]) == (200, 5, True)
        assert suspended == []  # the task that carried the miss ended with it

    def test_drain_waits_for_a_suspended_request(self):
        async def scenario():
            async with Edge() as edge:
                edge.gate = asyncio.Event()
                reader, writer = await edge.open()
                writer.write(post(b'{"n": 1}'))
                assert await wait_until(lambda: edge.calls)
                held = len(carried_tasks())
                draining = asyncio.ensure_future(edge.server.drain(timeout_s=5.0))
                await asyncio.sleep(0.05)
                waited = not draining.done()
                edge.gate.set()
                response = await read_response(reader)
                await draining
                rest = await asyncio.wait_for(reader.read(), READ_TIMEOUT_S)
                writer.close()
                return held, waited, response, rest

        held, waited, response, rest = run_async(scenario())
        assert held == 1 and waited
        assert response[0] == 200
        assert rest == b""  # then the teardown hung up

    def test_stop_closes_an_idle_keep_alive_connection_that_has_no_task(self):
        async def scenario():
            async with Edge() as edge:
                reader, writer = await edge.open()
                writer.write(get())
                response = await read_response(reader)
                others = asyncio.all_tasks() - {asyncio.current_task()}
                await edge.server.stop()
                rest = await asyncio.wait_for(reader.read(), READ_TIMEOUT_S)
                writer.close()
                return response, others, rest, edge.server._connections

        response, others, rest, connections = run_async(scenario())
        assert response[0] == 200
        assert others == set()  # nothing runs while the connection waits
        assert rest == b"" and not connections

    def test_a_framing_error_after_a_served_request_is_one_400_and_a_close(self):
        async def scenario():
            async with Edge() as edge:
                reader, writer = await edge.open()
                writer.write(get())
                first = await read_response(reader)
                writer.write(b"NOT-HTTP\r\n\r\n" + get())
                rest = await asyncio.wait_for(reader.read(), READ_TIMEOUT_S)
                writer.close()
                return first, rest, edge.calls

        first, rest, calls = run_async(scenario())
        assert first[0] == 200
        ((status, headers, payload),) = split_responses(rest)
        assert (status, headers["connection"]) == (400, "close")
        assert payload["error"]["code"] == "malformed_request"
        assert calls == ["ping"]

    def test_the_idle_timeout_fires_after_a_suspended_request(self, monkeypatch):
        monkeypatch.setattr(http_module, "KEEP_ALIVE_TIMEOUT_S", 0.1)

        async def scenario():
            async with Edge() as edge:
                edge.gate = asyncio.Event()
                reader, writer = await edge.open()
                writer.write(post(b'{"n": 1}'))
                assert await wait_until(lambda: edge.calls)
                await asyncio.sleep(0.2)  # longer than the timeout: it is not idle
                edge.gate.set()
                response = await read_response(reader)
                loop = asyncio.get_running_loop()
                started = loop.time()
                rest = await asyncio.wait_for(reader.read(), READ_TIMEOUT_S)
                writer.close()
                return response, rest, loop.time() - started

        response, rest, elapsed = run_async(scenario())
        assert response[0] == 200
        assert rest == b""
        assert 0.05 <= elapsed < 2.0
