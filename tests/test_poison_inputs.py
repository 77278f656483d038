"""A value the wire cannot carry fails alone, before any queue holds it.

The prediction cache keys an input by the frame the RPC codec sends
(:func:`repro.core.types.hash_input`), judged where a predict request
carries it, so an input the request could not carry — a set, an int past
int64, a timedelta scalar, a lone surrogate, nesting past 30 levels (two
more wrap it in the request) — is refused with ``ValidationError`` (a 422
at the edge) when it is keyed, and the queries that would have shared its
batch are answered.  Keyed and queued, it used to fail that batch: every
query in it failed and the dispatcher's passive failure signal quarantined
a healthy replica.  A reply the codec refuses fails its own batch on every
lane alike, and the tcp server goes on.
"""

from __future__ import annotations

import asyncio
import json
import logging

import numpy as np
import pytest

from helpers import run_async
from repro.api.http import create_server
from repro.containers.base import FunctionContainer
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import BatchingConfig, ClipperConfig, ModelDeployment
from repro.core.exceptions import ContainerError, ValidationError
from repro.core.frontend import QueryFrontend
from repro.core.types import Query
from repro.management.frontend import ManagementFrontend
from test_serialization import _nested

#: Generous: the subject is which queries fail, not deadlines (a failed
#: batch's queries used to time out at any SLO).
SLO_MS = 1000.0
#: Past the codec's 32 levels on their own, and past them inside a request.
DEEP = {n: _nested(n, 0, lambda v: [v]) for n in (31, 32, 40)}


def _clipper(container=NoOpContainer, transport="tcp", input_type=None) -> Clipper:
    clipper = Clipper(
        ClipperConfig(
            app_name="app", selection_policy="single", latency_slo_ms=SLO_MS,
            input_type=input_type,
        )
    )
    clipper.deploy_model(
        ModelDeployment(
            "m", container, transport=transport, batching=BatchingConfig(initial_batch_size=8)
        )
    )
    return clipper


async def _wave(clipper: Clipper, bad, seed: int = 0) -> list:
    """Eight concurrent predicts, the fourth of them ``bad``."""
    inputs = [np.array([float(seed + i)]) for i in range(7)]
    inputs.insert(3, bad)
    return await asyncio.gather(
        *(clipper.predict(Query("app", x)) for x in inputs), return_exceptions=True
    )


class TestOneBadInputInAWave:
    @pytest.mark.parametrize("transport", ["tcp", "inprocess"])
    @pytest.mark.parametrize(
        "bad",
        [{1, 2}, 2**70, DEEP[31], DEEP[32], DEEP[40], np.timedelta64(3, "ns"),
         np.timedelta64(3, "s"), "\ud800"],
        ids=["set", "past_int64", "31_deep", "32_deep", "40_deep", "timedelta_ns", "timedelta_s",
             "lone_surrogate"],
    )
    def test_the_bad_input_is_refused_and_its_batch_mates_are_answered(self, bad, transport):
        async def scenario():
            clipper = _clipper(transport=transport)
            await clipper.start()
            try:
                results = await _wave(clipper, bad)
                dispatcher = clipper.model_record("m:1").dispatchers[0]
                assert dispatcher.batches_failed == 0
            finally:
                await clipper.stop()
            assert isinstance(results.pop(3), ValidationError)
            assert [result.output for result in results] == [0] * 7

        run_async(scenario())

    def test_three_waves_quarantine_no_healthy_replica(self):
        async def scenario():
            frontend = ManagementFrontend()
            clipper = _clipper()
            frontend.register_application(clipper)
            await frontend.start()
            try:
                waves = [await _wave(clipper, {1, 2}, seed=10 * wave) for wave in range(3)]
                health = clipper.model_record("m:1").dispatchers[0].health
                assert health.quarantines == 0
            finally:
                await frontend.stop()
            for results in waves:
                assert isinstance(results.pop(3), ValidationError)
                assert [result.output for result in results] == [0] * 7

        run_async(scenario())


async def _post(port: int, body: bytes) -> int:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        b"POST /api/v1/app/predict HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\nConnection: close\r\n\r\n%b" % (len(body), body)
    )
    await writer.drain()
    response = await reader.read()
    writer.close()
    return int(response.split(b" ", 2)[1])


#: A legal JSON escape that decodes to a ``str`` no UTF-8 frame can hold.
SURROGATE = b'{"input": "\\ud800"}'


async def _http_wave(clipper: Clipper, bad: bytes, good) -> list:
    """Eight concurrent JSON predicts over HTTP, the fourth with body ``bad``."""
    frontend = QueryFrontend()
    frontend.register_application(clipper)
    bodies = [json.dumps({"input": good(i)}).encode() for i in range(7)]
    bodies.insert(3, bad)
    async with create_server(frontend) as server:
        return await asyncio.gather(*(_post(server.port, body) for body in bodies))


class TestAnUntypedApplicationOverHttp:
    @pytest.mark.parametrize(
        "bad", [2**70, DEEP[31], DEEP[32], DEEP[40]],
        ids=["past_int64", "31_deep", "32_deep", "40_deep"],
    )
    def test_the_bad_body_is_a_422_and_its_batch_mates_are_200(self, bad):
        bad = json.dumps({"input": bad}).encode()
        statuses = run_async(_http_wave(_clipper(), bad, lambda i: [float(i), 1.0]))
        assert statuses == [200] * 3 + [422] + [200] * 4

    def test_a_lone_surrogate_is_a_422_and_logs_no_error(self, json_backend, caplog):
        with caplog.at_level(logging.WARNING):
            statuses = run_async(_http_wave(_clipper(), SURROGATE, lambda i: [float(i), 1.0]))
        assert statuses == [200] * 3 + [422] + [200] * 4
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []

    def test_a_strings_application_refuses_it_too(self, json_backend):
        clipper = _clipper(input_type="strings")
        statuses = run_async(_http_wave(clipper, SURROGATE, lambda i: f"text {i}"))
        assert statuses == [200] * 3 + [422] + [200] * 4


def _dates(inputs):
    return [np.array(["2026-01-01"], dtype="datetime64[D]") for _ in inputs]


class TestAReplyTheWireRefuses:
    def test_fails_its_batch_alike_on_every_lane_and_the_tcp_server_goes_on(self):
        async def outcome(transport):
            clipper = _clipper(lambda: FunctionContainer(_dates), transport)
            await clipper.start()
            try:
                with pytest.raises(ContainerError):
                    await clipper.predict(Query("app", np.array([1.0])))
                dispatcher = clipper.model_record("m:1").dispatchers[0]
                server = dispatcher.replica._server
                running = server is not None and not server._task.done()
                return dispatcher.batches_failed > 0, running
            finally:
                await clipper.stop()

        assert run_async(outcome("inprocess")) == (True, False)  # no server task
        assert run_async(outcome("tcp")) == (True, True)
