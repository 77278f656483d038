"""A value the wire cannot carry fails alone, before any queue holds it.

The prediction cache keys an input by what the RPC codec would send
(:func:`repro.core.types.hash_input`), so an input the codec refuses — a
set, an int past int64, nesting past 32 levels — is refused with
``ValidationError`` (a 422 at the edge) when it is keyed, and the queries
that would have shared its batch are answered.  Keyed and queued, it used
to fail that batch: every query in it timed out (504) and the dispatcher's
passive failure signal quarantined a healthy replica.  A reply the codec
refuses fails its own batch on every lane alike, and the tcp server goes on.
"""

from __future__ import annotations

import asyncio
import json

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
DEEP = _nested(40, 0, lambda v: [v])


def _clipper(container=NoOpContainer, transport="tcp") -> Clipper:
    clipper = Clipper(
        ClipperConfig(app_name="app", selection_policy="single", latency_slo_ms=SLO_MS)
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
    @pytest.mark.parametrize("bad", [{1, 2}, 2**70, DEEP], ids=["set", "past_int64", "40_deep"])
    def test_the_bad_input_is_refused_and_its_batch_mates_are_answered(self, bad):
        async def scenario():
            clipper = _clipper()
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


class TestAnUntypedApplicationOverHttp:
    @pytest.mark.parametrize("bad", [2**70, DEEP], ids=["past_int64", "40_deep"])
    def test_the_bad_body_is_a_422_and_its_batch_mates_are_200(self, bad):
        async def scenario():
            frontend = QueryFrontend()
            frontend.register_application(_clipper())
            bodies = [json.dumps({"input": [float(i), 1.0]}).encode() for i in range(7)]
            bodies.insert(3, json.dumps({"input": bad}).encode())
            async with create_server(frontend) as server:
                statuses = await asyncio.gather(*(_post(server.port, body) for body in bodies))
            assert statuses == [200] * 3 + [422] + [200] * 4

        run_async(scenario())


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
