"""End-to-end tests of the REST edge: real sockets, server + client SDK.

Covers the frontend error paths over HTTP — unknown application (404),
duplicate registration (409), malformed body (400), input-type mismatch
(422), the SLO-miss default-output response shape, and the partial-start
rollback that must leave no listener bound — plus keep-alive reuse, content
negotiation, the sync client, and the admin verb set.
"""

import asyncio
import json

import numpy as np
import pytest

from helpers import SimulatedLatencyContainer, run_async
from repro.api.http import HttpApiServer, create_server
from repro.api.routes import ApiResponse, RouteTable
from repro.client import (
    AsyncAdminClient,
    AsyncClipperClient,
    InvalidInput,
    MalformedRequest,
    ManagementConflict,
    RouteNotFound,
    ServerError,
    UnknownApplication,
)
from repro.containers.base import FunctionContainer
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.exceptions import ClipperError, DuplicateApplicationError, SerializationError
from repro.core.frontend import QueryFrontend
from repro.management.frontend import ManagementFrontend
from repro.rpc.serialization import COLUMNAR_CONTENT_TYPE


def _nested_list(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


def make_app(name="demo", output=1, **config_kwargs):
    clipper = Clipper(
        ClipperConfig(app_name=name, selection_policy="single", **config_kwargs)
    )
    clipper.deploy_model(
        ModelDeployment(
            name="noop", container_factory=lambda: NoOpContainer(output=output)
        )
    )
    return clipper


def make_server(clipper, frontend=None, factories=None):
    """A server over ``frontend`` (a bare QueryFrontend by default), which
    hosts ``clipper``: one registration serves every verb it offers."""
    frontend = QueryFrontend() if frontend is None else frontend
    frontend.register_application(clipper)
    return create_server(frontend, factories=factories)


async def raw_request(port, data: bytes) -> bytes:
    """Push raw bytes at the server and return everything it answers."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(data)
    await writer.drain()
    response = await reader.read()
    writer.close()
    return response


def assert_bad_json_body(body: bytes) -> None:
    """A predict whose JSON body cannot be decoded is a structured 400."""
    async def scenario():
        server = make_server(make_app())
        async with server:
            response = await raw_request(
                server.port,
                b"POST /api/v1/demo/predict HTTP/1.1\r\n"
                b"Host: t\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\nConnection: close\r\n\r\n%b"
                % (len(body), body),
            )
            head, _, payload = response.partition(b"\r\n\r\n")
            assert b"400 Bad Request" in head
            error = json.loads(payload)["error"]
            assert error["code"] == "malformed_request"
            assert error["status"] == 400

    run_async(scenario())


class TestErrorPathsOverHttp:
    def test_unknown_application_is_404(self):
        async def scenario():
            server = make_server(make_app())
            async with server:
                async with AsyncClipperClient("127.0.0.1", server.port) as client:
                    with pytest.raises(UnknownApplication) as excinfo:
                        await client.predict("ghost", [0.0])
                    assert excinfo.value.status == 404
                    assert excinfo.value.code == "unknown_application"
                    assert excinfo.value.detail["registered"] == ["demo"]

        run_async(scenario())

    def test_duplicate_registration_is_conflict_on_both_surfaces(self):
        # In-process: both frontends raise the typed 409 error...
        for frontend in (QueryFrontend(), ManagementFrontend(monitor_health=False)):
            frontend.register_application(make_app())
            with pytest.raises(DuplicateApplicationError) as excinfo:
                frontend.register_application(make_app())
            assert excinfo.value.http_status == 409

        # ... and over HTTP the same conflict discipline applies to a
        # duplicate model-version deployment through the admin API.
        async def scenario():
            admin = ManagementFrontend(monitor_health=False, manage_canaries=False)
            server = make_server(make_app(), admin, factories={"noop": NoOpContainer})
            async with server:
                async with AsyncAdminClient("127.0.0.1", server.port) as adm:
                    with pytest.raises(ManagementConflict) as excinfo:
                        await adm.deploy("demo", "noop", factory="noop", version=1)
                    assert excinfo.value.status == 409

        run_async(scenario())

    def test_a_failed_container_is_502_not_504(self):
        def crash(inputs):
            raise RuntimeError("model crashed")

        async def scenario():
            # No retry, and an SLO no run can miss: only the container fails.
            clipper = Clipper(ClipperConfig(
                app_name="demo", selection_policy="single", latency_slo_ms=60_000,
            ))
            clipper.deploy_model(ModelDeployment(
                "broken", lambda: FunctionContainer(crash), max_batch_retries=0,
            ))
            server = make_server(clipper)
            async with server:
                async with AsyncClipperClient("127.0.0.1", server.port) as client:
                    with pytest.raises(ServerError) as excinfo:
                        await client.predict("demo", [0.0])
                    assert excinfo.value.status == 502
                    assert excinfo.value.code == "container_failure"
                    assert excinfo.value.detail == {"model": "broken:1"}

        run_async(scenario())

    def test_malformed_body_is_400(self):
        assert_bad_json_body(b"{this is not json")

    @pytest.mark.parametrize(
        "body", [b'{"input": [1.0]', b"\xff\xfe\x00", b"[" * 100_000],
        ids=["truncated", "not_utf8", "deep"],  # 10**6 deep: test_api_http_framing
    )
    def test_an_undecodable_json_body_is_400(self, body):
        assert_bad_json_body(body)

    def test_missing_input_field_is_400(self):
        async def scenario():
            server = make_server(make_app())
            async with server:
                async with AsyncClipperClient("127.0.0.1", server.port) as client:
                    with pytest.raises(MalformedRequest) as excinfo:
                        await client._call(
                            "POST", "/api/v1/demo/predict", {"user_id": "u"}
                        )
                    assert "input" in excinfo.value.message

        run_async(scenario())

    def test_input_type_mismatch_is_422(self):
        async def scenario():
            server = make_server(
                make_app(input_type="doubles", input_shape=(4,))
            )
            async with server:
                async with AsyncClipperClient("127.0.0.1", server.port) as client:
                    with pytest.raises(InvalidInput) as excinfo:
                        await client.predict("demo", "not a vector")
                    assert excinfo.value.status == 422
                    with pytest.raises(InvalidInput) as excinfo:
                        await client.predict("demo", [1.0, 2.0])  # wrong shape
                    assert excinfo.value.detail["expected_shape"] == [4]

        run_async(scenario())

    def test_slo_miss_renders_default_output_shape(self):
        async def scenario():
            clipper = Clipper(
                ClipperConfig(
                    app_name="demo",
                    selection_policy="single",
                    latency_slo_ms=30.0,
                    default_output=-1,
                    output_type="ints",
                )
            )
            clipper.deploy_model(
                ModelDeployment(
                    name="slow",
                    container_factory=lambda: SimulatedLatencyContainer(
                        base_latency_ms=300.0, default_output=0, random_state=0
                    ),
                )
            )
            server = make_server(clipper)
            async with server:
                async with AsyncClipperClient("127.0.0.1", server.port) as client:
                    result = await client.predict("demo", [0.0])
                    # 200 with the declared default — not an error response.
                    assert result.default_used is True
                    assert result.output == -1
                    assert result.confidence == 0.0
                    assert result.models_missing == ["slow:1"]
                    assert result.models_used == []

        run_async(scenario())

    def test_partial_start_rollback_leaves_no_listener_bound(self):
        async def scenario():
            healthy = make_app("aaa-healthy")
            query = QueryFrontend()
            query.register_application(healthy)
            # An application with no deployed models refuses to start.
            query.register_application(
                Clipper(ClipperConfig(app_name="zzz-broken"))
            )
            server = create_server(query=query)
            with pytest.raises(ClipperError):
                await server.start()
            assert server.port is None
            assert not server.is_serving
            # The application started before the failure was stopped again.
            assert healthy._started is False

        run_async(scenario())

    def test_unknown_route_and_wrong_method(self):
        async def scenario():
            server = make_server(make_app())
            async with server:
                async with AsyncClipperClient("127.0.0.1", server.port) as client:
                    with pytest.raises(RouteNotFound):
                        await client._call("GET", "/api/v1/nope/nope/nope")
                    with pytest.raises(MalformedRequest) as excinfo:
                        await client._call("GET", "/api/v1/demo/predict")
                    assert excinfo.value.status == 405

        run_async(scenario())

    def test_unsupported_content_type_is_415(self):
        async def scenario():
            server = make_server(make_app())
            async with server:
                body = b"\x00\x01binary"
                response = await raw_request(
                    server.port,
                    b"POST /api/v1/demo/predict HTTP/1.1\r\n"
                    b"Host: t\r\nContent-Type: application/octet-stream\r\n"
                    b"Content-Length: %d\r\nConnection: close\r\n\r\n%b"
                    % (len(body), body),
                )
                assert b"415" in response.split(b"\r\n", 1)[0]
                error = json.loads(response.partition(b"\r\n\r\n")[2])["error"]
                assert error["code"] == "unsupported_media_type"

        run_async(scenario())


class _Unprintable:
    """A handler result whose ``str()`` (``json_safe``'s last resort) raises."""

    def __init__(self, error):
        self.error = error

    def __str__(self):
        raise self.error


def answer(result, accept="application/json"):
    """``(status, content type, body)`` of the edge's answer to a request for
    ``POST /echo``, whose handler returns ``result``."""
    async def scenario():
        table = RouteTable()

        async def echo(params, body):
            return ApiResponse(200, result)

        table.add("POST", "/echo", "echo", echo)
        async with HttpApiServer(table) as server:
            response = await raw_request(
                server.port,
                b"POST /echo HTTP/1.1\r\nHost: t\r\nAccept: %b\r\n"
                b"Content-Length: 0\r\nConnection: close\r\n\r\n" % accept.encode(),
            )
        head, _, body = response.partition(b"\r\n\r\n")
        headers = dict(line.lower().split(b": ", 1) for line in head.split(b"\r\n")[1:])
        return int(head.split(b" ", 2)[1]), headers[b"content-type"].decode(), body

    return run_async(scenario())


class TestUnencodableResults:
    """A handler result the negotiated encoder cannot write is a JSON 500;
    the exceptions the edge catches there are the ones the two encoders raise."""

    @pytest.mark.parametrize("accept", ["application/json", COLUMNAR_CONTENT_TYPE])
    @pytest.mark.parametrize(
        "result",
        [
            {"deep": _nested_list(10_000)},  # RecursionError, in json_safe
            [_Unprintable(TypeError("no str"))],
            [_Unprintable(OverflowError("too big"))],
            [_Unprintable(SerializationError("refused"))],
        ],
        ids=["deep", "type_error", "overflow", "serialization_error"],
    )
    def test_an_unencodable_result_is_a_json_500(self, result, accept):
        status, kind, body = answer(result, accept)
        assert (status, kind) == (500, "application/json")
        assert json.loads(body)["error"]["status"] == 500

    @pytest.mark.parametrize(
        "result",
        [
            {"outputs": [2**64]},  # SerializationError: past int64, after json_safe too
            {"text": "\ud800"},  # ValueError: a lone surrogate has no UTF-8 (JSON escapes it)
        ],
        ids=["past_int64", "lone_surrogate"],
    )
    def test_a_result_past_the_columnar_format_is_a_json_500_and_fine_as_json(self, result):
        assert answer(result, COLUMNAR_CONTENT_TYPE)[:2] == (500, "application/json")
        assert answer(result)[0] == 200


class TestServingOverHttp:
    def test_predict_update_and_cache_flag(self):
        async def scenario():
            server = make_server(
                make_app(output=7, input_type="doubles"),
            )
            async with server:
                async with AsyncClipperClient("127.0.0.1", server.port) as client:
                    first = await client.predict("demo", [1.0, 2.0])
                    again = await client.predict("demo", [1.0, 2.0])
                    assert first.output == 7 and again.output == 7
                    assert again.from_cache is True
                    await client.update("demo", [1.0, 2.0], label=7)
                    applications = await client.applications()
                    assert [a["app_name"] for a in applications] == ["demo"]
                    health = await client.health()
                    assert health["applications"] == ["demo"]
                    schema = await client.schema("demo")
                    assert schema["input_type"] == "doubles"

        run_async(scenario())

    def test_keep_alive_connection_is_reused(self):
        async def scenario():
            server = make_server(make_app())
            async with server:
                async with AsyncClipperClient("127.0.0.1", server.port) as client:
                    await client.predict("demo", [0.0])
                    protocol_before = client._conn._protocol
                    await client.predict("demo", [0.0])
                    assert client._conn._protocol is protocol_before

        run_async(scenario())

    def test_user_id_and_slo_override_cross_the_wire(self):
        async def scenario():
            server = make_server(make_app())
            async with server:
                async with AsyncClipperClient("127.0.0.1", server.port) as client:
                    result = await client.predict(
                        "demo", [0.0], user_id="alice", latency_slo_ms=500.0
                    )
                    assert result.output == 1

        run_async(scenario())

    def test_a_nonpositive_slo_is_422(self):
        async def scenario():
            server = make_server(make_app())
            async with server:
                async with AsyncClipperClient("127.0.0.1", server.port) as client:
                    for slo in (-5.0, 0.0):
                        with pytest.raises(InvalidInput, match="latency_slo_ms") as excinfo:
                            await client.predict("demo", [0.0], latency_slo_ms=slo)
                        assert excinfo.value.status == 422

        run_async(scenario())

    def test_wrong_label_type_is_422(self):
        async def scenario():
            server = make_server(
                make_app(output_type="ints", default_output=0)
            )
            async with server:
                async with AsyncClipperClient("127.0.0.1", server.port) as client:
                    await client.predict("demo", [0.0])
                    with pytest.raises(InvalidInput) as excinfo:
                        await client.update("demo", [0.0], label="seven")
                    assert excinfo.value.detail == {
                        "expected": "ints",
                        "got": "str",
                    }
                    await client.update("demo", [0.0], label=7)  # conforming

        run_async(scenario())

    def test_application_registered_after_create_server_is_managed(self):
        # The server holds the frontend's live mapping, not a snapshot: an
        # application registered between create_server() and start() is
        # started by the server and servable immediately.
        async def scenario():
            query = QueryFrontend()
            query.register_application(make_app("first"))
            server = create_server(query=query)
            late = make_app("late", output=9)
            query.register_application(late)
            async with server:
                assert late._started is True
                async with AsyncClipperClient("127.0.0.1", server.port) as client:
                    result = await client.predict("late", [0.0])
                    assert result.output == 9
            assert late._started is False

        run_async(scenario())

    def test_bytes_application_round_trips_base64(self):
        async def scenario():
            clipper = Clipper(
                ClipperConfig(
                    app_name="blobs", selection_policy="single", input_type="bytes"
                )
            )
            clipper.deploy_model(
                ModelDeployment(
                    name="echo-len",
                    container_factory=lambda: NoOpContainer(output=3),
                )
            )
            server = make_server(clipper)
            async with server:
                async with AsyncClipperClient("127.0.0.1", server.port) as client:
                    result = await client.predict("blobs", b"\x00\x01\x02")
                    assert result.output == 3

        run_async(scenario())

    def test_numpy_inputs_encode_client_side(self):
        async def scenario():
            server = make_server(make_app(input_type="doubles", input_shape=(4,)))
            async with server:
                async with AsyncClipperClient("127.0.0.1", server.port) as client:
                    result = await client.predict("demo", np.zeros(4))
                    assert result.output == 1

        run_async(scenario())


class TestAdminOverHttp:
    def test_full_operator_lifecycle(self):
        async def scenario():
            admin_frontend = ManagementFrontend(
                monitor_health=False, manage_canaries=False
            )
            server = make_server(
                make_app(output=1),
                admin_frontend,
                factories={"noop-v2": lambda: NoOpContainer(output=2)},
            )
            async with server:
                adm = AsyncAdminClient("127.0.0.1", server.port)
                try:
                    deployed = await adm.deploy(
                        "demo", "noop", factory="noop-v2", version=2
                    )
                    assert deployed == {"model": "noop:2", "serving": False}

                    split = await adm.start_canary("demo", "noop", 2, weight=0.25)
                    assert split["split"]["canary"] == "noop:2"
                    split = await adm.adjust_canary("demo", "noop", weight=0.5)
                    promoted = await adm.promote("demo", "noop")
                    assert promoted["model"] == "noop:2"

                    scaled = await adm.scale("demo", "noop", 2)
                    assert scaled["num_replicas"] == 2

                    models = await adm.models("demo")
                    assert models["noop"]["active_version"] == 2
                    info = await adm.model_info("demo", "noop")
                    assert info["app_schema"]["app_name"] == "demo"

                    health = await adm.health("demo")
                    assert health["started"] is True
                    assert health["serving"] == ["noop:2"]

                    metrics = await adm.metrics("demo")
                    assert "predict.count" in metrics["counters"]

                    routing = await adm.routing("demo")
                    assert routing["noop"]["stable"] == "noop:2"

                    rolled = await adm.rollback("demo", "noop")
                    assert rolled["model"] == "noop:1"
                finally:
                    await adm.close()

        run_async(scenario())

    def test_unknown_factory_is_400(self):
        async def scenario():
            admin_frontend = ManagementFrontend(
                monitor_health=False, manage_canaries=False
            )
            server = make_server(make_app(), admin_frontend, factories={})
            async with server:
                async with AsyncAdminClient("127.0.0.1", server.port) as adm:
                    with pytest.raises(MalformedRequest) as excinfo:
                        await adm.deploy("demo", "noop", factory="ghost", version=2)
                    assert excinfo.value.detail == {"registered": []}

        run_async(scenario())


class TestMetricsOverHttp:
    def test_json_metrics_carry_the_gauges(self):
        """Both expositions carry the same instruments: the JSON one has the
        gauges (the dispatcher's pipeline depth, the queue's depth) too.

        The depth is measured (``1 + rpc_overhead_ms // eval_ms``, capped),
        so the oracle is the dispatcher's own attribute, not a constant."""

        async def scenario():
            admin_frontend = ManagementFrontend(monitor_health=False, manage_canaries=False)
            clipper = make_app()
            server = make_server(clipper, admin_frontend)
            async with server:
                async with AsyncClipperClient("127.0.0.1", server.port) as client:
                    await client.predict("demo", [1.0, 2.0])
                async with AsyncAdminClient("127.0.0.1", server.port) as adm:
                    metrics = await adm.metrics("demo")
                response = await raw_request(
                    server.port,
                    b"GET /api/v1/metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
                )
                (dispatcher,) = clipper.model_record("noop:1").dispatchers
                depth = dispatcher.pipeline_depth
            served = json.loads(response.split(b"\r\n\r\n", 1)[1])
            return metrics, served["applications"]["demo"], depth

        metrics, server_wide, depth = run_async(scenario())
        assert set(metrics) == set(server_wide) == {"counters", "histograms", "gauges"}
        assert depth >= 1
        for exposition in (metrics, server_wide):
            assert exposition["gauges"]["model.noop:1.pipeline_depth"] == float(depth)
            assert exposition["gauges"]['queue.depth{model="noop:1"}'] == 0.0
            assert exposition["counters"]["predict.count"] == 1
            assert exposition["counters"]["model.noop:1.throughput"] == 1


class TestServerLifecycle:
    def test_stop_closes_live_keepalive_connections(self):
        async def scenario():
            server = make_server(make_app())
            await server.start()
            client = AsyncClipperClient("127.0.0.1", server.port)
            await client.predict("demo", [0.0])
            # The client's keep-alive connection is open; stop() must not
            # hang waiting for it.
            await asyncio.wait_for(server.stop(), timeout=5.0)
            await client.close()
            assert not server.is_serving

        run_async(scenario())

    def test_start_is_idempotent_and_restartable(self):
        async def scenario():
            server = make_server(make_app())
            await server.start()
            port = server.port
            await server.start()  # no-op
            assert server.port == port
            await server.stop()
            await server.start()  # fresh listener after a stop
            assert server.is_serving
            await server.stop()

        run_async(scenario())

    def test_server_lifecycle_runs_management_monitors(self):
        # A server over a management frontend owns its lifecycle: the health
        # and canary sweeps run exactly while the server serves (no silent
        # monitoring gap), and nothing of them outlives it.
        def sweeps_and_recoveries():
            return [
                task
                for task in asyncio.all_tasks()
                if not task.done()
                and task.get_coro().__qualname__ in ("sweep", "HealthMonitor._recover")
            ]

        async def scenario():
            clipper = make_app()
            admin = ManagementFrontend()  # monitoring + canary control on
            admin.register_application(clipper)
            server = create_server(admin)
            assert sweeps_and_recoveries() == []
            await server.start()
            try:
                sweeps = sweeps_and_recoveries()
                assert len(sweeps) == 2  # one health, one canary sweep
                steps = {task.get_coro().cr_frame.f_locals["step"] for task in sweeps}
                assert steps == {
                    admin.health_monitor("demo").probe_once,
                    admin.canary_controller("demo").evaluate_once,
                }
            finally:
                await server.stop()
            assert sweeps_and_recoveries() == []
            assert clipper._started is False

        run_async(scenario())

    def test_server_without_applications_serves_routes_only(self):
        async def scenario():
            table = RouteTable()

            async def ping(params, body):
                return ApiResponse(200, {"pong": True})

            table.add("GET", "/api/v1/ping", "ping", ping)
            server = HttpApiServer(table)
            async with server:
                async with AsyncClipperClient("127.0.0.1", server.port) as client:
                    assert await client._call("GET", "/api/v1/ping") == {"pong": True}

        run_async(scenario())
