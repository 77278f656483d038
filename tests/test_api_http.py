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
from repro.api.routes import RouteTable
from repro.client import (
    AsyncAdminClient,
    AsyncClipperClient,
    ClipperClient,
    InvalidInput,
    MalformedRequest,
    ManagementConflict,
    RouteNotFound,
    UnknownApplication,
)
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.exceptions import ClipperError, DuplicateApplicationError
from repro.core.frontend import QueryFrontend
from repro.management.frontend import ManagementFrontend


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


def make_server(clipper, admin=None, factories=None):
    query = QueryFrontend()
    query.register_application(clipper)
    return create_server(query=query, admin=admin, factories=factories)


async def raw_request(port, data: bytes) -> bytes:
    """Push raw bytes at the server and return everything it answers."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(data)
    await writer.drain()
    response = await reader.read()
    writer.close()
    return response


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
        # In-process: the shared host raises the typed 409 error...
        frontend = QueryFrontend()
        frontend.register_application(make_app())
        with pytest.raises(DuplicateApplicationError) as excinfo:
            frontend.register_application(make_app())
        assert excinfo.value.http_status == 409

        # ... and over HTTP the same conflict discipline applies to a
        # duplicate model-version deployment through the admin API.
        async def scenario():
            clipper = make_app()
            admin = ManagementFrontend(monitor_health=False, manage_canaries=False)
            admin.register_application(clipper)
            server = make_server(
                clipper, admin=admin, factories={"noop": NoOpContainer}
            )
            async with server:
                async with AsyncAdminClient("127.0.0.1", server.port) as adm:
                    with pytest.raises(ManagementConflict) as excinfo:
                        await adm.deploy("demo", "noop", factory="noop", version=1)
                    assert excinfo.value.status == 409

        run_async(scenario())

    def test_malformed_body_is_400(self):
        async def scenario():
            server = make_server(make_app())
            async with server:
                body = b"{this is not json"
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

    def test_sync_client(self):
        # The realistic shape for the blocking client: the server lives on
        # its own event loop in a background thread, the client blocks in
        # the test thread.
        import threading

        loop = asyncio.new_event_loop()
        box = {}
        started = threading.Event()

        def serve():
            asyncio.set_event_loop(loop)
            server = make_server(make_app(output=5))
            loop.run_until_complete(server.start())
            box["server"] = server
            started.set()
            loop.run_forever()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert started.wait(10.0)
        server = box["server"]
        try:
            with ClipperClient("127.0.0.1", server.port) as client:
                result = client.predict("demo", [0.0])
                assert result.output == 5
                client.update("demo", [0.0], label=5)
                assert [a["app_name"] for a in client.applications()] == ["demo"]
        finally:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10.0)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10.0)
            loop.close()

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
            clipper = make_app(output=1)
            admin_frontend = ManagementFrontend(
                monitor_health=False, manage_canaries=False
            )
            admin_frontend.register_application(clipper)
            server = make_server(
                clipper,
                admin=admin_frontend,
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
            clipper = make_app()
            admin_frontend = ManagementFrontend(
                monitor_health=False, manage_canaries=False
            )
            admin_frontend.register_application(clipper)
            server = make_server(clipper, admin=admin_frontend, factories={})
            async with server:
                async with AsyncAdminClient("127.0.0.1", server.port) as adm:
                    with pytest.raises(MalformedRequest) as excinfo:
                        await adm.deploy("demo", "noop", factory="ghost", version=2)
                    assert excinfo.value.detail == {"registered": []}

        run_async(scenario())


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
        # create_server registers the admin frontend as a lifecycle
        # manager: health monitors and canary controllers run exactly while
        # the server serves (no silent monitoring gap).
        async def scenario():
            clipper = make_app()
            admin = ManagementFrontend()  # monitoring + canary control on
            admin.register_application(clipper)
            server = create_server(admin=admin)
            monitor = admin.health_monitor("demo")
            controller = admin.canary_controller("demo")
            assert monitor._task is None
            await server.start()
            try:
                assert monitor._task is not None and not monitor._task.done()
                assert controller._task is not None and not controller._task.done()
            finally:
                await server.stop()
            assert monitor._task is None
            assert controller._task is None
            assert clipper._started is False

        run_async(scenario())

    def test_server_without_applications_serves_routes_only(self):
        async def scenario():
            table = RouteTable()
            from repro.api.routes import ApiResponse

            async def ping(params, body):
                return ApiResponse(200, {"pong": True})

            table.add("GET", "/api/v1/ping", "ping", ping)
            server = HttpApiServer(table)
            async with server:
                async with AsyncClipperClient("127.0.0.1", server.port) as client:
                    assert await client._call("GET", "/api/v1/ping") == {"pong": True}

        run_async(scenario())
