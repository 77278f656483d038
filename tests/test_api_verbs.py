"""The operator-verb table is the one place a wire shape is written.

Both ends read ``repro.api.verbs.ADMIN_VERBS``: the route table serves one
route per row through one handler, the SDK offers one method per row.  These
tests hold the two ends to the table — and to each other — over every row:
parity of routes and SDK verbs, the 404-before-400 order, a 400 naming each
missing or mistyped field, the SDK's argument binding, and that a new row
needs no other edit than its frontend method.
"""

from __future__ import annotations

import inspect

import pytest

from helpers import run_async
from repro.api import verbs
from repro.api.errors import BadRequestError, UnknownApplicationError
from repro.api.handlers import build_route_table
from repro.api.http import create_server
from repro.api.verbs import ADMIN_VERBS, Field, Verb
from repro.client import AsyncAdminClient, MalformedRequest
from repro.client.client import _BaseAsyncClient, bind_verbs
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.management import ManagementFrontend

POSTS = [verb for verb in ADMIN_VERBS if verb.method == "POST"]

#: A value of the wrong JSON type for each field kind.
WRONG = {str: 7, int: "7", float: True, bool: "yes", dict: [1]}
RIGHT = {str: "noop", int: 2, float: 0.5, bool: True, dict: {}}


def make_admin(cls=ManagementFrontend):
    clipper = Clipper(ClipperConfig(app_name="demo", selection_policy="single"))
    clipper.deploy_model(ModelDeployment(name="noop", container_factory=NoOpContainer))
    admin = cls(monitor_health=False, manage_canaries=False)
    admin.register_application(clipper)
    return admin


def body_of(verb: Verb) -> dict:
    return {field.name: RIGHT[field.kind] for field in verb.fields if field.required}


class TestParity:
    def test_every_admin_route_has_an_sdk_verb_and_the_reverse(self):
        async def scenario():
            admin = make_admin()
            async with create_server(admin=admin) as server:
                async with AsyncAdminClient("127.0.0.1", server.port) as sdk:
                    status, payload = await sdk._conn.request("GET", "/api/v1/routes")
                    assert await sdk.applications() == ["demo"]
            return [route for route in payload["routes"] if route["name"].startswith("admin.")]

        served = run_async(scenario())
        offered = {
            name
            for name, member in vars(AsyncAdminClient).items()
            if inspect.iscoroutinefunction(member) and not name.startswith("_")
        }
        assert {route["name"] for route in served} == {f"admin.{name}" for name in offered}
        by_name = {verb.route: verb for verb in ADMIN_VERBS}
        assert len(by_name) == len(ADMIN_VERBS) == len(served)
        for route in served:
            verb = by_name[route["name"]]
            assert (route["method"], route["path"]) == (verb.method, verb.pattern)

    def test_sdk_signatures_keep_their_names_and_positional_order(self):
        names = {verb.name: list(verb.signature.parameters) for verb in ADMIN_VERBS}
        assert names["deploy"] == [
            "app_name", "model_name", "factory", "version", "num_replicas",
            "batching", "serialize_rpc", "activate", "transport", "spec",
        ]
        assert names["scale"] == ["app_name", "model", "num_replicas"]
        assert names["start_canary"] == ["app_name", "model_name", "version", "weight"]
        assert names["model_info"] == ["app_name", "model_name"]
        assert names["applications"] == []

    def test_the_handlers_and_the_sdk_spell_no_verb_themselves(self):
        import repro.api.handlers
        import repro.client.client

        for module in (repro.api.handlers, repro.client.client):
            source = inspect.getsource(module)
            assert "/admin" not in source and '"admin.' not in source
            for verb in POSTS:
                assert f'/{verb.name}"' not in source, verb.name


class TestRequestBinding:
    def test_positional_keyword_and_open_fields(self):
        deploy = next(verb for verb in ADMIN_VERBS if verb.name == "deploy")
        path, body = deploy.request(
            "demo", "m", "f", 2, activate=False, max_batch_retries=5, transport=None
        )
        assert path == "/api/v1/admin/demo/deploy"
        assert body == {
            "model_name": "m", "factory": "f", "version": 2,
            "activate": False, "max_batch_retries": 5,
        }
        info = next(verb for verb in ADMIN_VERBS if verb.name == "model_info")
        assert info.request("demo", model_name="m") == ("/api/v1/admin/demo/models/m", None)

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            (("demo",), {}),  # missing model_name
            (("demo", "m", 2, "surplus"), {}),
            (("demo", "m"), {"model_name": "again", "version": 2}),
            (("demo", "m", 2), {"weight": 0.5}),  # a closed row takes no stranger
        ],
    )
    def test_misbinding_is_a_type_error_before_anything_is_sent(self, args, kwargs):
        rollout = next(verb for verb in ADMIN_VERBS if verb.name == "rollout")
        with pytest.raises(TypeError):
            rollout.request(*args, **kwargs)


class TestOneHandlerOverEveryRow:
    @pytest.mark.parametrize(
        "verb",
        [verb for verb in ADMIN_VERBS if "app" in verb.path_params],
        ids=lambda verb: verb.name,
    )
    def test_unknown_application_is_404_before_the_body_is_parsed(self, verb):
        table = build_route_table(admin=make_admin())
        path = verb.pattern.format(app="ghost", model="noop")
        with pytest.raises(UnknownApplicationError):
            run_async(table.dispatch(verb.method, path, "not even an object"))

    @pytest.mark.parametrize("verb", POSTS, ids=lambda verb: verb.name)
    def test_a_body_that_is_no_object_is_400(self, verb):
        table = build_route_table(admin=make_admin())
        for body in (None, [1, 2], "text"):
            with pytest.raises(BadRequestError):
                run_async(table.dispatch("POST", verb.pattern.format(app="demo"), body))

    @pytest.mark.parametrize(
        "verb, field",
        [(verb, field) for verb in POSTS for field in verb.fields],
        ids=lambda value: value.name,
    )
    def test_missing_or_mistyped_field_is_400_naming_it(self, verb, field):
        table = build_route_table(admin=make_admin(), factories={"noop": NoOpContainer})
        path = verb.pattern.format(app="demo")
        bodies = [{**body_of(verb), field.name: WRONG[field.kind]}]
        if field.required:
            missing = body_of(verb)
            del missing[field.name]
            bodies += [missing, {**body_of(verb), field.name: None}]
            if field.kind is str:
                bodies.append({**body_of(verb), field.name: ""})
        for body in bodies:
            with pytest.raises(BadRequestError) as excinfo:
                run_async(table.dispatch("POST", path, body))
            assert excinfo.value.code == "malformed_request"
            assert f"'{field.name}'" in str(excinfo.value), body

    def test_an_optional_field_sent_as_null_is_absent(self):
        async def scenario():
            admin = make_admin()
            table = build_route_table(admin=admin, factories={"noop": NoOpContainer})
            body = {"model_name": "noop", "factory": "noop", "version": 2, "activate": None}
            response = await table.dispatch("POST", "/api/v1/admin/demo/deploy", body)
            return response.body

        assert run_async(scenario()) == {"model": "noop:2", "serving": False}


class TestDeployForwardsAnySpecField:
    def test_retries_and_breaker_round_trip_into_the_stored_spec(self):
        async def scenario():
            admin = make_admin()
            server = create_server(admin=admin, factories={"noop": NoOpContainer})
            async with server:
                async with AsyncAdminClient("127.0.0.1", server.port) as sdk:
                    deployed = await sdk.deploy(
                        "demo",
                        "noop",
                        "noop",
                        2,
                        max_batch_retries=5,
                        circuit_breaker={"min_samples": 7},
                    )
                    assert deployed == {"model": "noop:2", "serving": False}
                    info = await sdk.model_info("demo", "noop")
                    with pytest.raises(MalformedRequest) as excinfo:
                        await sdk.deploy("demo", "noop", "noop", 3, no_such_field=1)
                    assert "no_such_field" in str(excinfo.value)
            return info["versions"]["2"]["spec"]

        spec = run_async(scenario())
        assert spec["max_batch_retries"] == 5
        assert spec["circuit_breaker"]["min_samples"] == 7


class TestAddingAVerbIsOneRowPlusOneFrontendMethod:
    def test_a_new_row_gets_a_route_its_400s_and_an_sdk_method(self, monkeypatch):
        ping = Verb(
            "ping", "POST", "/{app}/ping", "ping",
            fields=(Field("times", int), Field("note", str, False)),
            respond=lambda echoed, clipper: {"echo": echoed, "app": clipper.config.app_name},
            returns="echo",
            doc="Echo, for the test.",
        )
        rows = ADMIN_VERBS + (ping,)
        monkeypatch.setattr(verbs, "ADMIN_VERBS", rows)

        class Frontend(ManagementFrontend):
            def ping(self, app_name, times, note=None):
                return [app_name, note] * times

        class Sdk(_BaseAsyncClient):
            pass

        bind_verbs(Sdk, rows)

        async def scenario():
            async with create_server(admin=make_admin(Frontend)) as server:
                async with Sdk("127.0.0.1", server.port) as sdk:
                    assert Sdk.ping.__doc__ == "Echo, for the test."
                    assert await sdk.ping("demo", 2, note="hi") == ["demo", "hi"] * 2
                    for bad in ({"times": "2"}, {"note": "hi"}):
                        status, payload = await sdk._conn.request(
                            "POST", "/api/v1/admin/demo/ping", bad
                        )
                        assert status == 400
                        assert payload["error"]["code"] == "malformed_request"
                        assert "'times'" in payload["error"]["message"]
                    status, payload = await sdk._conn.request("GET", "/api/v1/routes")
                    return [route["name"] for route in payload["routes"]]

        assert "admin.ping" in run_async(scenario())
