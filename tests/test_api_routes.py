"""Tests for the versioned route table and the handler surface it exposes."""

import itertools

import pytest

from helpers import run_async
from repro.api.errors import MethodNotAllowedError, RouteNotFoundError
from repro.api.handlers import build_route_table
from repro.api.routes import ApiResponse, RouteTable
from repro.api.verbs import API_PREFIX
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.frontend import QueryFrontend
from repro.management.frontend import ManagementFrontend
from repro.rpc.http11 import MEMO_MAX


async def echo(params, body):
    return ApiResponse(200, {"params": params, "body": body})


class TestRouteTable:
    def test_literal_and_param_matching(self):
        table = RouteTable()
        table.add("GET", "/api/v1/health", "health", echo)
        table.add("POST", "/api/v1/{app}/predict", "predict", echo)
        route, params = table.match("GET", "/api/v1/health")
        assert route.name == "health" and params == {}
        route, params = table.match("POST", "/api/v1/digits/predict")
        assert route.name == "predict" and params == {"app": "digits"}

    def test_unmatched_path_is_route_not_found(self):
        table = RouteTable()
        table.add("POST", "/api/v1/{app}/predict", "predict", echo)
        with pytest.raises(RouteNotFoundError):
            table.match("POST", "/api/v1/digits/nonsense")
        with pytest.raises(RouteNotFoundError):
            table.match("POST", "/api/v2/digits/predict")

    def test_wrong_method_is_method_not_allowed(self):
        table = RouteTable()
        table.add("POST", "/api/v1/{app}/predict", "predict", echo)
        with pytest.raises(MethodNotAllowedError) as excinfo:
            table.match("GET", "/api/v1/digits/predict")
        assert excinfo.value.detail["allowed"] == ["POST"]

    def test_duplicate_route_rejected(self):
        table = RouteTable()
        table.add("POST", "/api/v1/{app}/predict", "predict", echo)
        with pytest.raises(ValueError):
            table.add("POST", "/api/v1/{x}/predict", "other", echo)

    def test_dispatch_invokes_handler(self):
        table = RouteTable()
        table.add("POST", "/api/v1/{app}/update", "update", echo)
        response = run_async(
            table.dispatch("POST", "/api/v1/digits/update", {"label": 1})
        )
        assert response.body == {
            "params": {"app": "digits"},
            "body": {"label": 1},
        }

    def test_query_string_not_part_of_matching(self):
        # Path splitting happens upstream in the HTTP layer; the table sees
        # clean paths.  An empty param segment never matches.
        table = RouteTable()
        table.add("GET", "/api/v1/{app}/schema", "schema", echo)
        with pytest.raises(RouteNotFoundError):
            table.match("GET", "/api/v1//schema")


def _scan(table, method, path):
    """The rule the memo must agree with: first registered match wins."""
    parts = tuple(path.strip("/").split("/"))
    allowed = []
    for route in table.routes():
        params = route.match_path(parts)
        if params is None:
            continue
        if route.method == method:
            return route.name, params
        allowed.append(route.method)
    return ("405", sorted(set(allowed))) if allowed else ("404", None)


class TestRouteMemo:
    def make_table(self):
        table = RouteTable()
        table.add("GET", "/api/v1/health", "health", echo)
        table.add("GET", "/api/v1/trace/{trace_id}", "trace", echo)
        table.add("GET", "/api/v1/{app}/schema", "schema", echo)
        table.add("POST", "/api/v1/{app}/predict", "predict", echo)
        table.add("GET", "/api/v1/{app}/{verb}", "any-verb", echo)
        table.add("DELETE", "/api/v1/{app}/predict", "forget", echo)
        table.add("GET", "/api/v1/admin/{app}/models/{model}", "model", echo)
        return table

    def test_agrees_with_the_linear_scan(self):
        table = self.make_table()
        segments = ["api", "v1", "trace", "schema", "predict", "admin", "models", "x", ""]
        paths = {"/" + "/".join(parts) for n in range(1, 7) for parts in _tuples(segments, n)}
        assert len(paths) > 1000
        for path in sorted(paths):
            for method in ("GET", "POST", "DELETE"):
                try:
                    route, params = table.match(method, path)
                    found = (route.name, params)
                except MethodNotAllowedError as exc:
                    found = ("405", exc.detail["allowed"])
                except RouteNotFoundError:
                    found = ("404", None)
                assert found == _scan(table, method, path), (method, path)

    def test_a_repeated_match_is_remembered_and_hands_out_its_own_params(self, monkeypatch):
        from repro.api.routes import Route

        table = self.make_table()
        first = table.match("POST", "/api/v1/demo/predict")
        tried = []
        original = Route.match_path
        monkeypatch.setattr(
            Route, "match_path", lambda self, parts: tried.append(self) or original(self, parts)
        )
        first[1]["_trace_id"] = "caller's"  # RouteTable.dispatch adds to params
        table.add("POST", "/api/v1/{a}/{b}", "later", echo)
        again = table.match("POST", "/api/v1/demo/predict")
        assert again[0] is first[0] and again[1] == {"app": "demo"} and not tried
        assert again[1] is not table.match("POST", "/api/v1/demo/predict")[1]
        # Refusals are never remembered, and the memo is bounded.
        for _ in range(2):
            with pytest.raises(RouteNotFoundError):
                table.match("POST", "/api/v1/demo")
        for i in range(200):
            assert table.match("GET", f"/api/v1/app{i}/schema")[1] == {"app": f"app{i}"}
        assert len(table._matched) <= MEMO_MAX

    def test_a_full_memo_starts_over_instead_of_forgetting_new_paths(self, monkeypatch):
        from repro.api.routes import Route

        table = self.make_table()
        for i in range(MEMO_MAX + 1):
            table.match("GET", f"/api/v1/trace/{i:016x}")
        table.match("POST", "/api/v1/later-app/predict")
        tried = []
        original = Route.match_path
        monkeypatch.setattr(
            Route, "match_path", lambda self, parts: tried.append(self) or original(self, parts)
        )
        route, params = table.match("POST", "/api/v1/later-app/predict")
        assert route.name == "predict" and params == {"app": "later-app"} and not tried

    def test_registration_order_decides_between_overlapping_shapes(self):
        table = self.make_table()
        # Matches trace/{id}, {app}/schema and {app}/{verb}: first one wins.
        assert table.match("GET", "/api/v1/trace/schema")[0].name == "trace"
        assert table.match("GET", "/api/v1/demo/schema")[0].name == "schema"
        assert table.match("GET", "/api/v1/demo/other")[0].name == "any-verb"
        with pytest.raises(MethodNotAllowedError) as excinfo:
            table.match("PUT", "/api/v1/demo/predict")
        assert excinfo.value.detail["allowed"] == ["DELETE", "GET", "POST"]

    def test_a_repeated_predict_tries_no_route(self, monkeypatch):
        from repro.api.routes import Route

        clipper = Clipper(ClipperConfig(app_name="demo", selection_policy="single"))
        admin = ManagementFrontend(monitor_health=False, manage_canaries=False)
        admin.register_application(clipper)
        table = build_route_table(admin)
        assert len(table.routes()) > 20
        table.match("POST", f"{API_PREFIX}/demo/predict")
        tried = []
        original = Route.match_path
        monkeypatch.setattr(
            Route, "match_path", lambda self, parts: tried.append(self) or original(self, parts)
        )
        route, params = table.match("POST", f"{API_PREFIX}/demo/predict")
        assert route.name == "predict" and params == {"app": "demo"}
        assert not tried


def _tuples(items, n):
    """Every n-tuple up to n = 4; every 97th beyond, to keep the test quick."""
    step = 1 if n <= 4 else 97
    return itertools.islice(itertools.product(items, repeat=n), 0, None, step)


class TestBuiltSurface:
    def make_frontend(self, frontend):
        clipper = Clipper(ClipperConfig(app_name="demo", selection_policy="single"))
        clipper.deploy_model(
            ModelDeployment(name="noop", container_factory=NoOpContainer)
        )
        frontend.register_application(clipper)
        return frontend

    def test_full_verb_set_registered(self):
        admin = self.make_frontend(
            ManagementFrontend(monitor_health=False, manage_canaries=False)
        )
        table = build_route_table(admin)
        names = {route.name for route in table.routes()}
        assert {
            "health",
            "routes",
            "applications",
            "schema",
            "predict",
            "update",
            "admin.applications",
            "admin.deploy",
            "admin.undeploy",
            "admin.scale",
            "admin.rollout",
            "admin.rollback",
            "admin.start_canary",
            "admin.adjust_canary",
            "admin.promote",
            "admin.abort_canary",
            "admin.models",
            "admin.model_info",
            "admin.health",
            "admin.metrics",
            "admin.routing",
        } <= names
        # Every route is versioned under the prefix.
        assert all(route.pattern.startswith(API_PREFIX) for route in table.routes())

    def test_query_only_table_has_no_admin_routes(self):
        table = build_route_table(self.make_frontend(QueryFrontend()))
        assert not any(r.name.startswith("admin.") for r in table.routes())

    def test_describe_lists_method_path_name(self):
        table = build_route_table(self.make_frontend(QueryFrontend()))
        listing = table.describe()
        assert {"method": "POST", "path": f"{API_PREFIX}/{{app}}/predict", "name": "predict"} in listing
