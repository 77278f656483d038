"""Tests for the observability layer: tracing, Prometheus exposition,
structured logging, and the tail-capture path end-to-end over HTTP.

The end-to-end class is the acceptance scenario of the tracing PR: an
SLO-missed query (slow container, small SLO, default output, straggler
mitigation) must be tail-captured with a complete span tree — queue wait,
RPC legs and the deadline-miss marker — retrievable via
``GET /api/v1/trace/<id>``, with the trace id visible in the HTTP response
header and the trace listed under ``GET /api/v1/traces?slow=1``.
"""

import asyncio
import io
import json
import logging
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import SimulatedLatencyContainer, run_async
from repro.api.http import create_server
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.frontend import QueryFrontend
from repro.core import metrics
from repro.core.metrics import DEFAULT_BUCKETS_MS, WINDOW_SIZE, AnsweredMetrics, MetricsRegistry
from repro.core.types import Query
from repro.observability.logging import configure_logging, get_logger
from repro.observability.prometheus import (
    parse_exposition,
    render_prometheus,
    validate,
)
from repro.observability import tracing
from repro.observability.tracing import (
    TRACE_RETRIED,
    TRACE_SLO_MISS,
    BatchSpans,
    TraceRecord,
    TraceRegistry,
    Tracer,
    flag_names,
    format_trace_id,
)
from repro.rpc.protocol import RpcResponse, predict_reply, predict_request


@pytest.fixture(autouse=True)
def rare_head_sampling(monkeypatch):
    """Head sampling effectively off: what a test traces it forces with a
    trace id, or tail capture commits.  A test that samples sets its period."""
    monkeypatch.setattr(tracing, "SAMPLE_EVERY", 1_000_000)


class TestTracer:
    def test_disabled_tracer_begins_nothing(self):
        tracer = Tracer(False)
        assert tracer.begin() is None
        assert tracer.begin(trace_id="forced") is None
        assert tracer.capture_event("x") is None
        assert not tracer.active

    def test_head_sampling_period(self, monkeypatch):
        monkeypatch.setattr(tracing, "SAMPLE_EVERY", 4)
        tracer = Tracer()
        picked = [tracer.begin() is not None for _ in range(8)]
        assert picked == [False, False, False, True, False, False, False, True]

    def test_default_period_samples_one_query_in_256(self, monkeypatch):
        monkeypatch.undo()  # back to the shipped period, not the fixture's
        tracer = Tracer()
        picked = [i for i in range(2 * 256) if tracer.begin() is not None]
        assert picked == [255, 511]

    def test_default_ring_keeps_the_last_512_traces(self):
        registry = Tracer().registry
        for i in range(513):
            registry.commit(TestTraceRegistry._record(f"t{i}", end=float(i + 1)))
        assert registry.get("t0") is None
        assert registry.get("t1") is not None and registry.get("t512") is not None
        assert len(registry.recent(limit=1000)) == 512

    def test_client_trace_id_forces_sampling(self):
        tracer = Tracer()
        ctx = tracer.begin(trace_id="client-id-1")
        assert ctx is not None and ctx.sampled
        trace_id = tracer.finish(ctx)
        assert trace_id == "client-id-1"
        assert tracer.registry.get("client-id-1") is not None

    def test_boring_shadow_commits_nothing_and_owns_no_id(self):
        tracer = Tracer()
        ctx = tracer.shadow(0.0)
        assert not ctx.sampled and ctx.trace_id is None
        assert tracer.finish(ctx) is None
        assert tracer.registry.recent() == [] and ctx.trace_id is None

    def test_a_shadow_folds_in_what_its_entries_were_stamped_with(self):
        tracer = Tracer()
        common = [("rpc.send", 0.3, 0.4, None)]
        answered = SimpleNamespace(enqueue_time=0.1, trace=BatchSpans(0.2, common))
        retried = SimpleNamespace(enqueue_time=0.1, trace=tracer.shadow(0.1))
        retried.trace.flags = TRACE_RETRIED
        retried.trace.add("batch.retry", 0.25, 0.25)
        waiting = SimpleNamespace(enqueue_time=0.1, trace=None)
        ctx = tracer.shadow(0.0, [answered, retried, waiting])
        assert ctx.flags == TRACE_RETRIED
        assert ctx.spans == [
            ("queue.wait", 0.1, 0.2, None), *common, ("batch.retry", 0.25, 0.25, None),
        ]
        # Each entry now points at the shadow: a batch still out stamps it.
        assert answered.trace is retried.trace is waiting.trace is ctx

    def test_flagged_shadow_commits_with_fresh_id(self):
        tracer = Tracer()
        ctx = tracer.shadow(0.0)
        ctx.spans.append(("queue.wait", 0.0, 0.1, None))
        trace_id = tracer.finish(ctx, slo_missed=True, query_id=7)
        assert trace_id is not None
        record = tracer.registry.get(trace_id)
        assert record is not None
        assert record.flags & TRACE_SLO_MISS
        assert record.query_id == 7
        assert not record.sampled
        # A second boring shadow does not reuse the committed context.
        fresh = tracer.shadow(2.0)
        assert fresh is not ctx

    def test_sampled_trace_feeds_stage_histograms(self, monkeypatch):
        monkeypatch.setattr(tracing, "SAMPLE_EVERY", 1)
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        ctx = tracer.begin()
        ctx.spans.append(("selection.select", 0.0, 0.002, None))
        ctx.spans.append(("cache.lookup", 0.002, 0.003, None))
        assert tracer.finish(ctx) is not None
        snapshot = metrics.snapshot()
        assert 'predict.stage_ms{stage="selection.select"}' in snapshot.histograms
        assert 'predict.stage_ms{stage="cache.lookup"}' in snapshot.histograms

    def test_capture_event_commits_single_span(self):
        tracer = Tracer()
        trace_id = tracer.capture_event(
            "canary.abort", meta={"model": "m"}, flags=TRACE_RETRIED, component="routing"
        )
        record = tracer.registry.get(trace_id)
        assert record is not None
        assert record.component == "routing"
        assert record.spans[0][0] == "canary.abort"
        assert record.flags == TRACE_RETRIED

    def test_format_trace_id(self):
        assert format_trace_id("abc") == "abc"
        assert format_trace_id(255) == "00000000000000ff"

    def test_flag_names(self):
        assert flag_names(TRACE_SLO_MISS | TRACE_RETRIED) == ["slo_miss", "retried"]
        assert flag_names(0) == []


class TestTraceRegistry:
    @staticmethod
    def _record(trace_id, start=0.0, end=1.0, flags=0, component="engine"):
        return TraceRecord(
            trace_id=trace_id,
            component=component,
            start=start,
            end=end,
            flags=flags,
            spans=[("stage", start, end, None)],
        )

    def test_ring_evicts_oldest(self):
        registry = TraceRegistry(capacity=2)
        for i in range(3):
            registry.commit(self._record(f"t{i}", end=float(i + 1)))
        assert registry.get("t0") is None
        assert registry.get("t1") is not None
        assert registry.get("t2") is not None
        listed = [s["trace_id"] for s in registry.recent()]
        assert listed == ["t2", "t1"]

    def test_slow_filter_keeps_slo_misses_only(self):
        registry = TraceRegistry(capacity=8)
        registry.commit(self._record("fast", end=1.0))
        registry.commit(self._record("slow", end=2.0, flags=TRACE_SLO_MISS))
        slow = registry.recent(slow=True)
        assert [s["trace_id"] for s in slow] == ["slow"]
        assert "slo_miss" in slow[0]["flags"]

    def test_components_are_separate_rings(self):
        registry = TraceRegistry(capacity=1)
        registry.commit(self._record("e1", end=1.0, component="engine"))
        registry.commit(self._record("r1", end=2.0, component="routing"))
        # Capacity is per component: neither evicted the other.
        assert registry.get("e1") is not None and registry.get("r1") is not None
        listed = [(s["trace_id"], s["component"]) for s in registry.recent()]
        assert listed == [("r1", "routing"), ("e1", "engine")]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceRegistry(capacity=0)


class TestTraceTree:
    def test_spans_nest_by_containment(self):
        record = TraceRecord(
            trace_id="t",
            component="engine",
            start=0.0,
            end=0.1,
            flags=0,
            spans=[
                ("model.wait", 0.01, 0.09, None),
                ("rpc.send", 0.02, 0.03, None),
                ("rpc.wait", 0.03, 0.08, {"model": "m"}),
            ],
        )
        tree = record.to_tree()
        root = tree["root"]
        assert root["name"] == "request"
        (wait,) = root["children"]
        assert wait["name"] == "model.wait"
        assert [child["name"] for child in wait["children"]] == ["rpc.send", "rpc.wait"]
        assert wait["children"][1]["meta"] == {"model": "m"}

    def test_latecomer_span_past_end_is_absorbed(self):
        record = TraceRecord(
            trace_id="t",
            component="engine",
            start=0.0,
            end=0.05,
            flags=0,
            spans=[("rpc.wait", 0.01, 0.2, None)],
        )
        root = record.to_tree()["root"]
        assert [child["name"] for child in root["children"]] == ["rpc.wait"]


class TestRpcTracePropagation:
    def test_untraced_payloads_omit_trace_fields(self):
        assert set(predict_request(1, [1, 2])) == {"type", "request_id", "inputs"}
        payload = predict_reply(1, [0, 0], None, 0.1)
        assert "eval_start" not in payload and "eval_end" not in payload
        assert RpcResponse.from_payload(payload).eval_end == 0.0

    def test_the_evaluation_window_round_trips(self):
        assert predict_request(1, [1], stamp=True)["stamp"] is True
        payload = predict_reply(1, [0], None, 0.1, (10.5, 10.75))
        decoded = RpcResponse.from_payload(payload)
        assert decoded.eval_start == 10.5 and decoded.eval_end == 10.75


class TestPrometheusExposition:
    @staticmethod
    def _registry():
        registry = MetricsRegistry()
        registry.counter("predict.count").increment(5)
        hist = registry.histogram("predict.latency_ms")
        for value in (0.05, 0.3, 3.0, 40.0):
            hist.observe(value)
        family = registry.histogram_family("predict.stage_ms", label="stage")
        family.labels("rpc.send").observe(0.2)
        family.labels("queue_wait").observe(1.5)
        return registry

    def test_render_validates_and_carries_app_label(self):
        text = render_prometheus({"demo": self._registry()})
        families = validate(text)
        counter = families["clipper_predict_count_total"]
        assert counter["type"] == "counter"
        (sample,) = counter["samples"]
        assert sample["labels"]["app"] == "demo"
        assert sample["value"] == 5.0

    def test_family_children_become_label_series(self):
        text = render_prometheus({"demo": self._registry()})
        families = validate(text)
        stage = families["clipper_predict_stage_ms"]
        stages = {
            sample["labels"]["stage"]
            for sample in stage["samples"]
            if sample["name"].endswith("_count")
        }
        assert stages == {"rpc.send", "queue_wait"}

    def test_histogram_buckets_cumulative_to_inf(self):
        text = render_prometheus({"demo": self._registry()})
        families = parse_exposition(text)
        latency = families["clipper_predict_latency_ms"]
        buckets = [
            sample
            for sample in latency["samples"]
            if sample["name"] == "clipper_predict_latency_ms_bucket"
        ]
        counts = [sample["value"] for sample in buckets]
        assert counts == sorted(counts)
        assert buckets[-1]["labels"]["le"] == "+Inf"
        assert buckets[-1]["value"] == 4.0
        # validate() enforces the same structural rules; must not raise.
        validate(text)

    def test_vectorised_buckets_match_the_per_observation_loop(self):
        """Golden test: the rendered bucket counts against a per-observation
        loop (kept here as the reference), on values that sit on bucket
        bounds, above every bound, below the first, and on more values than
        the quantile window keeps: the exposition counts every observation
        of the histogram's lifetime.  ``_sum`` may differ by float rounding
        only."""

        def reference(values, buckets):
            counts, total = [0] * len(buckets), 0.0
            for value in values:
                total += value
                for i, bound in enumerate(buckets):
                    if value <= bound:
                        counts[i] += 1
                        break
            cumulative, running = [], 0
            for count in counts:
                running += count
                cumulative.append(running)
            return cumulative, total

        rng = random.Random(7)
        cases = {
            "empty": [],
            "edges": [*DEFAULT_BUCKETS_MS, 0.0, -1.0, 1e9, float("inf"), 0.1, 5000.0],
            "full": [rng.expovariate(0.05) for _ in range(20000)],
        }
        registry = MetricsRegistry()
        for name, values in cases.items():
            hist = registry.histogram(f"golden.{name}")
            for value in values:
                hist.observe(value)
        families = validate(render_prometheus({"demo": registry}))
        for name, values in cases.items():
            samples = families[f"clipper_golden_{name}"]["samples"]
            cumulative, total = reference(values, DEFAULT_BUCKETS_MS)
            buckets = [s["value"] for s in samples if s["name"].endswith("_bucket")]
            assert buckets == [*cumulative, len(values)]
            assert [s["labels"]["le"] for s in samples if "le" in s["labels"]][-1] == "+Inf"
            (count,) = [s["value"] for s in samples if s["name"].endswith("_count")]
            (rendered_sum,) = [s["value"] for s in samples if s["name"].endswith("_sum")]
            assert count == len(values)
            assert rendered_sum == pytest.approx(total, rel=1e-9)

    @given(
        steps=st.lists(
            st.one_of(st.floats(0.0, 1e4), st.integers(0, 1)), min_size=1, max_size=60
        )
    )
    def test_every_histogram_series_only_grows(self, steps):
        """Observations (floats) interleaved with renders (0) and answered
        queries (1), past a window of 4: between two renders no ``_bucket``,
        ``_sum`` or ``_count`` series falls, and the answered latency's
        ``_count`` is the answered count's ``_total``."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "WINDOW_SIZE", 4)
            registry = MetricsRegistry()
            answered = AnsweredMetrics(registry, "predict")
            stage = registry.histogram_family("predict.stage_ms").labels("queue")
        previous = {}
        for step in [*steps, 0]:
            if isinstance(step, float):
                stage.observe(step)
                answered.record(step)
            elif step:
                answered.record(0.3)
            else:
                families = validate(render_prometheus({"demo": registry}))
                series = {
                    (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
                    for name in ("clipper_predict_latency_ms", "clipper_predict_stage_ms")
                    for s in families[name]["samples"]
                }
                assert all(series[key] >= value for key, value in previous.items())
                previous = series
                (total,) = families["clipper_predict_count_total"]["samples"]
                assert series[("clipper_predict_latency_ms_count", (("app", "demo"),))] == (
                    total["value"]
                )

    def test_the_exposition_outlives_the_window(self):
        """A full window of 4.0 answers, then 3,616 of 1.0: ``_count`` and
        ``+Inf`` read the answered total and ``_sum`` every value's sum,
        never below an earlier scrape's."""
        registry = MetricsRegistry()
        answered = AnsweredMetrics(registry, "predict")
        for _ in range(WINDOW_SIZE):
            answered.record(4.0)
        before = validate(render_prometheus({"demo": registry}))
        for _ in range(3616):
            answered.record(1.0)
        after = validate(render_prometheus({"demo": registry}))

        def reading(families, name, le=None):
            (value,) = [
                s["value"]
                for s in families["clipper_predict_latency_ms"]["samples"]
                if s["name"] == name and s["labels"].get("le") == le
            ]
            return value

        total = WINDOW_SIZE + 3616
        assert after["clipper_predict_count_total"]["samples"][0]["value"] == total
        assert reading(after, "clipper_predict_latency_ms_count") == total
        assert reading(after, "clipper_predict_latency_ms_bucket", "+Inf") == total
        assert reading(after, "clipper_predict_latency_ms_bucket", "1") == 3616
        assert reading(after, "clipper_predict_latency_ms_sum") == 4.0 * WINDOW_SIZE + 3616
        assert reading(before, "clipper_predict_latency_ms_sum") == 4.0 * WINDOW_SIZE

    def test_scrape_of_full_histograms_does_not_stall_the_loop(self):
        """Five full windows rendered in a few ms (the per-observation
        Python loop took ~30 ms on the same registry; the bound here leaves
        a slow CI host an order of magnitude of slack over the ~3 ms
        measured)."""
        registry = MetricsRegistry()
        rng = random.Random(3)
        for i in range(5):
            hist = registry.histogram(f"full.{i}")
            for _ in range(16384):
                hist.observe(rng.expovariate(0.2))
        render_prometheus({"demo": registry})
        elapsed = []
        for _ in range(5):
            start = time.perf_counter()
            render_prometheus({"demo": registry})
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.015

    def test_label_values_escape(self):
        registry = MetricsRegistry()
        registry.counter_family("odd", label="kind").labels('we"ird\\x').increment()
        text = render_prometheus({"a\\p\np": registry})
        families = validate(text)
        (sample,) = families["clipper_odd_total"]["samples"]
        assert sample["labels"]["kind"] == 'we"ird\\x'
        assert sample["labels"]["app"] == "a\\p\np"

    def test_help_and_type_lines_required(self):
        with pytest.raises(ValueError, match="missing TYPE"):
            validate('clipper_thing_total{app="a"} 1\n# HELP clipper_thing_total x\n')
        with pytest.raises(ValueError, match="empty exposition"):
            validate("")

    def test_malformed_lines_rejected(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_exposition("not a metric line at all!{ 3\n")
        with pytest.raises(ValueError, match="unparsable sample value"):
            parse_exposition("clipper_x 1.2.3\n")


class TestStructuredLogging:
    def test_configure_is_idempotent(self):
        root = configure_logging(force=True)
        before = len(root.handlers)
        configure_logging()
        configure_logging()
        assert len(root.handlers) == before
        assert root.propagate is False

    def test_asyncio_logger_guarded_once(self):
        configure_logging(force=True)
        configure_logging()
        asyncio_logger = logging.getLogger("asyncio")
        structured = [
            h for h in asyncio_logger.handlers if getattr(h, "_repro_structured", False)
        ]
        assert len(structured) == 1

    def test_json_lines_with_extra_context(self):
        stream = io.StringIO()
        configure_logging(stream=stream, force=True)
        logger = get_logger("test.component")
        logger.info("deployed %s", "m:1", extra={"trace_id": "abc", "version": 3})
        payload = json.loads(stream.getvalue().strip())
        assert payload["event"] == "deployed m:1"
        assert payload["logger"] == "repro.test.component"
        assert payload["level"] == "INFO"
        assert payload["trace_id"] == "abc"
        assert payload["version"] == 3
        assert "ts" in payload
        configure_logging(force=True)

    def test_get_logger_namespaces_once(self):
        assert get_logger("api.http").name == "repro.api.http"
        assert get_logger("repro.api.http").name == "repro.api.http"


def _slow_app(name="slow"):
    clipper = Clipper(
        ClipperConfig(
            app_name=name,
            latency_slo_ms=40.0,
            selection_policy="single",
            default_output=-1,
            straggler_mitigation=True,
            # Head sampling is off (rare_head_sampling): only tail capture
            # can commit.
        )
    )
    clipper.deploy_model(
        ModelDeployment(
            name="sleepy",
            container_factory=lambda: SimulatedLatencyContainer(
                base_latency_ms=150.0, default_output=1
            ),
        )
    )
    return clipper


def _fast_app(name="fast"):
    clipper = Clipper(
        ClipperConfig(
            app_name=name,
            latency_slo_ms=500.0,
            selection_policy="single",
        )
    )
    clipper.deploy_model(
        ModelDeployment(
            name="noop", container_factory=lambda: NoOpContainer(output=1)
        )
    )
    return clipper


async def _http_request(port, method, target, body=None, headers=None):
    """One HTTP/1.1 exchange: returns (status, headers dict, decoded body)."""
    payload = b"" if body is None else json.dumps(body).encode()
    lines = [f"{method} {target} HTTP/1.1", "Host: test", "Connection: close"]
    if payload:
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(payload)}")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    raw = ("\r\n".join(lines) + "\r\n\r\n").encode() + payload
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(raw)
        await writer.drain()
        response = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body_bytes = response.partition(b"\r\n\r\n")
    head_lines = head.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split(" ", 2)[1])
    response_headers = {}
    for line in head_lines[1:]:
        name, _, value = line.partition(":")
        response_headers[name.strip().lower()] = value.strip()
    text = body_bytes.decode("utf-8")
    if response_headers.get("content-type", "").startswith("application/json"):
        return status, response_headers, json.loads(text)
    return status, response_headers, text


def _span_names(node, out):
    out.add(node["name"])
    for child in node.get("children", []):
        _span_names(child, out)
    return out


class TestEndToEndTailCapture:
    def test_slo_miss_is_tail_captured_with_full_span_tree(self):
        async def scenario():
            frontend = QueryFrontend()
            frontend.register_application(_slow_app())
            server = create_server(query=frontend)
            async with server:
                status, headers, body = await _http_request(
                    server.port,
                    "POST",
                    "/api/v1/slow/predict",
                    body={"input": [1.0, 2.0]},
                )
                assert status == 200
                assert body["default_used"] is True
                trace_id = headers.get("x-clipper-trace-id")
                assert trace_id, "SLO-missed query must expose its trace id"
                assert body["trace_id"] == trace_id

                # The batch is still evaluating when the deadline fires; the
                # dispatcher appends its queue/RPC spans to the committed
                # record once the container answers.
                await asyncio.sleep(0.4)

                status, _, tree = await _http_request(
                    server.port, "GET", f"/api/v1/trace/{trace_id}"
                )
                assert status == 200
                assert tree["trace_id"] == trace_id
                assert tree["sampled"] is False
                flags = set(tree["flags"])
                assert {"slo_miss", "default_used", "straggler"} <= flags
                names = _span_names(tree["root"], set())
                assert "queue.wait" in names
                assert "deadline.miss" in names
                assert "rpc.send" in names and "rpc.wait" in names
                assert "container.eval" in names

                status, _, listing = await _http_request(
                    server.port, "GET", "/api/v1/traces?slow=1"
                )
                assert status == 200
                assert listing["slow_only"] is True
                assert trace_id in [t["trace_id"] for t in listing["traces"]]

        run_async(scenario())

    def test_client_trace_header_force_samples_fast_query(self):
        async def scenario():
            frontend = QueryFrontend()
            frontend.register_application(_fast_app())
            server = create_server(query=frontend)
            async with server:
                status, headers, body = await _http_request(
                    server.port,
                    "POST",
                    "/api/v1/fast/predict",
                    body={"input": [3.0]},
                    headers={"X-Clipper-Trace-Id": "forced-trace-1"},
                )
                assert status == 200
                assert headers.get("x-clipper-trace-id") == "forced-trace-1"
                await asyncio.sleep(0.1)

                status, _, tree = await _http_request(
                    server.port, "GET", "/api/v1/trace/forced-trace-1"
                )
                assert status == 200
                assert tree["sampled"] is True
                names = _span_names(tree["root"], set())
                # Sampled traces carry the engine- and edge-side stage spans.
                assert "frontend.validate" in names
                assert "selection.select" in names
                assert "cache.lookup" in names
                assert "model.wait" in names

                # An untraced query leaves no response header behind.
                status, headers, _ = await _http_request(
                    server.port,
                    "POST",
                    "/api/v1/fast/predict",
                    body={"input": [3.0]},
                )
                assert status == 200
                assert "x-clipper-trace-id" not in headers

        run_async(scenario())

    def test_unknown_trace_id_is_404(self):
        async def scenario():
            frontend = QueryFrontend()
            frontend.register_application(_fast_app())
            server = create_server(query=frontend)
            async with server:
                status, _, body = await _http_request(
                    server.port, "GET", "/api/v1/trace/no-such-trace"
                )
                assert status == 404
                assert body["error"]["code"] == "route_not_found"

        run_async(scenario())

    def test_in_process_tail_capture_without_http(self):
        """The engine alone tail-captures an SLO miss (no REST edge needed)."""

        async def scenario():
            clipper = _slow_app()
            await clipper.start()
            try:
                prediction = await clipper.predict(
                    Query(app_name="slow", input=[9.0])
                )
                assert prediction.default_used
                assert prediction.trace_id is not None
                record = clipper.tracer.registry.get(prediction.trace_id)
                assert record is not None
                assert record.flags & TRACE_SLO_MISS
            finally:
                await clipper.stop()

        run_async(scenario())


class _FailsFirstBatch(NoOpContainer):
    """Answers 1, except for the first batch it is handed, which raises."""

    def __init__(self) -> None:
        super().__init__(output=1)
        self.failed = False

    def predict_batch(self, inputs):
        if not self.failed:
            self.failed = True
            raise RuntimeError("first batch fails")
        return super().predict_batch(inputs)


class TestLazyTailCapture:
    """An unsampled miss builds a trace only when it turns out interesting."""

    def test_a_retried_miss_commits_with_the_retry_and_its_batch_spans(self):
        async def scenario():
            clipper = Clipper(ClipperConfig(
                app_name="retry", latency_slo_ms=500.0, selection_policy="single",
                ))
            clipper.deploy_model(ModelDeployment(
                name="m", container_factory=_FailsFirstBatch, max_batch_retries=1,
            ))
            await clipper.start()
            try:
                retried = await clipper.predict(Query(app_name="retry", input=[1.0]))
                assert retried.output == 1 and retried.trace_id is not None
                boring = await clipper.predict(Query(app_name="retry", input=[2.0]))
                assert boring.output == 1 and boring.trace_id is None
                assert len(clipper.tracer.registry.recent()) == 1
                tree = clipper.tracer.registry.trace(retried.trace_id)
                assert tree["flags"] == ["retried"] and tree["sampled"] is False
                assert {
                    "batch.retry", "queue.wait", "batch.assemble", "rpc.send", "rpc.wait",
                    "container.eval", "rpc.recv", "model.wait",
                } <= _span_names(tree["root"], set())
            finally:
                await clipper.stop()

        run_async(scenario())

    def test_nothing_is_captured_with_tracing_off(self):
        async def scenario():
            clipper = Clipper(ClipperConfig(
                app_name="off", latency_slo_ms=40.0, selection_policy="single",
                default_output=-1,
                tracing=False,
            ))
            clipper.deploy_model(ModelDeployment(
                name="sleepy", container_factory=lambda: SimulatedLatencyContainer(
                    base_latency_ms=150.0, default_output=1),
            ))
            await clipper.start()
            try:
                prediction = await clipper.predict(Query(app_name="off", input=[9.0]))
                assert prediction.default_used and prediction.trace_id is None
                assert clipper.tracer.registry.recent() == []
            finally:
                await clipper.stop()

        run_async(scenario())
