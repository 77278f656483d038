"""Overload control: admission, shed policies, circuit breakers, pressure
observability, and the 429 + ``Retry-After`` REST surface."""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, List, Sequence

import pytest

from helpers import run_async
from repro.api.http import create_server
from repro.client import AsyncClipperClient
from repro.client.client import RetryPolicy, ServiceOverloaded
from repro.containers.base import ModelContainer
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import (
    BatchingConfig,
    CircuitBreakerConfig,
    ClipperConfig,
    ConfigurationError,
    ModelDeployment,
    OverloadConfig,
)
from repro.core.exceptions import OverloadError
from repro.core.frontend import QueryFrontend
from repro.core.types import Query
from repro.management.frontend import ManagementFrontend
from repro.observability.prometheus import render_prometheus
from repro.batching.deadline import DEADLINE_MISS
from repro.batching.queue import PendingQuery
from repro.containers.replica import place_locally
from repro.core.deployed import ModelLayer
from repro.core.metrics import MetricsRegistry
from repro.observability.tracing import Tracer
from repro.overload import (
    UNGUARDED,
    AdmissionController,
    CircuitBreaker,
    Degraded,
    OverloadControl,
)
from repro.overload.breaker import CLOSED, HALF_OPEN, OPEN
from repro.workloads.arrivals import BurstyArrivals


class FakeClock:
    """Deterministic monotonic clock for the unit tests."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# AdmissionController units
# ---------------------------------------------------------------------------


class TestAdmissionController:
    def test_token_bucket_drains_and_refills(self):
        clock = FakeClock()
        gate = AdmissionController(
            OverloadConfig(rate_limit_qps=10.0, burst=3), clock=clock
        )
        assert [gate.try_acquire() for _ in range(4)] == [True, True, True, False]
        clock.advance(0.1)  # one token refilled at 10 qps
        assert gate.try_acquire()
        assert not gate.try_acquire()

    def test_refill_caps_at_burst_capacity(self):
        clock = FakeClock()
        gate = AdmissionController(
            OverloadConfig(rate_limit_qps=100.0, burst=2), clock=clock
        )
        clock.advance(60.0)  # an hour's worth of tokens does not accumulate
        assert gate.try_acquire()
        assert gate.try_acquire()
        assert not gate.try_acquire()

    def test_concurrency_gate_blocks_and_releases(self):
        gate = AdmissionController(OverloadConfig(max_concurrency=2))
        assert gate.try_acquire()
        assert gate.try_acquire()
        assert not gate.try_acquire()
        gate.release()
        assert gate.try_acquire()
        assert gate.inflight == 2

    def test_saturated_is_non_consuming(self):
        clock = FakeClock()
        gate = AdmissionController(
            OverloadConfig(rate_limit_qps=10.0, burst=1), clock=clock
        )
        # Peeking any number of times never takes the token.
        for _ in range(5):
            assert not gate.saturated()
        assert gate.try_acquire()
        assert gate.saturated()

    def test_saturation_gauge_tracks_the_tighter_limit(self):
        clock = FakeClock()
        gate = AdmissionController(
            OverloadConfig(rate_limit_qps=10.0, burst=10, max_concurrency=4),
            clock=clock,
        )
        assert gate.saturation() == 0.0
        gate.try_acquire()  # 1/4 concurrency, 1/10 tokens
        assert gate.saturation() == pytest.approx(0.25)
        for _ in range(3):
            gate.try_acquire()
        assert gate.saturation() == 1.0

    def test_retry_after_reflects_token_starvation(self):
        clock = FakeClock()
        gate = AdmissionController(
            OverloadConfig(rate_limit_qps=2.0, burst=1, retry_after_s=9.0),
            clock=clock,
        )
        gate.try_acquire()
        # One token at 2/s is 0.5 s away.
        assert gate.retry_after_s() == pytest.approx(0.5)

    def test_retry_after_falls_back_to_configured_hint(self):
        gate = AdmissionController(
            OverloadConfig(max_concurrency=1, retry_after_s=2.5)
        )
        gate.try_acquire()
        assert gate.retry_after_s() == 2.5

    def test_force_acquire_and_state(self):
        gate = AdmissionController(OverloadConfig(rate_limit_qps=1.0, burst=1))
        gate.try_acquire()
        gate.force_acquire()
        state = gate.state()
        assert state["admitted"] == 2
        assert state["forced"] == 1
        assert state["inflight"] == 2
        assert state["shed_policy"] == "reject"


# ---------------------------------------------------------------------------
# CircuitBreaker units
# ---------------------------------------------------------------------------


def make_breaker(clock, on_transition=None, **overrides):
    defaults = dict(
        error_rate_threshold=0.5,
        window=4,
        min_samples=2,
        consecutive_timeouts=3,
        open_duration_s=1.0,
        half_open_probes=2,
    )
    defaults.update(overrides)
    return CircuitBreaker(
        CircuitBreakerConfig(**defaults), clock=clock, on_transition=on_transition
    )


class TestCircuitBreaker:
    def test_trips_on_error_rate(self):
        clock = FakeClock()
        transitions = []
        breaker = make_breaker(clock, lambda old, new: transitions.append((old, new)))
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # 1/3 failures is under the threshold
        breaker.record_failure()
        assert breaker.state == OPEN  # 2/4 >= 0.5 with >= min_samples
        assert transitions == [(CLOSED, OPEN)]
        assert not breaker.allow()

    def test_trips_on_consecutive_timeouts_before_error_rate(self):
        clock = FakeClock()
        # A huge window keeps the error-rate trigger silent; only the
        # consecutive-timeout counter can fire.
        breaker = make_breaker(
            clock, window=1000, min_samples=1000, consecutive_timeouts=3
        )
        breaker.record_failure(timeout=True)
        breaker.record_failure(timeout=True)
        assert breaker.state == CLOSED
        breaker.record_failure(timeout=True)
        assert breaker.state == OPEN

    def test_success_resets_consecutive_timeouts(self):
        clock = FakeClock()
        breaker = make_breaker(
            clock, window=1000, min_samples=1000, consecutive_timeouts=2
        )
        breaker.record_failure(timeout=True)
        breaker.record_success()
        breaker.record_failure(timeout=True)
        assert breaker.state == CLOSED

    def test_half_open_after_cooldown_and_probe_trickle(self):
        clock = FakeClock()
        breaker = make_breaker(clock, half_open_probes=2)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock.advance(1.5)  # past open_duration_s
        assert breaker.allow()  # reserves probe slot 1
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # reserves probe slot 2
        assert not breaker.allow()  # trickle: no third concurrent probe

    def test_all_probes_succeeding_closes(self):
        clock = FakeClock()
        transitions = []
        breaker = make_breaker(
            clock, lambda old, new: transitions.append((old, new)), half_open_probes=2
        )
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow() and breaker.allow()
        breaker.record_success()
        assert breaker.state == HALF_OPEN  # one probe is not enough
        breaker.record_success()
        assert breaker.state == CLOSED
        assert transitions == [(CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED)]

    def test_failed_probe_snaps_back_open(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()  # a fresh cool-down started
        clock.advance(1.5)
        assert breaker.allow()

    def test_abandon_returns_probe_slot(self):
        clock = FakeClock()
        breaker = make_breaker(clock, half_open_probes=1)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()
        assert not breaker.allow()  # the only probe slot is taken
        breaker.abandon()
        assert breaker.allow()  # and is reusable after abandon

    def test_describe(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        breaker.record_failure()
        described = breaker.describe()
        assert described["state"] == CLOSED
        assert described["error_rate"] == 1.0
        assert described["samples"] == 1


# ---------------------------------------------------------------------------
# OverloadControl units: the whole per-query decision, without a Clipper
# ---------------------------------------------------------------------------


def make_control(default_output=None, breaker=None, **overload):
    """An overload control over a model layer of its own, wired as the engine
    wires them."""
    metrics = MetricsRegistry()
    config = ClipperConfig(
        app_name="demo",
        default_output=default_output,
        overload=OverloadConfig(**overload) if overload else None,
        breaker=breaker,
    )
    tracer = Tracer(metrics=metrics)
    control = OverloadControl(config, metrics, tracer)
    layer = ModelLayer(config, metrics, tracer, place_locally)
    control.versions = layer.versions
    return control, metrics, layer


def deploy(control, layer, name, **deployment):
    """Register and guard version ``name:1``, as ``Clipper`` does; its record."""
    record = layer.deploy(ModelDeployment(name, NoOpContainer, **deployment))
    control.guard(record)
    return record


def queued(deadline=None):
    return PendingQuery(
        input=[0.0], future=asyncio.get_event_loop().create_future(),
        deadline=deadline, query_id=99,
    )


class TestOverloadControl:
    def test_unconfigured_control_admits_everything_and_gates_nothing(self):
        control, metrics, layer = make_control()
        deploy(control, layer, "m")
        control.precheck()
        ticket = control.admit("m:1", query_id=1)
        assert ticket.allow("m:1")
        ticket.failed("m:1", timeout=True)
        ticket.settle()
        assert control.breakers == {}
        assert control.state()["admission"] is None
        assert "overload.shed" not in " ".join(metrics.snapshot().counters)

    def test_reject_policy_counts_and_carries_retry_after(self):
        control, metrics, _ = make_control(rate_limit_qps=0.001, burst=1)
        ticket = control.admit("m:1", query_id=1)
        with pytest.raises(OverloadError) as excinfo:
            control.admit("m:1", query_id=2)
        assert excinfo.value.retry_after_s > 0
        with pytest.raises(OverloadError):
            control.precheck()  # the edge refuses early under ``reject``
        assert metrics.snapshot().counters['overload.shed{policy="reject"}'] == 2
        ticket.settle()

    def test_degrade_policy_needs_a_default_output(self):
        control, metrics, _ = make_control(
            default_output=0, rate_limit_qps=0.001, burst=1, shed_policy="degrade"
        )
        control.admit("m:1", query_id=1)
        control.precheck()  # only ``reject`` refuses at the edge
        with pytest.raises(Degraded):
            control.admit("m:1", query_id=2)
        assert metrics.snapshot().counters['overload.shed{policy="degrade"}'] == 1
        no_default, _, _ = make_control(
            rate_limit_qps=0.001, burst=1, shed_policy="degrade"
        )
        no_default.admit("m:1", query_id=1)
        with pytest.raises(OverloadError):
            no_default.admit("m:1", query_id=2)

    def test_drop_oldest_evicts_the_entry_nearest_its_deadline(self):
        async def scenario():
            control, metrics, layer = make_control(
                rate_limit_qps=0.001, burst=1, shed_policy="drop-oldest"
            )
            queue = deploy(
                control, layer, "m", batching=BatchingConfig(max_queue_depth=2)
            ).queue
            first = control.admit("m:1", query_id=1)
            # Nothing queued to evict: the newcomer is refused.
            with pytest.raises(OverloadError):
                control.admit("m:1", query_id=2)
            late, soon = queued(deadline=200.0), queued(deadline=100.0)
            queue.put_nowait(late)
            queue.put_nowait(soon)
            forced = control.admit("m:1", query_id=3)
            assert soon.future.result() is DEADLINE_MISS
            assert not late.future.done() and queue.qsize() == 1
            # A full bounded queue is handled by the same policy.
            queue.put_nowait(queued())
            assert forced.make_room("m:1") is True
            assert late.future.result() is DEADLINE_MISS
            state = control.state()
            assert state["admission"]["forced"] == 1
            assert state["admission"]["inflight"] == 2
            assert state["queues"]["m:1"]["max_depth"] == 2
            counters = metrics.snapshot().counters
            assert counters['overload.shed{policy="drop-oldest"}'] == 2
            first.settle()
            forced.settle()
            forced.settle()  # idempotent
            assert control.state()["admission"]["inflight"] == 0

        run_async(scenario())

    def test_full_queue_without_drop_oldest_sheds_the_query(self):
        control, _, layer = make_control()
        deploy(control, layer, "m", batching=BatchingConfig(max_queue_depth=1))
        ticket = control.admit("m:1", query_id=1)
        with pytest.raises(OverloadError) as excinfo:
            ticket.make_room("m:1")
        assert excinfo.value.retry_after_s == 1.0

    def test_ticket_records_outcomes_and_settle_abandons_the_rest(self):
        instant_cooldown = CircuitBreakerConfig(
            error_rate_threshold=0.5, window=2, min_samples=1,
            open_duration_s=1e-9, half_open_probes=2,
        )
        control, metrics, layer = make_control(breaker=instant_cooldown)
        deploy(control, layer, "a")
        # The deployment's own config wins over the application's default.
        deploy(control, layer, "b", circuit_breaker=CircuitBreakerConfig(window=7))
        assert control.breakers["b:1"].config.window == 7
        breaker = control.breakers["a:1"]
        ticket = control.admit("a:1", query_id=1)
        assert ticket.allow("a:1")
        ticket.failed("a:1")
        assert breaker.state == OPEN
        counters = metrics.snapshot().counters
        assert counters['breaker.transitions{state="open"}'] == 1
        # The cool-down has already passed: the next two queries are half-open
        # probes and a third is fast-failed while both slots are reserved.
        first, second, third = (control.admit("a:1", query_id=i) for i in (2, 3, 4))
        assert first.allow("a:1") and second.allow("a:1")
        assert breaker.state == HALF_OPEN and breaker._probes_inflight == 2
        assert not third.allow("a:1")
        assert metrics.snapshot().counters["overload.breaker_fastfail"] == 1
        # A probe that never got an outcome is handed back at settle ...
        first.settle()
        assert breaker._probes_inflight == 1
        # ... and one that did is not handed back twice.
        second.succeeded("a:1")
        second.settle()
        assert breaker._probes_inflight == 0 and breaker.state == HALF_OPEN
        # Nothing to undo here when the version leaves: both reads walk
        # the layer's records.
        run_async(layer.retire("a:1"))
        assert "a:1" not in control.breakers
        assert "a:1" not in control.state()["queues"]

    def test_unguarded_never_sheds_and_waits_on_a_full_queue(self):
        ticket = UNGUARDED.admit("m:1", query_id=None)
        assert ticket.allow("m:1")
        ticket.succeeded("m:1")
        ticket.failed("m:1", timeout=True)
        assert ticket.make_room("m:1") is False
        ticket.settle()


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestOverloadConfigs:
    def test_shed_policy_validated(self):
        with pytest.raises(ConfigurationError):
            OverloadConfig(shed_policy="panic")

    def test_negative_limits_rejected(self):
        with pytest.raises(ConfigurationError):
            OverloadConfig(rate_limit_qps=-1.0)
        with pytest.raises(ConfigurationError):
            OverloadConfig(max_concurrency=-1)

    def test_breaker_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            CircuitBreakerConfig(error_rate_threshold=1.5)
        with pytest.raises(ConfigurationError):
            CircuitBreakerConfig(half_open_probes=0)


# ---------------------------------------------------------------------------
# End-to-end shed policies through the serving engine
# ---------------------------------------------------------------------------


class GateContainer(ModelContainer):
    """Blocks every batch on a shared event; records what it evaluated."""

    def __init__(self, gate: threading.Event) -> None:
        self.gate = gate
        self.seen: List[Any] = []

    def predict_batch(self, inputs: Sequence[Any]) -> List[Any]:
        self.gate.wait(timeout=10.0)
        self.seen.extend(inputs)
        return [1 for _ in inputs]


class FailingContainer(ModelContainer):
    """Raises on every batch, counting how many reached it."""

    def __init__(self) -> None:
        self.calls = 0

    def predict_batch(self, inputs: Sequence[Any]) -> List[Any]:
        self.calls += 1
        raise RuntimeError("model is sick")


def overloaded_clipper(shed_policy, default_output=None, burst=1, **config_kwargs):
    """One noop model behind a starved token bucket (no meaningful refill)."""
    clipper = Clipper(
        ClipperConfig(
            app_name="demo",
            selection_policy="single",
            latency_slo_ms=5000.0,
            default_output=default_output,
            overload=OverloadConfig(
                rate_limit_qps=0.001, burst=burst, shed_policy=shed_policy
            ),
            **config_kwargs,
        )
    )
    clipper.deploy_model(
        ModelDeployment(name="noop", container_factory=lambda: NoOpContainer(output=7))
    )
    return clipper


class TestShedPolicies:
    def test_reject_raises_overload_error_with_retry_hint(self):
        async def scenario():
            clipper = overloaded_clipper("reject")
            await clipper.start()
            try:
                first = await clipper.predict(Query(app_name="demo", input=[1.0]))
                assert first.output == 7
                with pytest.raises(OverloadError) as excinfo:
                    await clipper.predict(Query(app_name="demo", input=[2.0]))
                assert excinfo.value.http_status == 429
                assert excinfo.value.retry_after_s > 0
                assert excinfo.value.detail["retry_after_s"] > 0
                counters = clipper.metrics.snapshot().counters
                assert counters['overload.shed{policy="reject"}'] == 1
            finally:
                await clipper.stop()

        run_async(scenario())

    def test_cache_hits_bypass_admission_entirely(self):
        async def scenario():
            clipper = overloaded_clipper("reject")
            await clipper.start()
            try:
                await clipper.predict(Query(app_name="demo", input=[1.0]))
                # The bucket is empty, but repeats of the cached input never
                # consult the admission gate.
                for _ in range(10):
                    result = await clipper.predict(
                        Query(app_name="demo", input=[1.0])
                    )
                    assert result.from_cache
            finally:
                await clipper.stop()

        run_async(scenario())

    def test_cache_hit_makes_no_call_into_the_overload_object(self):
        class CountingStub:
            """Counts every call made into the overload layer."""

            def __init__(self, real):
                self.real, self.calls = real, []

            def __getattr__(self, name):
                self.calls.append(name)
                return getattr(self.real, name)

        async def scenario():
            clipper = Clipper(
                ClipperConfig(
                    app_name="demo",
                    selection_policy="exp4",
                    overload=OverloadConfig(max_concurrency=8),
                    breaker=CircuitBreakerConfig(),
                )
            )
            for name in ("a", "b"):
                clipper.deploy_model(
                    ModelDeployment(name=name, container_factory=NoOpContainer)
                )
            await clipper.start()
            try:
                miss = await clipper.predict(Query(app_name="demo", input=[1.0]))
                assert not miss.from_cache
                stub = clipper.overload = CountingStub(clipper.overload)
                hit = await clipper.predict(Query(app_name="demo", input=[1.0]))
                assert hit.from_cache
                assert stub.calls == []
                # The stub does see a query that leaves the cache.
                await clipper.predict(Query(app_name="demo", input=[2.0]))
                assert stub.calls == ["admit"]
            finally:
                await clipper.stop()

        run_async(scenario())

    def test_degrade_answers_with_default_output(self):
        async def scenario():
            clipper = overloaded_clipper("degrade", default_output=0)
            await clipper.start()
            try:
                first = await clipper.predict(Query(app_name="demo", input=[1.0]))
                assert not first.default_used
                shed = await clipper.predict(Query(app_name="demo", input=[2.0]))
                assert shed.default_used
                assert shed.output == 0
                assert shed.models_missing == ("noop:1",)
                counters = clipper.metrics.snapshot().counters
                assert counters['overload.shed{policy="degrade"}'] == 1
            finally:
                await clipper.stop()

        run_async(scenario())

    def test_degrade_without_default_falls_back_to_reject(self):
        async def scenario():
            clipper = overloaded_clipper("degrade")  # no default output
            await clipper.start()
            try:
                await clipper.predict(Query(app_name="demo", input=[1.0]))
                with pytest.raises(OverloadError):
                    await clipper.predict(Query(app_name="demo", input=[2.0]))
            finally:
                await clipper.stop()

        run_async(scenario())

    def test_drop_oldest_evicts_queued_query_for_the_new_one(self):
        async def scenario():
            gate = threading.Event()
            container = GateContainer(gate)
            clipper = Clipper(
                ClipperConfig(
                    app_name="demo",
                    selection_policy="single",
                    latency_slo_ms=5000.0,
                    default_output=0,
                    overload=OverloadConfig(
                        rate_limit_qps=0.001, burst=2, shed_policy="drop-oldest"
                    ),
                )
            )
            clipper.deploy_model(
                ModelDeployment(
                    name="gated",
                    container_factory=lambda: container,
                    # While q1's batch blocks in the container, q2 stays
                    # *in the queue* where drop-oldest can find it, because
                    # the dispatcher forms no batch before the replica can
                    # take it.
                )
            )
            await clipper.start()
            try:
                loop = asyncio.get_event_loop()
                # q1 is admitted and pulled into a batch that blocks on the
                # gate; q2 is admitted and waits in the queue.
                t1 = loop.create_task(
                    clipper.predict(Query(app_name="demo", input=[1.0]))
                )
                await asyncio.sleep(0.1)
                t2 = loop.create_task(
                    clipper.predict(Query(app_name="demo", input=[2.0]))
                )
                await asyncio.sleep(0.1)
                # q3 finds the bucket empty; drop-oldest evicts q2 from the
                # queue and force-admits q3 in its place.
                t3 = loop.create_task(
                    clipper.predict(Query(app_name="demo", input=[3.0]))
                )
                await asyncio.sleep(0.1)
                gate.set()
                r1, r2, r3 = await asyncio.gather(t1, t2, t3)
                assert r1.output == 1 and not r1.default_used
                assert r3.output == 1 and not r3.default_used
                # The victim renders like a straggler: default output.
                assert r2.default_used
                # q2's input never reached the container.
                assert [2.0] not in container.seen
                counters = clipper.metrics.snapshot().counters
                assert counters['overload.shed{policy="drop-oldest"}'] == 1
                assert clipper.overload.state()["admission"]["forced"] == 1
            finally:
                gate.set()
                await clipper.stop()

        run_async(scenario())


class TestCircuitBreakerEndToEnd:
    def test_breaker_trips_and_fast_fails_to_default(self):
        async def scenario():
            container = FailingContainer()
            clipper = Clipper(
                ClipperConfig(
                    app_name="demo",
                    selection_policy="single",
                    latency_slo_ms=1000.0,
                    default_output=0,
                    breaker=CircuitBreakerConfig(
                        error_rate_threshold=0.5,
                        window=4,
                        min_samples=2,
                        open_duration_s=60.0,
                    ),
                )
            )
            clipper.deploy_model(
                ModelDeployment(name="sick", container_factory=lambda: container)
            )
            await clipper.start()
            try:
                # Two failing queries accumulate the error window and trip
                # the breaker...
                for i in range(2):
                    result = await clipper.predict(
                        Query(app_name="demo", input=[float(i)])
                    )
                    assert result.default_used
                assert clipper.overload.state()["breakers"]["sick:1"]["state"] == "open"
                calls_at_trip = container.calls
                # ... after which queries fast-fail to the default without
                # ever touching the container.
                for i in range(5):
                    result = await clipper.predict(
                        Query(app_name="demo", input=[float(10 + i)])
                    )
                    assert result.default_used
                assert container.calls == calls_at_trip
                counters = clipper.metrics.snapshot().counters
                assert counters["overload.breaker_fastfail"] == 5
                assert counters['breaker.transitions{state="open"}'] == 1
            finally:
                await clipper.stop()

        run_async(scenario())

    def test_per_deployment_breaker_config_overrides_app_default(self):
        clipper = Clipper(
            ClipperConfig(
                app_name="demo",
                selection_policy="single",
                breaker=CircuitBreakerConfig(window=100),
            )
        )
        clipper.deploy_model(
            ModelDeployment(
                name="special",
                container_factory=NoOpContainer,
                circuit_breaker=CircuitBreakerConfig(window=7),
            )
        )
        clipper.deploy_model(
            ModelDeployment(name="plain", container_factory=NoOpContainer)
        )
        assert clipper.overload.breakers["special:1"].config.window == 7
        assert clipper.overload.breakers["plain:1"].config.window == 100

    def test_undeploy_drops_the_breaker(self):
        async def scenario():
            clipper = Clipper(
                ClipperConfig(
                    app_name="demo",
                    selection_policy="single",
                    breaker=CircuitBreakerConfig(),
                )
            )
            clipper.deploy_model(
                ModelDeployment(name="a", container_factory=NoOpContainer)
            )
            clipper.deploy_model(
                ModelDeployment(name="b", container_factory=NoOpContainer)
            )
            await clipper.start()
            try:
                assert set(clipper.overload.breakers) == {"a:1", "b:1"}
                await clipper.undeploy_model("b:1")
                assert set(clipper.overload.breakers) == {"a:1"}
            finally:
                await clipper.stop()

        run_async(scenario())


class FlakyContainer(ModelContainer):
    """Fails while ``failing`` is set; answers 1 otherwise."""

    def __init__(self) -> None:
        self.failing = False

    def predict_batch(self, inputs: Sequence[Any]) -> List[Any]:
        if self.failing:
            raise RuntimeError("model is sick")
        return [1 for _ in inputs]


class TestBreakerProbeSettlement:
    """A half-open probe slot reserved by ``allow()`` always comes back."""

    def make_clipper(self, flaky, gate):
        clipper = Clipper(
            ClipperConfig(
                app_name="demo",
                selection_policy="exp4",
                latency_slo_ms=5000.0,
                default_output=0,
            )
        )
        clipper.deploy_model(
            ModelDeployment(
                name="a",
                container_factory=lambda: flaky,
                circuit_breaker=CircuitBreakerConfig(
                    error_rate_threshold=0.5, window=2, min_samples=1,
                    open_duration_s=0.2, half_open_probes=1,
                ),
            )
        )
        clipper.deploy_model(
            ModelDeployment(
                name="b",
                container_factory=lambda: GateContainer(gate),
                batching=BatchingConfig(max_queue_depth=1),
            )
        )
        # Serial dispatch, whatever depth ``b`` has measured by then: one
        # batch blocks in the container, one more entry fills the queue.
        clipper.model_record("b").dispatchers[0].pipeline_window = 1
        return clipper

    async def trip(self, clipper, flaky):
        flaky.failing = True
        await clipper.predict(Query(app_name="demo", input=[0.0]))
        flaky.failing = False
        breaker = clipper.overload.breakers["a:1"]
        assert breaker.state == OPEN
        return breaker

    def test_query_shed_mid_ensemble_returns_its_probe_slot(self):
        async def scenario():
            flaky, gate = FlakyContainer(), threading.Event()
            gate.set()
            clipper = self.make_clipper(flaky, gate)
            await clipper.start()
            try:
                breaker = await self.trip(clipper, flaky)
                gate.clear()
                loop = asyncio.get_event_loop()
                # While ``a`` is open, fill ``b``: one batch blocked in the
                # container, then one entry in its depth-1 queue.
                blocked = []
                for i in (1, 2):
                    blocked.append(
                        loop.create_task(
                            clipper.predict(Query(app_name="demo", input=[float(i)]))
                        )
                    )
                    await asyncio.sleep(0.15)  # ... and ``a``'s cool-down passes
                # This query reserves ``a``'s only half-open probe slot, then
                # is shed because ``b``'s queue is full.
                with pytest.raises(OverloadError):
                    await clipper.predict(Query(app_name="demo", input=[3.0]))
                gate.set()
                await asyncio.gather(*blocked)
                assert breaker._probes_inflight == 0
                # So the model is not wedged out of service: the next query
                # probes it, succeeds, and closes the breaker.
                result = await clipper.predict(Query(app_name="demo", input=[4.0]))
                assert "a:1" in result.models_used
                assert breaker.state == CLOSED
            finally:
                gate.set()
                await clipper.stop()

        run_async(scenario())

    def test_cancelled_query_returns_its_probe_slot(self):
        async def scenario():
            flaky, gate = FlakyContainer(), threading.Event()
            gate.set()
            clipper = self.make_clipper(flaky, gate)
            await clipper.start()
            try:
                breaker = await self.trip(clipper, flaky)
                await asyncio.sleep(0.3)  # cool-down passes
                gate.clear()
                # The probe query waits on ``b`` (gated) and is cancelled there.
                task = asyncio.get_event_loop().create_task(
                    clipper.predict(Query(app_name="demo", input=[5.0]))
                )
                await asyncio.sleep(0.1)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                gate.set()
                assert breaker._probes_inflight == 0
            finally:
                gate.set()
                await clipper.stop()

        run_async(scenario())


# ---------------------------------------------------------------------------
# Pressure observability
# ---------------------------------------------------------------------------


class TestPressureObservability:
    def test_shed_counters_and_gauges_in_prometheus_exposition(self):
        async def scenario():
            clipper = overloaded_clipper("reject")
            await clipper.start()
            try:
                await clipper.predict(Query(app_name="demo", input=[1.0]))
                with pytest.raises(OverloadError):
                    await clipper.predict(Query(app_name="demo", input=[2.0]))
            finally:
                await clipper.stop()
            return render_prometheus({"demo": clipper.metrics})

        text = run_async(scenario())
        assert 'clipper_overload_shed_total{app="demo",policy="reject"} 1' in text
        assert "clipper_overload_saturation" in text
        assert 'clipper_queue_saturation{app="demo",model="noop:1"}' in text
        assert 'clipper_queue_depth{app="demo",model="noop:1"}' in text

    def test_shed_and_breaker_flip_emit_trace_events(self):
        async def scenario():
            container = FailingContainer()
            clipper = Clipper(
                ClipperConfig(
                    app_name="demo",
                    selection_policy="single",
                    default_output=0,
                    overload=OverloadConfig(
                        rate_limit_qps=0.001, burst=2, shed_policy="reject"
                    ),
                    breaker=CircuitBreakerConfig(min_samples=2, window=4),
                )
            )
            clipper.deploy_model(
                ModelDeployment(name="sick", container_factory=lambda: container)
            )
            await clipper.start()
            try:
                await clipper.predict(Query(app_name="demo", input=[1.0]))
                await clipper.predict(Query(app_name="demo", input=[2.0]))
                with pytest.raises(OverloadError):
                    await clipper.predict(Query(app_name="demo", input=[3.0]))
            finally:
                await clipper.stop()
            registry = clipper.tracer.registry
            names = []
            for summary in registry.recent(component="overload", limit=50):
                record = registry.get(summary["trace_id"])
                if record is not None:
                    names.extend(span[0] for span in record.spans)
            return names

        names = run_async(scenario())
        assert "breaker.transition" in names
        assert "overload.shed" in names

    def test_management_describe_reports_overload_state(self):
        async def scenario():
            clipper = overloaded_clipper("reject")
            admin = ManagementFrontend(monitor_health=False, manage_canaries=False)
            admin.register_application(clipper)
            await clipper.start()
            try:
                described = admin.describe("demo")
            finally:
                await clipper.stop()
            return described

        described = run_async(scenario())
        overload = described["overload"]
        assert overload["admission"]["shed_policy"] == "reject"
        assert "noop:1" in overload["queues"]
        assert overload["queues"]["noop:1"]["max_depth"] == 0
        assert overload["breakers"] == {}

    def test_overload_state_without_admission_control(self):
        clipper = Clipper(ClipperConfig(app_name="demo", selection_policy="single"))
        clipper.deploy_model(
            ModelDeployment(name="noop", container_factory=NoOpContainer)
        )
        state = clipper.overload.state()
        assert state["admission"] is None
        assert state["breakers"] == {}
        assert state["queues"]["noop:1"]["saturation"] == 0.0


# ---------------------------------------------------------------------------
# Flash crowd: graceful degradation, judged by counts
# ---------------------------------------------------------------------------


class TestFlashCrowd:
    def test_every_query_answered_none_rejected_some_shed(self):
        """Bursts at 5x the admitted rate under ``degrade``: admitted queries
        go through the model, the overflow is answered at once with the
        default output, and nothing is refused or left hanging."""
        num_queries = 600
        admitted_qps = 800.0

        async def scenario():
            clipper = Clipper(
                ClipperConfig(
                    app_name="demo",
                    selection_policy="single",
                    latency_slo_ms=5000.0,
                    default_output=0,
                    overload=OverloadConfig(
                        rate_limit_qps=admitted_qps, burst=16, shed_policy="degrade"
                    ),
                )
            )
            clipper.deploy_model(
                ModelDeployment(
                    name="noop",
                    container_factory=lambda: NoOpContainer(output=7),
                    batching=BatchingConfig(max_queue_depth=256),
                )
            )
            due = BurstyArrivals(
                burst_qps=5.0 * admitted_qps,
                idle_qps=admitted_qps / 2.0,
                random_state=6,
            ).arrival_times(num_queries)
            outcomes = {"ok": 0, "degraded": 0, "rejected": 0}
            await clipper.start()
            try:
                start = time.perf_counter()

                async def issue(i: int) -> None:
                    await asyncio.sleep(max(0.0, due[i] - (time.perf_counter() - start)))
                    try:
                        answer = await clipper.predict(
                            Query(app_name="demo", input=[float(i)])
                        )
                    except OverloadError:
                        outcomes["rejected"] += 1
                        return
                    assert answer.output == (0 if answer.default_used else 7)
                    outcomes["degraded" if answer.default_used else "ok"] += 1

                await asyncio.wait_for(
                    asyncio.gather(*(issue(i) for i in range(num_queries))), 30.0
                )
            finally:
                await clipper.stop()
            counters = clipper.metrics.snapshot().counters
            return outcomes, counters, render_prometheus({"demo": clipper.metrics})

        outcomes, counters, text = run_async(scenario())
        assert sum(outcomes.values()) == num_queries
        assert outcomes["rejected"] == 0
        assert outcomes["degraded"] >= 1
        assert outcomes["ok"] >= 1
        assert counters['overload.shed{policy="degrade"}'] == outcomes["degraded"]
        assert "clipper_overload_shed_total" in text
        assert "clipper_queue_saturation" in text


# ---------------------------------------------------------------------------
# The REST surface: 429 + Retry-After
# ---------------------------------------------------------------------------


class TestOverloadOverHttp:
    def test_shed_request_is_429_with_retry_after_header(self):
        async def scenario():
            clipper = overloaded_clipper("reject")
            frontend = QueryFrontend()
            frontend.register_application(clipper)
            server = create_server(query=frontend)
            async with server:
                no_retry = RetryPolicy(max_attempts=1)
                async with AsyncClipperClient(
                    "127.0.0.1", server.port, retry_policy=no_retry
                ) as client:
                    first = await client.predict("demo", [1.0])
                    assert first.output == 7
                    with pytest.raises(ServiceOverloaded) as excinfo:
                        await client.predict("demo", [2.0])
                    assert excinfo.value.status == 429
                    assert excinfo.value.detail["retry_after_s"] > 0

                # Raw exchange: the Retry-After header itself.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                body = b'{"input": [3.0]}'
                writer.write(
                    b"POST /api/v1/demo/predict HTTP/1.1\r\n"
                    b"Host: x\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\nConnection: close\r\n\r\n%b"
                    % (len(body), body)
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw

        raw = run_async(scenario())
        head = raw.split(b"\r\n\r\n", 1)[0].decode("latin-1")
        assert "HTTP/1.1 429 Too Many Requests" in head
        assert "Retry-After:" in head
        retry_after = next(
            line.split(":", 1)[1].strip()
            for line in head.split("\r\n")
            if line.lower().startswith("retry-after:")
        )
        assert int(retry_after) >= 1
