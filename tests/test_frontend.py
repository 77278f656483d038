"""Tests for the application-facing query frontend."""

import numpy as np
import pytest

from helpers import run_async
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.exceptions import (
    ClipperError,
    DuplicateApplicationError,
    PredictionTimeoutError,
    UnknownApplicationError,
    ValidationError,
)
from repro.core.frontend import QueryFrontend
from repro.core.types import Query


def make_app(name, output=1):
    clipper = Clipper(ClipperConfig(app_name=name, selection_policy="single"))
    clipper.deploy_model(
        ModelDeployment(name="noop", container_factory=lambda: NoOpContainer(output=output))
    )
    return clipper


class TestRegistration:
    def test_register_and_list_applications(self):
        frontend = QueryFrontend()
        frontend.register_application(make_app("vision"))
        frontend.register_application(make_app("speech"))
        assert frontend.applications() == ["speech", "vision"]

    def test_duplicate_registration_rejected(self):
        frontend = QueryFrontend()
        frontend.register_application(make_app("vision"))
        with pytest.raises(ClipperError):
            frontend.register_application(make_app("vision"))

    def test_unknown_application_rejected(self):
        async def scenario():
            frontend = QueryFrontend()
            with pytest.raises(ClipperError):
                await frontend.predict("ghost", np.zeros(1))

        run_async(scenario())


class TestRouting:
    def test_predict_routes_to_the_named_application(self):
        async def scenario():
            frontend = QueryFrontend()
            frontend.register_application(make_app("vision", output=10))
            frontend.register_application(make_app("speech", output=20))
            await frontend.start()
            vision = await frontend.predict("vision", np.zeros(1))
            speech = await frontend.predict("speech", np.zeros(1))
            await frontend.stop()
            assert vision.output == 10
            assert speech.output == 20

        run_async(scenario())

    def test_update_sends_feedback(self):
        async def scenario():
            frontend = QueryFrontend()
            clipper = make_app("vision")
            frontend.register_application(clipper)
            await frontend.start()
            x = np.ones(2)
            await frontend.predict("vision", x)
            await frontend.update("vision", x, label=1)
            await frontend.stop()
            return clipper.metrics.counter("feedback.count").value

        assert run_async(scenario()) == 1

    def test_metrics_exposed_per_application(self):
        async def scenario():
            frontend = QueryFrontend()
            frontend.register_application(make_app("vision"))
            await frontend.start()
            await frontend.predict("vision", np.zeros(1))
            await frontend.stop()
            snapshot = frontend.application("vision").metrics.snapshot()
            assert snapshot.counters["predict.count"] == 1

        run_async(scenario())

    def test_per_query_slo_override(self):
        async def scenario():
            frontend = QueryFrontend()
            frontend.register_application(make_app("vision"))
            await frontend.start()
            prediction = await frontend.predict("vision", np.zeros(1), latency_slo_ms=500.0)
            await frontend.stop()
            assert prediction.output == 1

        run_async(scenario())

    def test_a_per_query_slo_must_be_positive(self):
        async def scenario():
            frontend = QueryFrontend()
            frontend.register_application(make_app("vision"))
            await frontend.start()
            try:
                # Neither a deadline already missed nor "no SLO given".
                for slo in (-5.0, 0.0, float("nan")):
                    with pytest.raises(ValidationError, match="latency_slo_ms") as excinfo:
                        await frontend.predict("vision", np.zeros(1), latency_slo_ms=slo)
                    assert excinfo.value.http_status == 422
                # A tiny one is accepted, and missed.
                with pytest.raises(PredictionTimeoutError):
                    await frontend.predict("vision", np.zeros(1), latency_slo_ms=1e-3)
            finally:
                await frontend.stop()

        run_async(scenario())

    def test_a_direct_engine_predict_refuses_the_same_slos(self):
        """The check lives in ``Clipper.predict``, so a caller that builds
        its own ``Query`` gets the frontend's refusal, before any work."""

        async def scenario():
            clipper = make_app("vision")
            await clipper.start()
            try:
                for slo in (0.0, float("nan"), -5.0):
                    query = Query(app_name="vision", input=np.zeros(1), latency_slo_ms=slo)
                    with pytest.raises(ValidationError, match="latency_slo_ms") as excinfo:
                        await clipper.predict(query)
                    assert excinfo.value.http_status == 422
                assert clipper.cache.stats.lookups == 0
                query = Query(app_name="vision", input=np.zeros(1), latency_slo_ms=500.0)
                assert (await clipper.predict(query)).output == 1
            finally:
                await clipper.stop()

        run_async(scenario())


class TestPartialStartAndStop:
    def test_failed_start_stops_already_started_applications(self):
        async def scenario():
            frontend = QueryFrontend()
            healthy = make_app("vision")
            frontend.register_application(healthy)
            # An application with no deployed models refuses to start.
            frontend.register_application(Clipper(ClipperConfig(app_name="broken")))
            with pytest.raises(ClipperError):
                await frontend.start()
            # The application started before the failure was stopped again.
            assert healthy._started is False

        run_async(scenario())

    def test_stop_failure_does_not_strand_other_applications(self):
        async def scenario():
            frontend = QueryFrontend()
            failing = make_app("vision")
            healthy = make_app("speech")
            frontend.register_application(failing)
            frontend.register_application(healthy)
            await frontend.start()

            async def explode():
                raise RuntimeError("boom")

            failing.stop = explode
            with pytest.raises(ClipperError, match="vision"):
                await frontend.stop()
            assert healthy._started is False

        run_async(scenario())

    def test_clean_start_stop_unaffected(self):
        async def scenario():
            frontend = QueryFrontend()
            frontend.register_application(make_app("vision"))
            frontend.register_application(make_app("speech"))
            await frontend.start()
            await frontend.stop()

        run_async(scenario())


class TestLifecycleOrder:
    def test_start_and_stop_run_in_deterministic_order(self):
        async def scenario():
            order = []
            frontend = QueryFrontend()
            for name in ("zebra", "alpha", "mango"):
                clipper = make_app(name)
                original_start, original_stop = clipper.start, clipper.stop

                def record(event, inner, n=name):
                    async def wrapped():
                        order.append((event, n))
                        await inner()

                    return wrapped

                clipper.start = record("start", original_start)
                clipper.stop = record("stop", original_stop)
                frontend.register_application(clipper)
            # Name order up, its reverse down, whatever the registration order.
            await frontend.start()
            await frontend.stop()
            return order

        order = run_async(scenario())
        assert order == [
            ("start", "alpha"),
            ("start", "mango"),
            ("start", "zebra"),
            ("stop", "zebra"),
            ("stop", "mango"),
            ("stop", "alpha"),
        ]


class TestSchemaValidation:
    def make_typed_app(self):
        clipper = Clipper(
            ClipperConfig(
                app_name="typed",
                selection_policy="single",
                input_type="doubles",
                input_shape=(3,),
                # Generous SLO: these tests assert validation behaviour, and
                # the default 20 ms deadline flakes on a loaded CI machine.
                latency_slo_ms=500.0,
            )
        )
        clipper.deploy_model(
            ModelDeployment(name="noop", container_factory=NoOpContainer)
        )
        return clipper

    def test_in_process_predict_validates_against_schema(self):
        # The same 422 error path HTTP callers hit: validation lives in the
        # frontend, not in the HTTP binding.
        async def scenario():
            frontend = QueryFrontend()
            frontend.register_application(self.make_typed_app())
            await frontend.start()
            try:
                with pytest.raises(ValidationError) as excinfo:
                    await frontend.predict("typed", "not a vector")
                assert excinfo.value.http_status == 422
                with pytest.raises(ValidationError):
                    await frontend.predict("typed", np.zeros(7))
                with pytest.raises(ValidationError):
                    await frontend.update("typed", np.zeros(7), label=1)
                # Conforming input is coerced to the declared dtype.
                prediction = await frontend.predict("typed", [1, 2, 3])
                assert prediction.output == 0
            finally:
                await frontend.stop()

        run_async(scenario())

    def test_typed_registration_errors(self):
        frontend = QueryFrontend()
        frontend.register_application(make_app("vision"))
        with pytest.raises(DuplicateApplicationError):
            frontend.register_application(make_app("vision"))
        with pytest.raises(UnknownApplicationError):
            frontend.schema("ghost")
        assert frontend.schema("vision").input_type is None
