"""Tests for the TF-Serving-like baseline and the non-adaptive selection baselines."""

import asyncio
import threading

import numpy as np
import pytest

from helpers import run_async, wait_until
from paperkit.ab_testing import ABTestingSelection
from paperkit.serving import TFServingLikeServer
from repro.containers.base import ModelContainer
from repro.containers.noop import NoOpContainer
from repro.core.exceptions import ClipperError


class TestTFServingLikeServer:
    def test_serves_predictions(self):
        async def scenario():
            server = TFServingLikeServer(NoOpContainer(output=3), batch_size=4)
            await server.start()
            results = await asyncio.gather(*[server.predict(np.zeros(2)) for _ in range(10)])
            await server.stop()
            assert results == [3] * 10

        run_async(scenario())

    def test_batches_are_bounded_by_static_size(self):
        async def scenario():
            server = TFServingLikeServer(NoOpContainer(), batch_size=4, batch_timeout_ms=20.0)
            await server.start()
            await asyncio.gather(*[server.predict(np.zeros(1)) for _ in range(32)])
            await server.stop()
            assert max(server.batch_sizes) <= 4
            assert sum(server.batch_sizes) == 32

        run_async(scenario())

    def test_timeout_dispatches_partial_batches(self):
        async def scenario():
            server = TFServingLikeServer(NoOpContainer(), batch_size=1024, batch_timeout_ms=5.0)
            await server.start()
            result = await asyncio.wait_for(server.predict(np.zeros(1)), timeout=2.0)
            await server.stop()
            assert result == 0

        run_async(scenario())

    def test_predict_before_start_raises(self):
        async def scenario():
            server = TFServingLikeServer(NoOpContainer())
            with pytest.raises(ClipperError):
                await server.predict(np.zeros(1))

        run_async(scenario())

    def test_container_failure_propagates_but_server_survives(self):
        class Flaky(ModelContainer):
            def __init__(self):
                self.calls = 0

            def predict_batch(self, inputs):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("first batch fails")
                return [1] * len(inputs)

        async def scenario():
            server = TFServingLikeServer(Flaky(), batch_size=2, batch_timeout_ms=1.0)
            await server.start()
            with pytest.raises(RuntimeError):
                await server.predict(np.zeros(1))
            assert await server.predict(np.zeros(1)) == 1
            await server.stop()

        run_async(scenario())

    def test_stop_answers_every_queued_query(self):
        """A query queued behind the batch in flight when ``stop()`` runs is
        answered, not left waiting: the queue closes and the loop drains it."""
        entered, gate = threading.Event(), threading.Event()

        class Gated(ModelContainer):
            def predict_batch(self, inputs):
                entered.set()
                gate.wait(5.0)
                return list(inputs)

        async def scenario():
            server = TFServingLikeServer(Gated(), batch_size=1, batch_timeout_ms=0.0)
            await server.start()
            first = asyncio.ensure_future(server.predict(1))
            assert await wait_until(entered.is_set)
            queued = [asyncio.ensure_future(server.predict(x)) for x in (2, 3)]
            await asyncio.sleep(0)
            stopping = asyncio.ensure_future(server.stop())
            await asyncio.sleep(0.01)
            gate.set()
            try:
                answers = await asyncio.wait_for(asyncio.gather(first, *queued), timeout=2.0)
            finally:
                gate.set()
            await asyncio.wait_for(stopping, timeout=2.0)
            assert answers == [1, 2, 3]
            with pytest.raises(ClipperError):
                await server.predict(4)

        run_async(scenario())

    def test_validation(self):
        with pytest.raises(ValueError):
            TFServingLikeServer(NoOpContainer(), batch_size=0)
        with pytest.raises(ValueError):
            TFServingLikeServer(NoOpContainer(), batch_timeout_ms=-1)


class TestABTestingSelection:
    def test_explores_until_minimum_samples_then_commits(self):
        ab = ABTestingSelection(["a", "b"], min_samples_per_arm=20, random_state=0)
        rng = np.random.default_rng(0)
        while not ab.experiment_complete:
            arm = ab.select()
            loss = 0.1 if arm == "b" else 0.6
            ab.observe(arm, loss if rng.random() < 0.9 else 1 - loss)
        assert ab.current_choice() == "b"

    def test_no_adaptation_after_commit(self):
        ab = ABTestingSelection(["a", "b"], min_samples_per_arm=5, random_state=0)
        for arm, loss in [("a", 0.0), ("b", 1.0)] * 5:
            ab.observe(arm, loss)
        assert ab.current_choice() == "a"
        for _ in range(50):
            ab.observe("a", 1.0)  # "a" degrades, but the test is over
        assert ab.current_choice() == "a"

    def test_mean_losses_reporting(self):
        ab = ABTestingSelection(["a", "b"], min_samples_per_arm=100, random_state=0)
        ab.observe("a", 1.0)
        ab.observe("a", 0.0)
        losses = ab.mean_losses()
        assert losses["a"] == pytest.approx(0.5)
        assert np.isnan(losses["b"])

    def test_unknown_arm_raises(self):
        ab = ABTestingSelection(["a"], min_samples_per_arm=1)
        with pytest.raises(ValueError):
            ab.observe("z", 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ABTestingSelection([])
        with pytest.raises(ValueError):
            ABTestingSelection(["a"], min_samples_per_arm=0)
