"""Regression tests for the serving hot path.

Pin down the perf-critical invariants of the predict/feedback path:

* the query input is hashed **exactly once** per ``predict()``/``feedback()``
  regardless of ensemble width or cache hit/miss,
* values stored through the by-hash cache API are found by the plain
  ``fetch`` API (same key construction),
* straggler late completions populate the cache under the same key the
  next query will look up,
* the batching queue is event-driven: consumers wake immediately on
  enqueue and on close rather than on a poll interval, and
* a fully cached ``predict`` is one synchronous pass: a bounded number of
  calls, no coroutine besides itself, one cache fetch per selected model,
  no store lock — with the behaviour around it (partial hit, miss, shed,
  sampled hit, feedback, TTL state) unchanged, and
* a missed ``predict`` pays per query only for what is decided per query: a
  bounded number of calls in two coroutines, no ticket of its own while
  nothing gates, and batch spans built once per batch.
"""

from __future__ import annotations

import asyncio
import inspect
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from helpers import run_async, wait_until

import repro.cache.prediction_cache as prediction_cache_module
import repro.core.types as types_module
import repro.overload.control as overload_module
from repro.batching.aimd import AIMDController
from repro.batching.dispatcher import ReplicaDispatcher
from repro.batching.queue import BatchingQueue, PendingQuery
from repro.containers.base import ModelContainer
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import (
    CircuitBreakerConfig,
    ClipperConfig,
    ModelDeployment,
    OverloadConfig,
)
from repro.core.deployed import ModelLayer
from repro.core.exceptions import OverloadError
from repro.core.metrics import AnsweredMetrics, MetricsRegistry
from repro.core.types import Feedback, ModelId, Query, hash_input
from repro.observability.tracing import BatchSpans, Tracer
from repro.rpc.protocol import RpcResponse
from repro.selection.single import SingleModelPolicy
from repro.state.kvstore import KeyValueStore


class SlowContainer(ModelContainer):
    """Sleeps longer than the SLO so every prediction is a straggler."""

    framework = "test"

    def __init__(self, delay_s: float = 0.08, output: int = 7) -> None:
        self.delay_s = delay_s
        self.output = output

    def predict_batch(self, inputs):
        time.sleep(self.delay_s)
        return [self.output] * len(inputs)


def make_clipper(num_models: int = 1, **config_kwargs) -> Clipper:
    defaults = dict(
        app_name="hotpath-test",
        latency_slo_ms=500.0,
        selection_policy="single" if num_models == 1 else "exp4",
    )
    defaults.update(config_kwargs)
    clipper = Clipper(ClipperConfig(**defaults))
    for i in range(num_models):
        clipper.deploy_model(
            ModelDeployment(
                name=f"m{i}",
                container_factory=lambda: NoOpContainer(output=1),
                serialize_rpc=False,
            )
        )
    return clipper


@pytest.fixture()
def hash_calls(monkeypatch):
    """Count every hash_input invocation reachable from the serving path."""
    calls = {"count": 0}
    real = types_module.hash_input

    def counting(x):
        calls["count"] += 1
        return real(x)

    monkeypatch.setattr(types_module, "hash_input", counting)
    monkeypatch.setattr(prediction_cache_module, "hash_input", counting)
    return calls


class TestHashOnce:
    def test_predict_hashes_exactly_once_on_miss_and_on_hit(self, hash_calls):
        async def scenario():
            clipper = make_clipper()
            await clipper.start()
            x = np.arange(16.0)

            hash_calls["count"] = 0
            await clipper.predict(Query(app_name="hotpath-test", input=x))
            assert hash_calls["count"] == 1  # cache miss: fetch + submit + put

            hash_calls["count"] = 0
            await clipper.predict(Query(app_name="hotpath-test", input=x))
            assert hash_calls["count"] == 1  # cache hit

            await clipper.stop()

        run_async(scenario())

    def test_ensemble_predict_hashes_exactly_once(self, hash_calls):
        async def scenario():
            clipper = make_clipper(num_models=3)
            await clipper.start()
            x = np.arange(16.0)
            hash_calls["count"] = 0
            await clipper.predict(Query(app_name="hotpath-test", input=x))
            assert hash_calls["count"] == 1  # one hash for three models
            await clipper.stop()

        run_async(scenario())

    def test_feedback_hashes_exactly_once(self, hash_calls):
        async def scenario():
            clipper = make_clipper(num_models=2)
            await clipper.start()
            x = np.arange(8.0)
            hash_calls["count"] = 0
            await clipper.feedback(
                Feedback(app_name="hotpath-test", input=x, label=1)
            )
            assert hash_calls["count"] == 1
            await clipper.stop()

        run_async(scenario())

    def test_query_input_hash_is_memoised(self, hash_calls):
        x = np.arange(8.0)
        query = Query(app_name="a", input=x)
        hash_calls["count"] = 0
        first = query.input_hash()
        second = query.input_hash()
        assert first == second == hash_input(x)
        # the two input_hash() calls share one memoised computation (the
        # direct hash_input(x) above uses this module's unpatched binding)
        assert hash_calls["count"] == 1

    def test_pending_query_carries_precomputed_hash(self):
        async def scenario():
            clipper = make_clipper()
            await clipper.start()
            record = next(iter(clipper._models.values()))
            captured = []
            original_put_nowait = record.queue.put_nowait

            def capturing_put_nowait(item):
                captured.append(item)
                original_put_nowait(item)

            # The unbounded-queue fast path enqueues via put_nowait.
            record.queue.put_nowait = capturing_put_nowait
            x = np.arange(4.0)
            await clipper.predict(Query(app_name="hotpath-test", input=x))
            assert captured
            assert captured[0].input_hash == hash_input(x)
            await clipper.stop()

        run_async(scenario())


class TestByHashInterop:
    def test_prediction_stored_by_hash_is_found_by_plain_fetch(self):
        async def scenario():
            clipper = make_clipper()
            await clipper.start()
            x = np.arange(12.0)
            await clipper.predict(Query(app_name="hotpath-test", input=x))
            model_key = str(clipper.deployed_models()[0])
            # The predict path stored via put_by_hash; both lookup styles hit.
            assert clipper.cache.fetch(model_key, x) == 1
            assert clipper.cache.fetch_by_hash(model_key, hash_input(x)) == 1
            await clipper.stop()

        run_async(scenario())

    def test_straggler_late_completion_populates_cache_under_same_key(self):
        async def scenario():
            clipper = Clipper(
                ClipperConfig(
                    app_name="hotpath-test",
                    latency_slo_ms=15.0,
                    selection_policy="single",
                    default_output=-1,
                )
            )
            clipper.deploy_model(
                ModelDeployment(
                    name="slow",
                    container_factory=lambda: SlowContainer(delay_s=0.08, output=7),
                    serialize_rpc=False,
                )
            )
            await clipper.start()
            x = np.arange(6.0)
            prediction = await clipper.predict(Query(app_name="hotpath-test", input=x))
            assert prediction.default_used
            assert prediction.models_missing == ("slow:1",)

            # Let the straggler finish; its late completion must land in the
            # cache under the key a fresh query (hashing the raw input) uses.
            deadline = time.monotonic() + 2.0
            while (
                clipper.cache.fetch("slow:1", x) is None
                and time.monotonic() < deadline
            ):
                await asyncio.sleep(0.02)
            assert clipper.cache.fetch("slow:1", x) == 7
            await clipper.stop()

        run_async(scenario())


class TestEventDrivenQueue:
    def test_close_wakes_blocked_consumer_immediately(self):
        async def scenario():
            queue = BatchingQueue()
            consumer = asyncio.get_running_loop().create_task(
                queue.get_batch(max_batch_size=4)
            )
            await asyncio.sleep(0.01)  # let the consumer park
            start = time.perf_counter()
            queue.close()
            batch = await consumer
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            assert batch == []
            assert elapsed_ms < 40.0  # no 50 ms poll tick

        run_async(scenario())

    def test_put_wakes_blocked_consumer_immediately(self):
        async def scenario():
            queue = BatchingQueue()
            consumer = asyncio.get_running_loop().create_task(
                queue.get_batch(max_batch_size=4)
            )
            await asyncio.sleep(0.01)
            start = time.perf_counter()
            queue.put_nowait(
                PendingQuery(
                    input=1, future=asyncio.get_running_loop().create_future()
                )
            )
            batch = await consumer
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            assert [item.input for item in batch] == [1]
            assert elapsed_ms < 40.0

        run_async(scenario())

    def test_wake_all_returns_empty_batch_to_parked_consumer(self):
        async def scenario():
            queue = BatchingQueue()
            consumer = asyncio.get_running_loop().create_task(
                queue.get_batch(max_batch_size=4)
            )
            await asyncio.sleep(0.01)
            queue.wake_all()
            assert await consumer == []
            assert not queue.closed  # wake_all is not close

        run_async(scenario())

    def test_wake_all_interrupts_delayed_batching_wait(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            queue = BatchingQueue()
            queue.put_nowait(PendingQuery(input=0, future=loop.create_future()))
            consumer = loop.create_task(
                queue.get_batch(max_batch_size=8, batch_wait_timeout_ms=500.0)
            )
            await asyncio.sleep(0.01)  # consumer is now topping up the batch
            start = time.perf_counter()
            queue.wake_all()
            batch = await consumer
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            assert [item.input for item in batch] == [0]  # partial batch flushed
            assert elapsed_ms < 100.0  # did not ride out the 500 ms timer

        run_async(scenario())

    def test_bounded_queue_applies_backpressure(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            queue = BatchingQueue(maxsize=2)
            for i in range(2):
                await queue.put(PendingQuery(input=i, future=loop.create_future()))
            blocked = loop.create_task(
                queue.put(PendingQuery(input=2, future=loop.create_future()))
            )
            await asyncio.sleep(0.01)
            assert not blocked.done()
            batch = await queue.get_batch(max_batch_size=2)
            assert len(batch) == 2
            await blocked  # space freed -> the parked put completes
            assert queue.qsize() == 1

        run_async(scenario())


class CountingLock:
    """Stands in for a ``threading.Lock`` and counts its acquisitions."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self.inner.__enter__()

    def __exit__(self, *exc_info):
        return self.inner.__exit__(*exc_info)


class CallProfile:
    """``sys.setprofile`` hook: every Python and C call made while it is set.

    Methods of ``_thread.lock`` are left out of the total — how many events a
    ``with lock:`` raises differs between interpreter versions — and the
    locks that matter are counted by :class:`CountingLock` instead.
    """

    def __init__(self) -> None:
        self.total = 0
        self.python = Counter()
        self.coroutines = set()
        self.packages = set()  # top-level package of every function called

    def __call__(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            self.total += 1
            self.python[code.co_name] += 1
            self.packages.add(frame.f_globals.get("__name__", "").partition(".")[0])
            if code.co_flags & inspect.CO_COROUTINE:
                self.coroutines.add(code)
        elif event == "c_call" and arg is not sys.setprofile:
            owner = getattr(arg, "__self__", None)
            if type(owner).__name__ != "lock":
                self.total += 1
                module = getattr(arg, "__module__", None) or type(owner).__module__
                self.packages.add(module.partition(".")[0])


def step_profiled(coroutine):
    """Drive ``coroutine`` one step under a :class:`CallProfile`.

    Returns ``(profile, result)``; fails when the coroutine suspends, i.e.
    when the work was not one synchronous pass.
    """
    profile = CallProfile()
    sys.setprofile(profile)
    try:
        coroutine.send(None)
    except StopIteration as done:
        return profile, done.value
    finally:
        sys.setprofile(None)
    coroutine.close()
    pytest.fail("the coroutine suspended: not a single synchronous pass")


class TestCachedPassBudget:
    """One fully cached ``predict``, call by call.

    The budgets are what this code makes (Python 3.11, lock methods left
    out); beside each is what the parent of the change that introduced them
    made, measured the same way.
    """

    @pytest.mark.parametrize(
        "num_models, budget",
        [
            (1, 34),  # parent: 47
            (4, 49),  # parent: 86, about 45 of them inside Exp4Policy.combine
        ],
    )
    def test_cached_predict_is_one_bounded_synchronous_pass(self, num_models, budget):
        async def scenario():
            clipper = make_clipper(num_models=num_models)
            await clipper.start()
            store_lock = clipper.state_store._lock = CountingLock(clipper.state_store._lock)
            x = np.arange(784.0)
            await clipper.predict(Query(app_name="hotpath-test", input=x))  # fills the cache
            await clipper.predict(Query(app_name="hotpath-test", input=x))
            store_lock.acquired = 0

            query = Query(app_name="hotpath-test", input=x)
            profile, prediction = step_profiled(clipper.predict(query))

            assert prediction.from_cache and prediction.output == 1
            assert len(prediction.models_used) == num_models
            assert profile.coroutines == {Clipper.predict.__code__}
            assert profile.python["fetch_by_hash"] == num_models
            assert profile.python["input_hash"] == 1
            assert profile.python["hash_input"] == 1
            assert store_lock.acquired == 0
            assert profile.total <= budget
            await clipper.stop()

        run_async(scenario())

    def test_cached_feedback_is_one_bounded_synchronous_pass_without_numpy(self):
        async def scenario():
            clipper = make_clipper(num_models=4)
            await clipper.start()
            x = np.arange(16.0)
            await clipper.predict(Query(app_name="hotpath-test", input=x))
            feedback = Feedback(app_name="hotpath-test", input=x, label=1)
            profile, _ = step_profiled(clipper.feedback(feedback))
            assert profile.coroutines == {Clipper.feedback.__code__}
            assert profile.python["fetch_by_hash"] == 4
            assert profile.total <= 71  # parent: 130, 64 of them inside numpy (np.clip)
            # Scalar numpy math (np.clip -> fromnumeric._wrapfunc -> ...) shows
            # up as calls into the package; a bare ufunc call raises no profile
            # event, which is why CI also greps the selection path for np.exp.
            assert "numpy" not in profile.packages
            await clipper.stop()

        run_async(scenario())


async def step_missed(profile, coroutine):
    """Drive a ``predict`` that misses: profiled up to its wait for the model
    and again from the answer to its return, with the dispatcher's and the
    container's work in between left out.  Returns the prediction."""
    sys.setprofile(profile)
    try:
        waited = coroutine.send(None)
    finally:
        sys.setprofile(None)
    # Stand in for the task that would have been awaiting: wait the future
    # out here, then hand the coroutine its next step.
    waited._asyncio_future_blocking = False
    await waited
    sys.setprofile(profile)
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    finally:
        sys.setprofile(None)
    pytest.fail("the missed predict suspended a second time")


class TestMissedPassBudget:
    """One missed ``predict`` on the default configuration, call by call.

    Counted as in :class:`TestCachedPassBudget`, over the query's own two
    steps (submit, then render); the batch it rides in is per batch.
    """

    def test_missed_predict_is_two_coroutines_and_a_bounded_number_of_calls(
        self, monkeypatch
    ):
        def no_ticket(*args):
            pytest.fail("a query was given a Ticket while nothing gates")

        async def scenario():
            clipper = make_clipper()
            await clipper.start()
            x = np.arange(784.0)
            for warm in (1.0, 2.0):  # the memoised array head, the pools
                await clipper.predict(Query(app_name="hotpath-test", input=x + warm))
            # The dispatcher parked on its queue, as between batches: the
            # query's put wakes it, and the wake-up runs inside the query's
            # step although it is paid once per batch (budgeted apart below).
            queue = clipper.model_record("m0:1").queue
            assert await wait_until(lambda: bool(queue._getters))
            monkeypatch.setattr(overload_module, "Ticket", no_ticket)
            profile = CallProfile()
            query = Query(app_name="hotpath-test", input=x)
            prediction = await step_missed(profile, clipper.predict(query))

            assert prediction.output == 1 and not prediction.from_cache
            assert prediction.models_used == ("m0:1",)
            assert profile.coroutines == {
                Clipper.predict.__code__, ModelLayer.evaluate.__code__,
            }
            assert profile.python["_submit"] == profile.python["put_nowait"] == 1
            assert profile.python["register"] == 1  # the straggler deadline ...
            assert profile.python["call_at"] == 0  # ... arms no timer of its own
            assert profile.python["shadow"] == profile.python["finish"] == 1
            # One wake-up of the parked dispatcher: _wake_next, the waiter's
            # set_result and the call_soon behind it, ten calls in all.
            assert profile.python["_wake_next"] == 1
            # The query's own: 75.  Parent: 82, twelve of them a per-tick
            # timer that a query shares with the others of its millisecond.
            assert profile.total <= 75 + 10
            await clipper.stop()

        run_async(scenario())

    def test_a_breaker_or_admission_control_brings_the_real_ticket_back(self):
        for gate in (
            dict(breaker=CircuitBreakerConfig()),
            dict(overload=OverloadConfig(max_concurrency=8)),
        ):
            clipper = make_clipper(**gate)
            ticket = clipper.overload.admit("m0:1", query_id=1)
            assert isinstance(ticket, overload_module.Ticket)
            ticket.settle()
        ungated = make_clipper().overload
        assert ungated.admit("m0:1", 1) is ungated.admit("m0:1", 2)
        assert not isinstance(ungated.admit("m0:1", 3), overload_module.Ticket)

    def test_stamping_an_all_shadow_batch_builds_its_spans_once(self):
        class Replica:
            model_id, replica_id, name = ModelId("m"), 0, "m:1[0]"
            request = None

            async def predict_batch(self, inputs, trace=None, span_log=None, deadlines=None):
                Replica.request = dict(trace=trace, deadlines=deadlines)
                now = time.monotonic()
                span_log.append(("rpc.send", now, now, None))
                span_log.append(("rpc.wait", now, now, None))
                return RpcResponse(0, [1] * len(inputs), eval_start=now, eval_end=now)

        class Appends:
            """Profile hook: ``list.append``/``extend`` made while stamping."""

            count = 0

            def __call__(self, frame, event, arg):
                if (
                    event == "c_call"
                    and frame.f_code.co_name == "_record_batch_spans"
                    and getattr(arg, "__name__", "") in ("append", "extend")
                ):
                    self.count += 1

        async def scenario():
            loop = asyncio.get_running_loop()
            tracer = Tracer()
            dispatcher = ReplicaDispatcher(
                Replica(), BatchingQueue(), AIMDController(slo_ms=50.0), tracer=tracer
            )
            now = time.monotonic()
            batch = [
                PendingQuery(i, loop.create_future(), now, now + 1.0, i, None, 0,
                             tracer.shadow(now))
                for i in range(32)
            ]
            appends = Appends()
            sys.setprofile(appends)
            try:
                await dispatcher.dispatch_batch(batch)
            finally:
                sys.setprofile(None)
            assert all(item.future.result() == 1 for item in batch)
            # No shadow owns an id: none on the wire (the parent sent 32 Nones).
            assert Replica.request["trace"] == []
            assert len(Replica.request["deadlines"]) == 32
            # One shared object, five span tuples in it, one append a query
            # (the parent: five tuples and five appends a query, 160 + 160).
            shared = batch[0].trace.spans[0]
            assert isinstance(shared, BatchSpans) and len(shared.common) == 5
            assert all(item.trace.spans == [shared] for item in batch)
            assert all(item.trace.spans[0] is shared for item in batch)
            assert appends.count <= 32 + 5
            # A query that turns out interesting pays for its copy then ...
            slow = batch[0].trace
            tracer.finish(slow, slo_missed=True)
            assert [name for name, _, _, _ in slow.spans] == [
                "queue.wait", "batch.assemble", "rpc.send", "rpc.wait",
                "container.eval", "rpc.recv",
            ]
            # ... and a boring one is recycled carrying nothing of it.
            boring = batch[1].trace
            assert tracer.finish(boring) is None
            assert boring.spans == [] and tracer.shadow(now) is boring
            assert boring.trace_id is None and boring.flags == 0

        run_async(scenario())


class TestAroundTheCachedPass:
    """What the probe-then-evaluate split must not change."""

    def test_full_hit_partial_hit_and_miss(self):
        async def scenario():
            clipper = make_clipper(num_models=4)
            await clipper.start()
            keys = [str(model_id) for model_id in clipper.deployed_models()]
            x = np.arange(32.0)
            digest = hash_input(x)

            # partial hit: two of the four outputs are already cached
            for key in keys[:2]:
                clipper.cache.put_by_hash(key, digest, 1)
            inserts = clipper.cache.stats.inserts
            partial = await clipper.predict(Query(app_name="hotpath-test", input=x))
            assert not partial.from_cache
            assert partial.models_used == tuple(keys) and partial.models_missing == ()
            assert partial.output == 1 and partial.confidence == 1.0
            assert clipper.cache.stats.inserts == inserts + 2  # only the two missing

            # full hit
            hits = clipper.cache.stats.hits
            full = await clipper.predict(Query(app_name="hotpath-test", input=x))
            assert full.from_cache and full.models_used == tuple(keys)
            assert full.output == 1 and full.confidence == 1.0 and not full.default_used
            assert clipper.cache.stats.hits == hits + 4

            # miss
            miss = await clipper.predict(
                Query(app_name="hotpath-test", input=np.arange(33.0))
            )
            assert not miss.from_cache and miss.models_used == tuple(keys)
            assert clipper.metrics.counter("predict.count").value == 3
            assert clipper.metrics.histogram("predict.latency_ms").count == 3
            assert clipper.metrics.meter("predict.throughput").count == 3
            await clipper.stop()

        run_async(scenario())

    def test_shed_query_is_refused_while_a_cached_one_still_answers(self):
        async def scenario():
            clipper = make_clipper(
                overload=OverloadConfig(rate_limit_qps=0.001, burst=1, shed_policy="reject")
            )
            await clipper.start()
            x = np.arange(8.0)
            await clipper.predict(Query(app_name="hotpath-test", input=x))  # the one token
            with pytest.raises(OverloadError):
                await clipper.predict(Query(app_name="hotpath-test", input=np.arange(9.0)))
            # The cached input never reaches the admission gate.
            cached = await clipper.predict(Query(app_name="hotpath-test", input=x))
            assert cached.from_cache and cached.output == 1
            assert clipper.metrics.counter("predict.count").value == 2
            await clipper.stop()

        run_async(scenario())

    def test_sampled_full_hit_still_records_its_lookup_span(self):
        async def scenario():
            clipper = make_clipper(num_models=2)
            await clipper.start()
            x = np.arange(8.0)
            await clipper.predict(Query(app_name="hotpath-test", input=x))
            prediction = await clipper.predict(
                Query(app_name="hotpath-test", input=x, trace_id="forced-1")
            )
            assert prediction.from_cache and prediction.trace_id == "forced-1"
            record = clipper.tracer.registry.get("forced-1")
            spans = [name for name, _, _, _ in record.spans]
            assert spans == ["selection.select", "cache.lookup", "selection.combine"]
            # ... back to back: each stage starts where the last one ended.
            for before, after in zip(record.spans, record.spans[1:]):
                assert before[2] <= after[1]
            await clipper.stop()

        run_async(scenario())

    def test_feedback_joins_the_same_predictions_cached_or_not(self):
        async def scenario():
            clipper = make_clipper(num_models=2)
            await clipper.start()
            keys = [str(model_id) for model_id in clipper.deployed_models()]
            joined = []
            manager = clipper.selection_manager
            observe = manager.observe

            def spy(x, label, predictions, context=None):
                joined.append(dict(predictions))
                return observe(x, label, predictions, context=context)

            manager.observe = spy
            cached, uncached = np.arange(8.0), np.arange(9.0)
            await clipper.predict(Query(app_name="hotpath-test", input=cached))
            await clipper.feedback(Feedback(app_name="hotpath-test", input=cached, label=1))
            await clipper.feedback(Feedback(app_name="hotpath-test", input=uncached, label=1))
            assert joined == [{key: 1 for key in keys}] * 2
            # The uncached feedback evaluated the models and filled the cache.
            for key in keys:
                assert clipper.cache.fetch(key, uncached) == 1
            assert clipper.metrics.counter("feedback.count").value == 2
            await clipper.stop()

        run_async(scenario())

    def test_latency_includes_combine(self):
        class SlowCombine(SingleModelPolicy):
            def combine(self, state, x, predictions):
                time.sleep(0.005)
                return super().combine(state, x, predictions)

        async def scenario():
            clipper = make_clipper()
            await clipper.start()
            clipper.selection_manager.policy = SlowCombine()
            x = np.arange(8.0)
            await clipper.predict(Query(app_name="hotpath-test", input=x))
            prediction = await clipper.predict(Query(app_name="hotpath-test", input=x))
            assert prediction.from_cache
            assert prediction.latency_ms >= 5.0
            assert min(clipper.metrics.histogram("predict.latency_ms").values()) >= 5.0
            await clipper.stop()

        run_async(scenario())


class TestStoreReadPath:
    """``KeyValueStore.get`` is one dict read: it never takes the lock."""

    def test_present_and_absent_keys_are_read_without_the_lock(self):
        store = KeyValueStore()
        store._lock = CountingLock(store._lock)
        store.put("ns", "k", {"v": 1})
        store._lock.acquired = 0
        assert store.get("ns", "k") == {"v": 1}
        assert store.get("ns", "absent", "fallback") == "fallback"
        assert store._lock.acquired == 0


class TestSharedStateUnderThreads:
    """The two places the cached pass shares state with executor threads."""

    WORKERS = 8  # more than the cores of any CI runner's 2-4
    SECONDS = 0.3

    def run_workers(self, work):
        stop = time.monotonic() + self.SECONDS
        done = [0] * self.WORKERS

        def worker(slot):
            while time.monotonic() < stop:
                work()
                done[slot] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(slot,)) for slot in range(self.WORKERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        return sum(done)

    def test_record_loses_no_update_and_shares_its_lock_with_the_three(self):
        registry = MetricsRegistry()
        answered = AnsweredMetrics(registry, "predict")
        assert answered.latency is registry.histogram("predict.latency_ms")
        assert answered.latency._lock is answered.throughput._lock is answered.count._lock
        recorded = self.run_workers(lambda: answered.record(1.0))
        assert recorded > 0
        assert answered.count.value == answered.throughput.count == recorded
        assert answered.latency.count == recorded

    def test_lock_free_get_never_misses_a_key_being_rewritten(self):
        store = KeyValueStore()
        store.put("ns", "k", 0)
        missing = object()
        seen_missing = []

        def work():
            store.put("ns", "k", 1)
            if store.get("ns", "k", missing) is missing:
                seen_missing.append(True)

        assert self.run_workers(work) > 0
        assert not seen_missing
