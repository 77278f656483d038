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
  nothing gates, and batch spans built once per batch, and
* a batch's round trip over the tcp lane to a container measured cheaper
  than the executor hop creates no task and no executor future, and
* a repeated frame (a REST predict response, an RPC request or response) decodes
  through its learned layout: no generic ``_decode``, a fixed few calls, and
* a cached predict over a keep-alive connection is answered inside the
  ``data_received`` call that completes it — no task, no future — and a
  repeated head's request line and codec pair are interpreted once.
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
from repro.api.handlers import prediction_payload
from repro.api.http import MAX_BODY_BYTES, HttpApiServer, create_server
from repro.api.routes import ApiResponse, RouteTable
from repro.api.schema import ApplicationSchema, json_safe
from repro.batching.controllers import AIMDController
from repro.batching.dispatcher import ReplicaDispatcher
from repro.batching.queue import BatchingQueue, PendingQuery
from repro.cache.prediction_cache import PredictionCache
from repro.client.client import encode_binary_input, encode_input
from repro.containers.base import ModelContainer
from repro.containers.noop import NoOpContainer
from repro.containers.replica import ContainerReplica
from repro.core import clock
from repro.core.clipper import Clipper
from repro.core.config import (
    BatchingConfig,
    CircuitBreakerConfig,
    ClipperConfig,
    ModelDeployment,
    OverloadConfig,
)
from repro.core.deployed import ModelLayer
from repro.core.exceptions import OverloadError
from repro.core.frontend import QueryFrontend
from repro.core.metrics import AnsweredMetrics, MetricsRegistry
from repro.core.types import Feedback, ModelId, Prediction, Query, hash_input
from repro.observability.tracing import BatchSpans, TraceContext, Tracer
from repro.rpc import jsonwire, serialization
from repro.rpc.http11 import Http1Connection
from repro.rpc.protocol import RpcResponse, predict_reply, predict_request
from repro.rpc.serialization import deserialize, serialize
from repro.rpc.server import INLINE_STREAK
from repro.selection.single import SingleModelPolicy
from repro.state.kvstore import KeyValueStore


class SlowContainer(ModelContainer):
    """Sleeps longer than the SLO so every prediction is a straggler."""

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
            predictions, _ = clipper.cache.fetch_by_hash([model_key], hash_input(x))
            assert predictions[model_key] == 1
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
                    input=1, future=asyncio.get_running_loop().create_future(),
                    enqueue_time=clock.now(),
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
            queue.put_nowait(PendingQuery(0, loop.create_future(), clock.now()))
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
                await queue.put(PendingQuery(i, loop.create_future(), clock.now()))
            blocked = loop.create_task(
                queue.put(PendingQuery(2, loop.create_future(), clock.now()))
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
        self.native = Counter()  # C calls by name
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
                self.native[arg.__name__] += 1
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
            # 32 before the answered latency's lifetime bucket (one
            # bisect_left); 33 (budget 34) while the cache's probe was a
            # call of its own with a dict.get per model; 47 before that
            (1, 33),
            # 38 before the lifetime bucket; 42 (budget 43) before the flat
            # cache table; 49 while the cache was probed once per model; 86
            # before that, about 45 of them inside Exp4Policy.combine
            (4, 39),
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
            assert profile.python["fetch_by_hash"] == 1  # was one per model
            assert profile.python["_input_hash_once"] == 1
            # The second fill admitted x to the digest memo: the third read
            # is a memo hit (hash_input was 1 and one openssl_sha1 before it).
            assert profile.python["digest"] == 1 and profile.python["hash_input"] == 0
            assert profile.native["openssl_sha1"] == 0
            assert profile.native["bisect_left"] == 1  # the answered latency's bucket
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
            # The first feedback sees x again and admits it to the digest
            # memo (10 calls: digest, the residency probe, the key's build
            # and the key's own digest); the second is a memo hit.
            for budget, sha1_calls in ((69, 2), (59, 0)):
                feedback = Feedback(app_name="hotpath-test", input=x, label=1)
                profile, _ = step_profiled(clipper.feedback(feedback))
                assert profile.coroutines == {Clipper.feedback.__code__}
                assert profile.python["fetch_by_hash"] == 1  # was 4, one per model
                assert profile.native["openssl_sha1"] == sha1_calls
                # 59 for both before the memo; parent of that: 63, the
                # cache's probe a call of its own; 64 while a rate meter
                # marked each feedback beside its counter; 71 while the
                # cache was probed once per model; 130 before that, 64 of
                # them inside numpy (np.clip)
                assert profile.total <= budget
                # Scalar numpy math (np.clip -> fromnumeric._wrapfunc -> ...)
                # shows up as calls into the package; a bare ufunc call raises
                # no profile event, which is why CI also greps the selection
                # path for np.exp.  The memo's key is joined from x.data.
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

        def no_context(*args):
            pytest.fail("an unflagged miss allocated a TraceContext")

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
            monkeypatch.setattr(TraceContext, "__init__", no_context)
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
            # Tail capture looked at the answered entry and built nothing:
            # no shadow, no finish, no TraceContext (patched to fail below).
            assert profile.python["close_trace"] == 1
            assert profile.python["shadow"] == profile.python["finish"] == 0
            # One wake-up of the parked dispatcher: _wake_next, the waiter's
            # set_result and the call_soon behind it, ten calls in all.
            assert profile.python["_wake_next"] == 1
            # Nothing recurred, so the digest memo is empty: no key is built.
            assert profile.python["_tagged"] == 0
            assert profile.native["join"] == profile.native["tobytes"] == 0
            # The query's own: 61, two of them the cache's digest and its
            # residency probe's values() (59 before the digest memo), one
            # the answered latency's lifetime bucket (58 before it; 59
            # while the cache's probe was a call of its own).  75 while
            # every miss carried a shadow context and put its own output in
            # the cache; 82 before that, twelve of them a per-tick timer
            # shared within a millisecond.
            assert profile.native["bisect_left"] == 1
            assert profile.total <= 61 + 10
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

    def test_stamping_an_untraced_batch_builds_its_spans_once(self):
        class Replica:
            model_id, replica_id, name = ModelId("m"), 0, "m:1[0]"
            request = None

            async def predict_batch(self, inputs, span_log=None, deadlines=None):
                Replica.request = dict(stamp=span_log is not None, deadlines=deadlines)
                now = time.monotonic()
                span_log.append(("rpc.send", now, now, None))
                span_log.append(("rpc.wait", now, now, None))
                return RpcResponse(0, [1] * len(inputs), eval_start=now, eval_end=now)

        class Appends:
            """Profile hook: ``list.append``/``extend`` made while stamping,
            and the cache fill's calls and the calls made inside it."""

            count = 0
            fills = Counter()

            def __call__(self, frame, event, arg):
                name = frame.f_code.co_name
                if (
                    event == "c_call"
                    and name == "_record_batch_spans"
                    and getattr(arg, "__name__", "") in ("append", "extend")
                ):
                    self.count += 1
                elif event == "call" and name == "put_by_hash":
                    self.fills["put_by_hash"] += 1
                elif event in ("call", "c_call") and "put_by_hash" in (
                    name, frame.f_back and frame.f_back.f_code.co_name
                ):
                    self.fills[event] += 1

        async def scenario():
            loop = asyncio.get_running_loop()
            tracer = Tracer()
            cache = PredictionCache(capacity=64)
            dispatcher = ReplicaDispatcher(
                Replica(), BatchingQueue(), AIMDController(BatchingConfig(), slo_ms=50.0),
                tracer=tracer, cache=cache,
            )
            now = time.monotonic()
            batch = [
                PendingQuery(i, loop.create_future(), now, now + 1.0, i, f"h{i}")
                for i in range(32)
            ]
            appends = Appends()
            sys.setprofile(appends)
            try:
                await dispatcher.dispatch_batch(batch)
            finally:
                sys.setprofile(None)
            assert all(item.future.result() == 1 for item in batch)
            # Any query may turn out interesting: the batch asks for the
            # container's stamps.
            assert Replica.request["stamp"]
            assert len(Replica.request["deadlines"]) == 32
            # One shared object, five span tuples in it, and no append a
            # query: each entry holds a reference (the parent: an append a
            # query onto a shadow context each query carried).
            shared = batch[0].trace
            assert isinstance(shared, BatchSpans) and len(shared.common) == 5
            assert all(item.trace is shared for item in batch)
            assert appends.count <= 5
            # The batch filled the cache in one locked pass: one call, no
            # Python call inside it and a few C calls, none per entry (the
            # parent: a put, and an entry's __init__, per entry).
            assert appends.fills["put_by_hash"] == 1
            assert appends.fills["call"] == 0 and appends.fills["c_call"] <= 5
            assert cache.stats.inserts == 32
            assert cache.fetch_by_hash(["m:1"], "h31") == ({"m:1": 1}, [])
            # A query that turns out interesting pays for its copy then ...
            slow = tracer.shadow(now, [batch[0]])
            assert tracer.finish(slow, slo_missed=True) is not None
            assert [name for name, _, _, _ in slow.spans] == [
                "queue.wait", "batch.assemble", "rpc.send", "rpc.wait",
                "container.eval", "rpc.recv",
            ]
            # ... and a boring one never built anything.
            assert batch[1].trace is shared

        run_async(scenario())


class TestContainerRoundTripBudget:
    """One batch's round trip to a promoted container over the tcp lane."""

    def test_a_batch_of_32_is_encoded_without_a_call_per_entry(self):
        async def scenario():
            replica = ContainerReplica(
                ModelId("noop"), 0, NoOpContainer(output=1), transport="tcp"
            )
            await replica.start()
            try:
                inputs = [np.full(256, i, dtype=np.float32) for i in range(32)]
                deadline = clock.now() + 60.0
                await replica.predict_batch(inputs, deadlines=[deadline] * 32)
                profile = CallProfile()
                sys.setprofile(profile)
                try:
                    response = await replica.predict_batch(inputs, deadlines=[deadline] * 32)
                finally:
                    sys.setprofile(None)
                assert response.outputs == [1] * 32
                # Both messages, both ways: the budgets and the outputs are
                # one column each, the rows one joined payload.  Left are the
                # envelopes' own ints (type, request_id) and latency float.
                assert profile.python["_encode_int"] <= 4
                assert profile.python["_encode_float"] <= 1
                assert profile.python["_payload"] <= 1
            finally:
                await replica.stop()

        run_async(scenario())

    def test_a_promoted_no_op_batch_creates_no_task_and_no_executor_future(
        self, monkeypatch
    ):
        async def scenario():
            loop = asyncio.get_running_loop()
            replica = ContainerReplica(
                ModelId("noop"), 0, NoOpContainer(output=1), transport="tcp"
            )
            await replica.start()
            try:
                for _ in range(4 * INLINE_STREAK):  # measured cheap: promoted
                    await replica.predict_batch([np.zeros(4)])
                made = Counter()

                def counting(name, real):
                    def count(*args, **kwargs):
                        made[name] += 1
                        return real(*args, **kwargs)

                    return count

                for name in ("create_task", "run_in_executor"):
                    monkeypatch.setattr(loop, name, counting(name, getattr(loop, name)))
                response = await replica.predict_batch([np.zeros(4), np.ones(4)])
                assert response.outputs == [1, 1]
                # A receive task per frame or an executor hop would count here.
                assert made == Counter()
            finally:
                monkeypatch.undo()
                await replica.stop()

        run_async(scenario())


class TestLearnedFrameBudget:
    """A frame seen before is read and written through its layout, call by call.

    Budgets as in :class:`TestCachedPassBudget`; beside each is what the
    generic decoder or encoder makes of the same frame, measured the same way.
    """

    @pytest.mark.parametrize(
        "message, python_budget, budget",
        [
            (  # what the REST edge answers a cached predict with
                prediction_payload(Prediction(
                    query_id=7, app_name="bench", output=1, latency_ms=0.02,
                    models_used=("m:1",), from_cache=True,
                )),
                5,  # generic: 23, 22 of them _decode
                20,  # generic: 80
            ),
            (  # a container's answer to a batch of 32, its outputs one column
                predict_reply(7, [1] * 32, None, 0.01),
                4,  # generic: 14, 11 of them _decode (44 and 43 with a tag an output)
                15,  # generic: 63 (167 with a tag an output; 45 learned)
            ),
            (  # what every container reads: a batch of 32 rows with its budgets
                predict_request(
                    7,
                    [np.full(256, i, dtype=np.float32) for i in range(32)],
                    [clock.now() + 60.0] * 32,
                ),
                5,  # 6 with model_name and metadata; generic: 14, 9 of them _decode
                17,  # 20 with them; generic: 66
            ),
        ],
        ids=["predict_response", "rpc_response", "rpc_request"],
    )
    def test_a_learned_frame_skips_the_generic_decoder(
        self, monkeypatch, message, python_budget, budget
    ):
        monkeypatch.setattr(serialization, "_LAYOUTS", {})
        frame = serialize(message)
        assert same(deserialize(frame), message)  # seen
        assert same(deserialize(frame), message)  # learned
        profile = CallProfile()
        sys.setprofile(profile)
        try:
            decoded = deserialize(frame)
        finally:
            sys.setprofile(None)
        assert same(decoded, message)
        assert profile.python["_decode"] == 0
        assert sum(profile.python.values()) <= python_budget
        assert profile.total <= budget

    @pytest.mark.parametrize(
        "message, packs, python_budget, budget",
        [
            (  # what the REST edge answers a cached predict with
                prediction_payload(Prediction(
                    query_id=7, app_name="bench", output=1, latency_ms=0.02,
                    models_used=("m:1",), from_cache=True,
                )),
                1,
                3,  # generic: 16, one encoder per entry and per list item
                7,  # generic: 65
            ),
            (  # what the SDK sends for a columnar predict
                {"input": encode_binary_input(np.zeros(256, dtype=np.float32))},
                0,  # no slot: its control bytes were packed once, when learned
                3,  # generic: 6
                11,  # generic: 26
            ),
        ],
        ids=["predict_response", "sdk_request"],
    )
    def test_a_learned_frame_is_written_in_one_pack(
        self, monkeypatch, message, packs, python_budget, budget
    ):
        # The counts include the profiled lambda, as the generic ones do.
        monkeypatch.setattr(serialization, "_WRITERS", {})
        frame = serialize(message)
        assert serialize(message) == frame  # seen, then learned
        profile, segments = profiled(lambda: serialization.serialize_buffers(message))
        assert b"".join(segments) == frame
        assert profile.python["_encode_dict"] == 0
        assert profile.native["pack"] == packs
        assert sum(profile.python.values()) <= python_budget
        assert profile.total <= budget

    def test_a_frame_the_writer_cannot_learn_costs_one_lookup(self, monkeypatch):
        # A container's answer to a batch of 32: a list, its outputs' column
        # too, is not learned.
        message = predict_reply(7, [1] * 32, None, 0.01)
        monkeypatch.setattr(serialization, "_WRITERS", {})
        frame = serialize(message)
        assert serialize(message) == frame
        profile, segments = profiled(lambda: serialization.serialize_buffers(message))
        assert b"".join(segments) == frame
        assert profile.python["_unlearnable"] == 1
        # Generic: 10 and 42 (41 and 133 with a tag an output).
        assert sum(profile.python.values()) <= 11
        assert profile.total <= 43


def same(a, b) -> bool:
    """``a == b``, with ndarrays equal when their dtypes, shapes and values are."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return (
            type(b) is dict and list(a) == list(b) and all(map(same, a.values(), b.values()))
        )
    if isinstance(a, list):
        return type(b) is list and len(a) == len(b) and all(map(same, a, b))
    return a == b


def profiled(step):
    """``step()`` under a :class:`CallProfile`: ``(profile, result)``."""
    profile = CallProfile()
    sys.setprofile(profile)
    try:
        result = step()
    finally:
        sys.setprofile(None)
    return profile, result


class TestJsonVectorBudget:
    """A 784-vector across the JSON edge, call by call, without one Python
    float per entry.

    Budgets as in :class:`TestCachedPassBudget`; beside each is what the
    parent of the change that introduced them made, measured the same way.
    There the SDK's ``tolist()`` and the server's ``np.asarray`` built the
    784 floats in one C call each, so the counts hide that work: what these
    steps may not do is named instead.
    """

    @pytest.mark.parametrize(
        "backend, python_budget, budget",
        [
            ("json", 8, 15),  # parent: 7, 13 (tolist outside the writer)
            ("orjson", 6, 13),  # parent: 5, 12 (tolist, then hypot over the list)
        ],
    )
    def test_the_sdk_writes_the_array_not_its_list(
        self, backend, python_budget, budget
    ):
        if backend == "orjson":
            pytest.importorskip("orjson")
        dumps, loads = jsonwire._BACKENDS[backend]
        x = np.random.default_rng(0).standard_normal(784)
        profile, body = profiled(lambda: dumps({"input": encode_input(x)}))
        assert loads(body) == {"input": x.tolist()}
        if backend == "orjson":
            assert profile.native["tolist"] == profile.native["hypot"] == 0
        assert sum(profile.python.values()) <= python_budget
        assert profile.total <= budget

    def test_the_edge_builds_the_array_in_one_call(self):
        """The JSON decoder reads the input as its vector; validation takes it."""
        schema = ApplicationSchema("app", input_type="doubles", input_shape=(784,))
        x = np.random.default_rng(0).standard_normal(784)
        body = jsonwire.dumps({"input": x.tolist()})
        profile, validated = profiled(
            lambda: schema.validate_input(jsonwire.loads(body, "input")["input"])
        )
        assert validated.tobytes() == x.tobytes()
        assert profile.native["pack_into"] == 1 and profile.native["hypot"] == 0
        assert sum(profile.python.values()) <= 9
        # At the parent, decode_wire_input + validate_input of the decoded list
        # alone made 16 calls (the sum, then pack_into), after loads' hypot.
        assert profile.total <= {"json": 28, "orjson": 27}[jsonwire.BACKEND]

    def test_a_columnar_list_is_packed_in_one_call(self):
        """A list that is not JSON's (the columnar decoder's, or one the JSON
        decoder declined) is read by ``decode_wire_input``: the types of its
        entries are the guard against rows of arrays and numpy scalars."""
        schema = ApplicationSchema("app", input_type="doubles", input_shape=(784,))
        x = np.random.default_rng(0).standard_normal(784)
        raw = x.tolist()
        profile, validated = profiled(
            lambda: schema.validate_input(schema.decode_wire_input(raw))
        )
        assert validated.tobytes() == x.tobytes()
        assert profile.native["pack_into"] == 1
        assert sum(profile.python.values()) <= 5  # np.asarray read the list: 3
        assert profile.total <= 16  # np.asarray read the list: 6

    def test_a_predict_response_takes_the_type_dispatch(self):
        payload = prediction_payload(Prediction(
            query_id=7, app_name="bench", output=1, latency_ms=0.02,
            models_used=("m:1",), from_cache=True,
        ))
        profile, safe = profiled(lambda: json_safe(payload))
        assert safe == payload
        assert profile.native["isinstance"] == 4  # two per float; parent: 30
        assert sum(profile.python.values()) <= 16  # parent: 16
        assert profile.total <= 21  # parent: 47


class _Wire(asyncio.Transport):
    """A socket transport that keeps what the server writes to it."""

    def __init__(self) -> None:
        super().__init__()
        self.written = bytearray()
        self.closing = False

    def writelines(self, segments) -> None:
        for segment in segments:
            self.written += segment

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        self.closing = True

    def pause_reading(self) -> None:
        pass

    def resume_reading(self) -> None:
        pass


class TestInlineEdgeBudget:
    """A cached predict over a keep-alive connection, from the server's side:
    the ``data_received`` call that completes the request answers it."""

    APP = "hotpath-test"

    @staticmethod
    def request(x) -> bytes:
        body = b"".join(serialization.serialize_buffers({"input": x}))
        return (
            b"POST /api/v1/hotpath-test/predict HTTP/1.1\r\nHost: t\r\n"
            b"Accept: application/x-clipper-columnar, application/json;q=0.5\r\n"
            b"Content-Type: application/x-clipper-columnar\r\n"
            b"Content-Length: %d\r\n\r\n%b" % (len(body), body)
        )

    @staticmethod
    def exchange(monkeypatch, request: bytes, x, **config):
        """One cached predict over a keep-alive connection, under the profile:
        the profile, the response's head and body, and the tasks, futures
        and callbacks the loop was asked for.  ``x`` is in the cache, and two
        requests before it filled the memos and learned layouts."""

        async def scenario():
            loop = asyncio.get_running_loop()
            frontend = QueryFrontend()
            frontend.register_application(make_clipper(**config))
            server = create_server(query=frontend)
            await server.start()
            try:
                await frontend.predict(TestInlineEdgeBudget.APP, x)  # fills the cache
                wire = _Wire()
                conn = Http1Connection(MAX_BODY_BYTES, connected=server._on_connection)
                conn.connection_made(wire)
                for _ in range(2):
                    conn.data_received(request)
                made = Counter()

                def counting(name, real):
                    def count(*args, **kwargs):
                        made[name] += 1
                        return real(*args, **kwargs)

                    return count

                for name in ("create_task", "create_future", "call_soon"):
                    monkeypatch.setattr(loop, name, counting(name, getattr(loop, name)))
                before = len(wire.written)
                profile, _ = profiled(lambda: conn.data_received(request))
                monkeypatch.undo()
                head, _, body = bytes(wire.written[before:]).partition(b"\r\n\r\n")
                conn.connection_lost(None)
                assert not server._connections
                return profile, head, body, made
            finally:
                await server.stop()

        return run_async(scenario())

    def test_a_cached_predict_is_answered_in_the_callback_that_completes_it(
        self, monkeypatch
    ):
        x = np.arange(256, dtype=np.float32)
        profile, head, body, made = self.exchange(
            monkeypatch, self.request(x), x, input_type="floats", input_shape=(256,)
        )
        # Answered before data_received returned, without a task, a future
        # or a callback scheduled to wake one.
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert deserialize(body)["from_cache"] is True
        assert made == Counter()
        # The repeated head's request line, keep-alive and codec pair were
        # interpreted on the first request only.
        assert profile.native["split"] == profile.native["partition"] == 0
        assert profile.native["lower"] == 0
        assert profile.python["_negotiate_accept"] == profile.python["media_type"] == 0
        # Read, route, the cached predict, encode and write: 61 of them
        # Python calls.  The parent wrote no response here; a task step did,
        # after a future's wake-up.
        assert profile.total <= 112

    @pytest.mark.parametrize(
        "backend, budget",
        [
            ("json", 148),  # parent: 147 (sum and pack_into, but no route hook)
            ("orjson", 140),  # parent: 160 (hypot, then sum and pack_into)
        ],
    )
    def test_a_cached_json_predict_checks_its_vector_once(self, monkeypatch, backend, budget):
        """The edge's JSON body, 784 doubles, as ``http_json_hit`` sends it:
        the pass that packs the vector is the list's only check."""
        if backend == "orjson":
            pytest.importorskip("orjson")
        dumps, loads = jsonwire._BACKENDS[backend]
        monkeypatch.setattr(jsonwire, "dumps", dumps)
        monkeypatch.setattr(jsonwire, "loads", loads)
        x = np.random.default_rng(0).standard_normal(784)
        body = jsonwire.dumps({"input": x.tolist()})
        request = (
            b"POST /api/v1/hotpath-test/predict HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%b" % (len(body), body)
        )
        profile, head, response, made = self.exchange(
            monkeypatch, request, x, input_type="doubles", input_shape=(784,)
        )
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert jsonwire.loads(response)["from_cache"] is True
        assert made == Counter()
        # One pass packs and bounds the vector; the one sum is the response's length.
        assert profile.native["hypot"] == 0 and profile.native["sum"] == 1
        assert profile.native["pack_into"] == 1
        # Read, route, decode, the cached predict, json_safe and write.
        assert profile.total <= budget

    def test_a_repeated_head_is_interpreted_once(self, monkeypatch):
        import repro.api.http as http_module

        calls = Counter()
        for name in ("_request_line", "media_type"):
            real = getattr(http_module, name)
            monkeypatch.setattr(
                http_module, name,
                lambda *a, _real=real, _name=name: calls.update([_name]) or _real(*a),
            )
        negotiate = HttpApiServer._negotiate_accept
        monkeypatch.setattr(
            HttpApiServer, "_negotiate_accept",
            lambda self, h: calls.update(["_negotiate_accept"]) or negotiate(self, h),
        )

        async def scenario():
            table = RouteTable()

            async def echo(params, body):
                return ApiResponse(200, {"echo": body})

            table.add("POST", "/echo", "echo", echo)
            server = HttpApiServer(table)
            wire = _Wire()
            conn = Http1Connection(1024, server._on_connection)
            conn.connection_made(wire)
            for i in range(5):
                body = b'{"n": %d}' % i  # a new head each time: another length
                conn.data_received(
                    b"POST /echo HTTP/1.1\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%b" % (len(body), body)
                )
            assert wire.written.count(b"HTTP/1.1 200 OK") == 5
            assert calls == Counter(_request_line=1, media_type=1, _negotiate_accept=1)
            conn.connection_lost(None)

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
                clipper.cache.put_by_hash(key, [digest], [1])
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
            assert len(clipper.metrics.histogram("predict.latency_ms").values()) == 3
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

    def test_record_loses_no_update_and_shares_its_lock_with_the_two(self):
        registry = MetricsRegistry()
        answered = AnsweredMetrics(registry, "predict")
        assert answered.latency is registry.histogram("predict.latency_ms")
        assert answered.count is registry.counter("predict.count")
        # One count: the histogram's is the registered counter.
        assert answered.latency.counted is answered.count
        assert answered.latency._lock is answered.count._lock
        recorded = self.run_workers(lambda: answered.record(1.0))
        assert recorded > 0
        assert answered.count.value == answered.latency.count == recorded
        assert len(answered.latency.values()) == min(recorded, 16384)

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
