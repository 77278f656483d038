"""Late-binding dispatch: slot first, queue second, and a measured depth.

Everything here is deterministic: it runs on the virtual-time loop.  The
replica is a fake whose answers the test releases one at a time, each at the
time a serial container behind a fixed-cost RPC path would answer: a batch
sent to an idle replica takes ``overhead + eval``; one sent while its
predecessor is still there additionally waits behind it.  ``settle`` only
yields to the event loop until the dispatcher has nothing left to do.
"""

import asyncio
import functools

import pytest

from repro.batching import dispatcher as dispatcher_module
from repro.batching.controllers import FixedBatchSizeController, make_controller
from repro.batching.deadline import DEADLINE_MISS
from repro.batching.dispatcher import ReplicaDispatcher
from repro.batching.queue import BatchingQueue, PendingQuery
from repro.containers.replica import Replica
from repro.core import clock
from repro.core.config import BatchingConfig
from repro.core.exceptions import ContainerError, RpcError
from repro.core.metrics import MetricsRegistry
from repro.core.types import ModelId
from repro.rpc.protocol import RpcResponse
from simloop import run_virtual


class GatedReplica(Replica):
    """Records every batch it is sent; answers the oldest when told to."""

    def __init__(self, eval_ms=1.0, overhead_ms=0.0):
        super().__init__(ModelId("gated"), 0)
        self._started = True
        #: Evaluation time of a batch: a constant, or a function of its size.
        self.eval_ms = eval_ms
        self.overhead_ms = overhead_ms
        self.sent = []  # inputs of every batch, in the order sent
        self.pending = []  # (gate, done_at, eval_ms, batch) not yet answered
        self.max_in_flight = 0
        self.fail_next = 0  # answer this many batches with an RPC error
        self._free_at = 0.0
        self._sent_event = asyncio.Event()

    async def predict_batch(self, inputs, span_log=None, deadlines=None):
        inputs = list(inputs)
        eval_ms = self.eval_ms(len(inputs)) if callable(self.eval_ms) else self.eval_ms
        half_trip = self.overhead_ms / 2000.0
        started = max(clock.now() + half_trip, self._free_at)
        self._free_at = started + eval_ms / 1000.0
        gate = asyncio.get_running_loop().create_future()
        self.sent.append(inputs)
        self.pending.append((gate, self._free_at + half_trip, eval_ms, inputs))
        self.max_in_flight = max(self.max_in_flight, len(self.pending))
        self._sent_event.set()
        return await gate

    async def answer(self):
        """Release the oldest unanswered batch at its completion time."""
        gate, done_at, eval_ms, inputs = self.pending.pop(0)
        await asyncio.sleep(max(0.0, done_at - clock.now()))
        if self.fail_next:
            self.fail_next -= 1
            gate.set_exception(RpcError("connection lost"))
        else:
            gate.set_result(
                RpcResponse(
                    request_id=len(self.sent),
                    outputs=list(inputs),
                    container_latency_ms=eval_ms,
                )
            )

    async def next_send(self):
        """Wait (event-driven) until the dispatcher sends another batch."""
        self._sent_event.clear()
        await asyncio.wait_for(self._sent_event.wait(), timeout=5.0)


async def settle():
    """Yield until the dispatcher has run as far as it can without input."""
    for _ in range(25):
        await asyncio.sleep(0)


class Rig:
    """A started dispatcher over a gated replica."""

    def __init__(self, controller=None, eval_ms=1.0, overhead_ms=0.0, **kwargs):
        self.replica = GatedReplica(eval_ms, overhead_ms)
        self.queue = BatchingQueue()
        self.dispatcher = ReplicaDispatcher(
            self.replica,
            self.queue,
            controller or FixedBatchSizeController(BatchingConfig(initial_batch_size=4)),
            **kwargs,
        )
        self.dispatcher.start()

    def put(self, value, deadline_in_ms=None):
        item = PendingQuery(
            input=value,
            future=asyncio.get_running_loop().create_future(),
            enqueue_time=clock.now(),
            deadline=(
                None if deadline_in_ms is None
                else clock.now() + deadline_in_ms / 1000.0
            ),
        )
        self.queue.put_nowait(item)
        return item

    async def serve(self, batches, backlog=16):
        """Answer ``batches`` batches while keeping several queued behind them."""
        for _ in range(batches):
            while self.queue.qsize() < backlog:
                self.put(0)
            await settle()
            await self.replica.answer()
        await settle()

    async def close(self):
        """Answer what is in flight (a gated batch never times out) and stop."""
        while self.replica.pending:
            await self.replica.answer()
            await settle()
        await self.dispatcher.stop()

    async def open_pipeline(self):
        """Serve an RPC-bound model until the measured depth leaves 1."""
        assert self.replica.overhead_ms > self.replica.eval_ms
        for _ in range(40):
            if self.dispatcher.pipeline_depth > 1:
                return
            await self.serve(1)
        raise AssertionError("the pipeline never opened")


def scenario(test):
    """Run an ``async def`` test body on a fresh virtual-time loop."""

    @functools.wraps(test)
    def wrapper(*args, **kwargs):
        run_virtual(test(*args, **kwargs))

    return wrapper


class TestQueriesBindAtTheLastMoment:
    @scenario
    async def test_waiting_queries_stay_on_the_queue_while_the_window_is_full(self):
        rig = Rig()
        first = rig.put(1)
        await settle()
        assert rig.replica.sent == [[1]]
        waiting = [rig.put(2, deadline_in_ms=50.0), rig.put(3), rig.put(4)]
        await settle()
        # Nothing was formed into a batch behind the one in flight ...
        assert rig.replica.sent == [[1]]
        assert rig.queue.qsize() == 3
        # ... so the queue's own machinery still reaches every waiting query.
        assert rig.queue.evict_expiring() is waiting[0]
        await rig.replica.answer()
        await settle()
        assert first.future.result() == 1
        assert rig.replica.sent == [[1], [3, 4]]
        await rig.close()

    @scenario
    async def test_full_window_at_depth_2_also_leaves_the_queue_alone(self):
        rig = Rig(eval_ms=0.1, overhead_ms=1.0)
        await rig.open_pipeline()
        while rig.replica.pending:
            await rig.replica.answer()
            await settle()
        assert rig.queue.qsize() == 0
        sent = len(rig.replica.sent)
        rig.put(1)
        await settle()
        rig.put(2)
        await settle()
        assert rig.replica.sent[sent:] == [[1], [2]]  # both slots taken
        for value in (3, 4, 5):
            rig.put(value)
        await settle()
        assert rig.queue.qsize() == 3
        assert len(rig.replica.sent) == sent + 2
        await rig.replica.answer()
        await settle()
        assert rig.replica.sent[sent + 2] == [3, 4, 5]
        await rig.close()

    @scenario
    async def test_query_enqueued_while_busy_rides_in_the_very_next_batch(self):
        rig = Rig()
        rig.put("a")
        await settle()
        early = rig.put("b")
        await settle()
        late = rig.put("c")  # arrives long after b, still while a evaluates
        await settle()
        await rig.replica.answer()
        await settle()
        assert rig.replica.sent == [["a"], ["b", "c"]]
        await rig.replica.answer()
        await settle()
        assert (early.future.result(), late.future.result()) == ("b", "c")
        await rig.close()

    @scenario
    async def test_sibling_that_frees_up_first_takes_the_waiting_queries(self):
        rig = Rig()
        sibling_replica = GatedReplica()
        sibling = ReplicaDispatcher(
            sibling_replica,
            rig.queue,
            FixedBatchSizeController(BatchingConfig(initial_batch_size=4)),
        )
        sibling.start()
        rig.put(1)
        await settle()
        rig.put(2)
        await settle()
        busy, free = (
            (rig.replica, sibling_replica) if rig.replica.sent == [[1]]
            else (sibling_replica, rig.replica)
        )
        assert (busy.sent, free.sent) == ([[1]], [[2]])
        for value in (3, 4):
            rig.put(value)
        await settle()
        assert rig.queue.qsize() == 2  # both replicas busy: nobody prefetched
        await free.answer()
        await settle()
        assert free.sent == [[2], [3, 4]] and busy.sent == [[1]]
        await busy.answer()
        await free.answer()
        await settle()
        await rig.close()
        await sibling.stop()

    @scenario
    async def test_query_that_expires_in_the_queue_is_dropped_at_formation(self):
        rig = Rig(eval_ms=10.0)
        rig.put(1)
        await settle()
        doomed = rig.put(2, deadline_in_ms=5.0)
        alive = rig.put(3, deadline_in_ms=500.0)
        await settle()
        await rig.replica.answer()  # 10 ms later: 2's deadline lapsed in the queue
        await settle()
        assert rig.replica.sent == [[1], [3]]
        assert doomed.future.result() is DEADLINE_MISS
        await rig.replica.answer()
        await settle()
        assert alive.future.result() == 3
        # A batch that expired whole is never sent at all.
        rig.put(4)
        await settle()
        gone = rig.put(5, deadline_in_ms=5.0)
        await settle()
        await rig.replica.answer()
        await settle()
        assert gone.future.result() is DEADLINE_MISS
        assert rig.replica.sent == [[1], [3], [4]] and not rig.replica.pending
        await rig.close()


class TestMeasuredDepth:
    @scenario
    async def test_slow_model_is_never_pipelined(self):
        rig = Rig(eval_ms=10.0, overhead_ms=1.0)
        await rig.serve(40)
        assert rig.replica.max_in_flight == 1
        assert rig.dispatcher.pipeline_depth == 1
        assert rig.dispatcher.eval_ms == pytest.approx(10.0)
        assert rig.dispatcher.rpc_overhead_ms == pytest.approx(1.0)
        await rig.close()

    @pytest.mark.parametrize("window", [1, 2, 3])
    @scenario
    async def test_rpc_bound_model_reaches_the_cap(self, window, monkeypatch):
        monkeypatch.setattr(dispatcher_module, "PIPELINE_WINDOW", window)
        rig = Rig(eval_ms=0.1, overhead_ms=1.0)
        assert rig.dispatcher.pipeline_depth == 1  # starts serial
        await rig.serve(40)
        assert rig.dispatcher.pipeline_depth == window
        assert rig.replica.max_in_flight == window
        await rig.close()

    @scenario
    async def test_depth_between_one_and_the_cap_follows_the_ratio(self, monkeypatch):
        monkeypatch.setattr(dispatcher_module, "PIPELINE_WINDOW", 8)
        rig = Rig(eval_ms=1.0, overhead_ms=2.5)
        await rig.serve(60)
        assert rig.dispatcher.pipeline_depth == 3  # 1 + floor(2.5 / 1.0)
        assert rig.replica.max_in_flight == 3
        await rig.close()

    @scenario
    async def test_depth_falls_back_to_1_when_the_evaluation_grows(self):
        rig = Rig(eval_ms=0.1, overhead_ms=1.0)
        await rig.open_pipeline()
        rig.replica.eval_ms = 10.0
        await rig.serve(10)
        assert rig.dispatcher.pipeline_depth == 1
        while rig.replica.pending:
            await rig.replica.answer()
            await settle()
        rig.replica.max_in_flight = 0
        await rig.serve(20)
        assert rig.replica.max_in_flight == 1
        await rig.close()

    @scenario
    async def test_full_pipeline_drains_now_and_then_to_remeasure_the_overhead(self):
        """A saturated pipeline never meets an idle replica by itself."""
        rig = Rig(eval_ms=1.0, overhead_ms=20.0)
        await rig.serve(3)
        assert rig.dispatcher.pipeline_depth == 2
        # The path gets fast (say the first trips paid for a cold connection):
        # the estimate follows, and the pipeline closes again.
        rig.replica.overhead_ms = 0.2
        await rig.serve(20 * dispatcher_module._REMEASURE_EVERY)
        assert rig.dispatcher.rpc_overhead_ms == pytest.approx(0.2, abs=0.5)
        assert rig.dispatcher.pipeline_depth == 1
        await rig.close()

    @scenario
    async def test_depth_and_estimates_are_published_as_gauges(self):
        metrics = MetricsRegistry()
        rig = Rig(metrics=metrics, eval_ms=0.1, overhead_ms=1.0)
        assert metrics.snapshot().gauges["model.gated:1.pipeline_depth"] == 1
        await rig.serve(40)
        gauges = metrics.snapshot().gauges
        assert gauges["model.gated:1.pipeline_depth"] == 2
        assert gauges["model.gated:1.eval_ms"] == pytest.approx(0.1)
        assert gauges["model.gated:1.rpc_overhead_ms"] == pytest.approx(1.0)
        await rig.close()


class TestControllerSignal:
    """The batch-size controllers see a latency free of in-container queueing."""

    @staticmethod
    async def converged_size(policy, window):
        controller = make_controller(
            BatchingConfig(policy=policy, initial_batch_size=1),
            slo_ms=16.0,
        )
        # A slow RPC path in front of a model costing 0.5 ms per query: under
        # a 16 ms objective the largest batch that fits is 12, and the path
        # is slow enough that a cap of 2 really does overlap batches there.
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(dispatcher_module, "PIPELINE_WINDOW", window)
            rig = Rig(controller=controller, eval_ms=lambda size: 0.5 * size, overhead_ms=10.0)
            sizes = []
            for _ in range(400):
                await rig.serve(1, backlog=64)
                sizes.append(controller.current_batch_size())
            await rig.close()
        tail = sizes[-100:]
        return sum(tail) / len(tail), rig.replica.max_in_flight

    @pytest.mark.parametrize("policy", ["aimd", "quantile"])
    @scenario
    async def test_same_size_under_a_cap_of_2_as_under_a_cap_of_1(self, policy):
        serial, serial_depth = await self.converged_size(policy, 1)
        overlapped, overlapped_depth = await self.converged_size(policy, 2)
        assert (serial_depth, overlapped_depth) == (1, 2)
        assert serial > 8  # the controller did grow to the objective
        assert abs(serial - overlapped) <= 1.0  # one additive step


class TestEveryFutureResolvesExactlyOnce:
    @pytest.mark.parametrize("window", [1, 2])
    @scenario
    async def test_across_failure_retry_cooldown_and_stop(self, window, monkeypatch):
        monkeypatch.setattr(dispatcher_module, "PIPELINE_WINDOW", window)
        monkeypatch.setattr(dispatcher_module, "FAILURE_COOLDOWN_MS", 1.0)
        rig = Rig(eval_ms=0.1, overhead_ms=1.0, max_retries=1)
        if window > 1:
            await rig.open_pipeline()
        while rig.replica.pending:
            await rig.replica.answer()
            await settle()
        assert rig.queue.qsize() == 0

        resolutions = {}

        def tracked(value, **kwargs):
            item = rig.put(value, **kwargs)
            resolutions[value] = 0

            def count(_future, value=value):
                resolutions[value] += 1

            item.future.add_done_callback(count)
            return item

        # Fill every slot, leave two more queries waiting, then lose the
        # oldest batch: its queries go back on the queue with one retry.
        in_flight = []
        for value in range(window):
            in_flight.append(tracked(value))
            await settle()
        assert len(rig.replica.pending) == window
        waiting = [tracked("w1"), tracked("w2")]
        await settle()
        sent_before = len(rig.replica.sent)
        rig.replica.fail_next = 1
        await rig.replica.answer()
        # The loop backs off (a 1 ms timer), then sends the retried query
        # together with the waiting ones.
        await rig.replica.next_send()
        await settle()
        assert rig.dispatcher.batches_failed == 1
        assert sorted(map(str, rig.replica.sent[sent_before])) == ["0", "w1", "w2"]
        while rig.replica.pending:
            await rig.replica.answer()
            await settle()
        assert [item.future.result() for item in in_flight] == list(range(window))
        assert [item.future.result() for item in waiting] == ["w1", "w2"]

        # A query out of retries fails with the replica's error.
        spent = tracked("spent")
        spent.attempts = 1
        await settle()
        rig.replica.fail_next = 1
        await rig.replica.answer()
        await settle()
        assert isinstance(spent.future.exception(), RpcError)

        # stop() with a batch in flight: that batch still resolves, nothing
        # new is sent, and what was waiting stays queued for a sibling.  The
        # loop owes a back-off for the failure above, so the batch goes out
        # after the 1 ms timer.
        last = tracked("last")
        await rig.replica.next_send()
        await settle()
        for extra in range(window - 1):
            tracked(f"fill{extra}")
            await settle()
        assert len(rig.replica.pending) == window
        left = rig.put("left")
        await settle()
        sent_before = len(rig.replica.sent)
        stopping = asyncio.get_running_loop().create_task(rig.dispatcher.stop())
        await settle()
        while rig.replica.pending:
            assert not stopping.done()
            await rig.replica.answer()
            await settle()
        await asyncio.wait_for(stopping, timeout=5.0)
        assert last.future.result() == "last"
        assert len(rig.replica.sent) == sent_before
        assert rig.queue.qsize() == 1 and not left.future.done()
        assert set(resolutions.values()) == {1}
        assert rig.dispatcher.batches_failed == 2

    @pytest.mark.parametrize("window", [1, 2])
    @scenario
    async def test_failed_response_fails_each_query_once(self, window, monkeypatch):
        monkeypatch.setattr(dispatcher_module, "PIPELINE_WINDOW", window)
        rig = Rig()

        async def refuse(inputs, **_):
            return RpcResponse(request_id=0, outputs=[], error="boom")

        rig.replica.predict_batch = refuse
        items = [rig.put(value) for value in range(3)]
        await settle()
        assert all(isinstance(i.future.exception(), ContainerError) for i in items)
        assert rig.dispatcher.batches_failed == 1
        await rig.close()
