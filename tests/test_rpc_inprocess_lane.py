"""The in-process lane: a batch is a call into the container's server.

``ContainerReplica(transport="inprocess")`` hands each message to the same
per-message handler the socket lanes' serving loop runs, through
:class:`repro.rpc.client.DirectRpcClient`.  What it must keep from the
emulated socket it replaced:

* the container gets a private copy, and its answers come back as plain
  values — with ``serialize_messages`` False (a copy equal to the codec's
  round trip) as with True (the round trip itself);
* one batch at a time per replica, in dispatch order, even after a caller's
  RPC timeout abandoned its batch;
* an entry whose deadline passed while its batch waited its turn is skipped;
* a heartbeat waits behind the batch being evaluated, so a wedged container
  probes False;
* a value the codec refuses is refused with ``SerializationError``, and the
  lane keeps serving;
* stopping the replica leaves no task behind (CI runs this file under
  ``python -X dev -W error::ResourceWarning``).
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from helpers import run_async, wait_until
from repro.containers.base import ModelContainer
from repro.containers.replica import ContainerReplica
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.exceptions import RpcError, SerializationError
from repro.core.types import ModelId, Query
from repro.rpc.client import DirectRpcClient

SETTINGS = pytest.mark.parametrize(
    "serialize", [False, True], ids=["wire_copy", "codec_round_trip"]
)


class Scribbler(ModelContainer):
    """Tries to write into every input; records whether numpy let it."""

    def __init__(self) -> None:
        self.refused = []

    def predict_batch(self, inputs):
        for x in inputs:
            try:
                x[0] = 99.0
                self.refused.append(False)
            except ValueError:
                self.refused.append(True)
        return [0] * len(inputs)


class OneBuffer(ModelContainer):
    """Answers every batch out of one output array it reuses."""

    def __init__(self) -> None:
        self.buffer = np.zeros(2)

    def predict_batch(self, inputs):
        self.buffer[:] = float(inputs[0][0])
        return [self.buffer] * len(inputs)


class Gated(ModelContainer):
    """Blocks each batch on ``gate``; records each batch's first input and
    the most batches it ever saw at once."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.seen = []
        self.busy = 0
        self.most_busy = 0
        self._lock = threading.Lock()

    def predict_batch(self, inputs):
        with self._lock:
            self.busy += 1
            self.most_busy = max(self.most_busy, self.busy)
        try:
            self.gate.wait(timeout=10.0)
            self.seen.append(inputs[0])
            return [1] * len(inputs)
        finally:
            with self._lock:
                self.busy -= 1


class Answers(ModelContainer):
    """Answers with whatever ``answer(inputs)`` returns."""

    def __init__(self, answer) -> None:
        self.answer = answer

    def predict_batch(self, inputs):
        return self.answer(inputs)


def replica_of(container, serialize=False) -> ContainerReplica:
    return ContainerReplica(ModelId("m"), 0, container, serialize_messages=serialize)


class TestPrivateCopies:
    @SETTINGS
    def test_a_container_writing_into_its_input_leaves_the_callers_array_alone(
        self, serialize
    ):
        async def scenario():
            container = Scribbler()
            replica = replica_of(container, serialize)
            await replica.start()
            try:
                assert isinstance(replica.client, DirectRpcClient)
                x = np.zeros(4)
                batch = [x, np.zeros(4)]
                response = await replica.predict_batch(batch)
                assert response.ok and response.outputs == [0, 0]
                assert x[0] == 0.0 and batch[1][0] == 0.0
                assert container.refused == [True, True]  # read-only, as decoded
            finally:
                await replica.stop()

        run_async(scenario())

    @SETTINGS
    def test_a_reused_output_buffer_does_not_change_a_cached_answer(self, serialize):
        async def scenario():
            clipper = Clipper(ClipperConfig(app_name="a", selection_policy="single"))
            clipper.deploy_model(
                ModelDeployment("m", OneBuffer, serialize_rpc=serialize)
            )
            await clipper.start()
            try:
                first = await clipper.predict(Query(app_name="a", input=np.full(3, 1.0)))
                await clipper.predict(Query(app_name="a", input=np.full(3, 2.0)))
                again = await clipper.predict(Query(app_name="a", input=np.full(3, 1.0)))
                assert again.from_cache
                assert first.output.tolist() == again.output.tolist() == [1.0, 1.0]
            finally:
                await clipper.stop()

        run_async(scenario())

    @SETTINGS
    def test_numpy_scalars_come_back_as_python_scalars(self, serialize):
        async def scenario():
            replica = replica_of(
                Answers(lambda xs: [np.float32(0.5), np.int64(3), (1, 2)][: len(xs)]),
                serialize,
            )
            await replica.start()
            try:
                outputs = (await replica.predict_batch([0, 1, 2])).outputs
                assert outputs == [0.5, 3, [1, 2]]
                assert [type(value) for value in outputs] == [float, int, list]
            finally:
                await replica.stop()

        run_async(scenario())


class TestOneBatchAtATime:
    def test_batches_run_one_at_a_time_in_dispatch_order(self):
        async def scenario():
            container = Gated()
            container.gate.set()
            replica = replica_of(container)
            await replica.start()
            try:
                await asyncio.gather(
                    *(replica.predict_batch([float(i)]) for i in range(6))
                )
                assert container.seen == [float(i) for i in range(6)]
                assert container.most_busy == 1
            finally:
                await replica.stop()

        run_async(scenario())

    def test_the_next_batch_waits_behind_one_its_caller_gave_up_on(self):
        async def scenario():
            container = Gated()
            replica = replica_of(container)
            await replica.start()
            try:
                replica.client._timeout_s = 0.05
                with pytest.raises(RpcError, match="timed out"):
                    await replica.predict_batch([1.0])
                replica.client._timeout_s = 5.0
                second = asyncio.ensure_future(replica.predict_batch([2.0]))
                await asyncio.sleep(0.1)
                assert container.busy == 1 and container.seen == []
                container.gate.set()
                assert (await second).outputs == [1]
                assert container.seen == [1.0, 2.0] and container.most_busy == 1
            finally:
                container.gate.set()
                await replica.stop()

        run_async(scenario())

    def test_an_entry_that_expired_while_its_batch_waited_is_skipped(self):
        async def scenario():
            container = Gated()
            replica = replica_of(container)
            await replica.start()
            try:
                first = asyncio.ensure_future(replica.predict_batch([1.0]))
                await wait_until(lambda: container.busy == 1)
                now = time.monotonic()
                second = asyncio.ensure_future(
                    replica.predict_batch([2.0, 3.0], deadlines=[now + 0.05, 0.0])
                )
                await asyncio.sleep(0.15)
                container.gate.set()
                await first
                response = await second
                assert response.skipped == (0,) and response.outputs == [1]
                assert container.seen == [1.0, 3.0]
            finally:
                container.gate.set()
                await replica.stop()

        run_async(scenario())

    def test_a_heartbeat_waits_behind_the_batch_so_a_wedged_container_probes_false(self):
        async def scenario():
            container = Gated()
            replica = replica_of(container)
            await replica.start()
            try:
                batch = asyncio.ensure_future(replica.predict_batch([1.0]))
                await wait_until(lambda: container.busy == 1)
                assert await replica.check_health(timeout_s=0.1) is False
                container.gate.set()
                assert (await batch).outputs == [1]
                assert await replica.check_health(timeout_s=1.0) is True
            finally:
                container.gate.set()
                await replica.stop()

        run_async(scenario())


class TestRefusals:
    @SETTINGS
    def test_an_input_the_codec_refuses_is_refused_and_the_lane_goes_on(self, serialize):
        async def scenario():
            replica = replica_of(Answers(lambda xs: [0] * len(xs)), serialize)
            await replica.start()
            try:
                with pytest.raises(SerializationError):
                    await replica.predict_batch([object()])
                assert (await replica.predict_batch([1.0])).outputs == [0]
            finally:
                await replica.stop()

        run_async(scenario())

    @SETTINGS
    def test_an_output_the_codec_refuses_is_refused_and_the_lane_goes_on(self, serialize):
        async def scenario():
            replica = replica_of(
                Answers(lambda xs: [object() if x < 0 else x for x in xs]), serialize
            )
            await replica.start()
            try:
                with pytest.raises(SerializationError):
                    await replica.predict_batch([-1.0])
                assert (await replica.predict_batch([1.0])).outputs == [1.0]
                assert await replica.check_health(timeout_s=1.0) is True
            finally:
                await replica.stop()

        run_async(scenario())


class TestStop:
    def test_stopping_mid_batch_fails_the_caller_and_leaves_no_task(self):
        async def scenario():
            container = Gated()
            replica = replica_of(container)
            await replica.start()
            batch = asyncio.ensure_future(replica.predict_batch([1.0]))
            await wait_until(lambda: container.busy == 1)
            await replica.stop()
            with pytest.raises(RpcError):
                await batch
            assert asyncio.all_tasks() == {asyncio.current_task()}
            with pytest.raises(RpcError):
                await replica.client.predict("m", [1.0])
            container.gate.set()

        run_async(scenario())
