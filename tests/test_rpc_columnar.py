"""Tests for the columnar batch wire format, zero-copy decoding, writev-style
framing and the pipelined RPC client/dispatcher path."""

import asyncio
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from helpers import queue_pair, run_async
from repro.batching import dispatcher as dispatcher_module
from repro.batching.dispatcher import ReplicaDispatcher
from repro.batching.queue import BatchingQueue, PendingQuery
from repro.containers.base import FunctionContainer, ModelContainer
from repro.containers.replica import ContainerReplica
from repro.core import clock
from repro.core.config import BatchingConfig
from repro.core.exceptions import ContainerError, SerializationError
from repro.core.types import ModelId
from repro.batching.controllers import FixedBatchSizeController
from repro.rpc.client import RpcClient
from repro.rpc.serialization import (
    _TAG_LIST,
    _TAG_NDARRAY_BATCH,
    deserialize,
    serialize,
    serialize_buffers,
)
from repro.rpc.server import ContainerRpcServer
from repro.rpc.transport import frame_length, frame_message


class TestColumnarRoundTrip:
    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_]
    )
    @pytest.mark.parametrize("shape", [(4,), (3, 5), (2, 3, 4)])
    @pytest.mark.parametrize("count", [2, 3, 17])
    def test_dtypes_shapes_batch_sizes(self, dtype, shape, count):
        rng = np.random.default_rng(0)
        batch = [
            (rng.standard_normal(shape) * 10).astype(dtype) for _ in range(count)
        ]
        encoded = serialize(batch)
        assert encoded[0] == _TAG_NDARRAY_BATCH
        decoded = deserialize(encoded)
        assert isinstance(decoded, list) and len(decoded) == count
        for original, copy in zip(batch, decoded):
            assert copy.dtype == original.dtype
            assert copy.shape == original.shape
            np.testing.assert_array_equal(copy, original)

    def test_homogeneous_batch_is_smaller_than_tagged(self):
        batch = [np.zeros(64, dtype=np.float32) for _ in range(16)]
        columnar = serialize(batch)
        tagged = b"".join(serialize(a) for a in batch)
        # One shared header instead of 16 per-element headers.
        assert len(columnar) < len(tagged)

    def test_single_element_list_stays_tagged(self):
        encoded = serialize([np.zeros(3)])
        assert encoded[0] == _TAG_LIST

    def test_zero_d_arrays_stay_tagged(self):
        encoded = serialize([np.array(1.5), np.array(2.5)])
        assert encoded[0] == _TAG_LIST
        decoded = deserialize(encoded)
        # 0-d inputs have always round-tripped as shape-(1,) arrays (the
        # encoder's ascontiguousarray promotes 0-d); values are preserved.
        assert [a.item() for a in decoded] == [1.5, 2.5]

    def test_non_contiguous_elements_round_trip(self):
        base = np.arange(40.0).reshape(4, 10)
        batch = [base[i, ::2] for i in range(4)]  # strided views
        decoded = deserialize(serialize(batch))
        for original, copy in zip(batch, decoded):
            np.testing.assert_array_equal(copy, original)

    @given(
        hnp.arrays(
            dtype=np.float32,
            shape=hnp.array_shapes(min_dims=2, max_dims=3, max_side=6),
            elements=st.floats(-1e6, 1e6, width=32),
        )
    )
    def test_property_stacked_rows_round_trip(self, stacked):
        batch = list(stacked)  # homogeneous rows of one array
        decoded = deserialize(serialize(batch))
        np.testing.assert_array_equal(np.stack(decoded), stacked)

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=9))
    def test_property_count_and_width(self, count, width):
        batch = [np.full(width, i, dtype=np.int32) for i in range(count)]
        decoded = deserialize(serialize(batch))
        assert len(decoded) == count
        for i, copy in enumerate(decoded):
            np.testing.assert_array_equal(copy, np.full(width, i, dtype=np.int32))


class TestHeterogeneousFallback:
    @pytest.mark.parametrize(
        "batch",
        [
            [np.zeros(3, dtype=np.float64), np.zeros(3, dtype=np.float32)],  # dtype
            [np.zeros(3), np.zeros(4)],  # shape
            [np.zeros(3), "not an array"],  # type
            [np.zeros((2, 2)), np.zeros(4)],  # ndim
        ],
    )
    def test_mixed_batches_use_tagged_encoding(self, batch):
        encoded = serialize(batch)
        assert encoded[0] == _TAG_LIST
        decoded = deserialize(encoded)
        assert len(decoded) == len(batch)
        for original, copy in zip(batch, decoded):
            if isinstance(original, np.ndarray):
                np.testing.assert_array_equal(copy, original)
            else:
                assert copy == original

    def test_batch_nested_in_request_payload(self):
        payload = {
            "type": 1,
            "request_id": 9,
            "inputs": [np.arange(6, dtype=np.float32) for _ in range(5)],
        }
        decoded = deserialize(serialize(payload))
        assert decoded["request_id"] == 9
        for i in range(5):
            np.testing.assert_array_equal(
                decoded["inputs"][i], np.arange(6, dtype=np.float32)
            )


class TestZeroCopyDecode:
    def test_decoded_single_array_is_readonly_view(self):
        frame = serialize(np.arange(100.0))
        decoded = deserialize(frame)
        assert decoded.flags.writeable is False
        assert decoded.base is not None  # a view, not an owning copy
        with pytest.raises(ValueError):
            decoded[0] = 1.0

    def test_decoded_batch_rows_are_readonly_views(self):
        batch = [np.arange(64, dtype=np.float32) + i for i in range(4)]
        decoded = deserialize(serialize(batch))
        for row in decoded:
            assert row.flags.writeable is False
            with pytest.raises(ValueError):
                row[0] = 0.0

    def test_copy_on_demand(self):
        decoded = deserialize(serialize(np.arange(10.0)))
        writable = decoded.copy()
        writable[0] = 42.0
        assert writable[0] == 42.0


class TestCorruptColumnarFrames:
    def _batch_frame(self):
        return serialize([np.arange(32, dtype=np.float32) for _ in range(4)])

    def test_truncated_payload_raises(self):
        frame = self._batch_frame()
        with pytest.raises(SerializationError):
            deserialize(frame[: len(frame) // 2])

    def test_truncated_header_raises(self):
        frame = self._batch_frame()
        with pytest.raises(SerializationError):
            deserialize(frame[:3])

    def test_trailing_garbage_raises(self):
        with pytest.raises(SerializationError):
            deserialize(self._batch_frame() + b"x")

    def test_corrupt_count_raises(self):
        frame = bytearray(self._batch_frame())
        # dtype "<f4": tag(1) + len(1) + name(3) + ndim(1) + dim(8) → count at 14.
        struct.pack_into("<I", frame, 14, 2**31)
        with pytest.raises(SerializationError):
            deserialize(bytes(frame))

    def test_corrupt_string_length_raises(self):
        frame = bytearray(serialize("hello"))
        struct.pack_into("<I", frame, 1, 2**20)
        with pytest.raises(SerializationError):
            deserialize(bytes(frame))

    def test_truncated_bytes_payload_raises(self):
        frame = serialize(b"payload-bytes")
        with pytest.raises(SerializationError):
            deserialize(frame[:-2])


class TestBufferListFraming:
    def test_segments_join_to_serialize_output(self):
        payload = {
            "type": 1,
            "request_id": 3,
            "inputs": [np.arange(512, dtype=np.float64) for _ in range(3)],
            "metadata": {"k": "v"},
        }
        assert b"".join(serialize_buffers(payload)) == serialize(payload)

    def test_large_payload_segments_are_zero_copy_views(self):
        array = np.arange(1024, dtype=np.float64)
        segments = serialize_buffers({"type": 1, "request_id": 0, "a": array})
        views = [s for s in segments if isinstance(s, memoryview)]
        assert views, "large array payload should be a standalone memoryview"
        assert all(v.readonly for v in views)
        assert sum(v.nbytes for v in views) == array.nbytes

    def test_frame_segments_are_the_prefix_plus_the_serialized_payload(self):
        payload = {"type": 2, "request_id": 1, "outputs": [np.ones(300), np.ones(300)]}
        segments, length = frame_message(payload)
        body = serialize(payload)
        assert b"".join(segments) == struct.pack("<I", len(body)) + body
        assert length == len(body)

    def test_length_prefix_covers_all_segments(self):
        payload = {"type": 1, "request_id": 7, "inputs": [np.zeros(700), np.zeros(700)]}
        segments, length = frame_message(payload)
        assert frame_length(bytes(segments[0])) == length
        assert length == sum(len(s) for s in segments[1:])


class TestPipelinedClient:
    def test_concurrent_predicts_map_to_right_responses(self):
        class EchoFirst(ModelContainer):
            def predict_batch(self, inputs):
                return [float(np.asarray(x).ravel()[0]) for x in inputs]

        async def scenario():
            client_side, server_side = queue_pair()
            server = ContainerRpcServer(EchoFirst(), server_side)
            client = RpcClient(client_side, timeout_s=5.0)
            server.start()
            batches = [[np.full(4, float(i))] for i in range(8)]
            responses = await asyncio.gather(
                *(client.predict(batch) for batch in batches)
            )
            for i, response in enumerate(responses):
                assert response.ok
                assert response.outputs == [float(i)]
            await server.stop()
            await client.close()

        run_async(scenario())

    def test_heartbeat_interleaves_with_inflight_predicts(self):
        class Slowish(ModelContainer):
            def predict_batch(self, inputs):
                return [1] * len(inputs)

        async def scenario():
            client_side, server_side = queue_pair()
            server = ContainerRpcServer(Slowish(), server_side)
            client = RpcClient(client_side, timeout_s=5.0)
            server.start()
            predict_task = asyncio.ensure_future(
                client.predict([np.zeros(2)] * 3)
            )
            assert await client.heartbeat(timeout_s=2.0) is True
            response = await predict_task
            assert response.outputs == [1, 1, 1]
            await server.stop()
            await client.close()

        run_async(scenario())

    def test_heartbeat_timeout_bounds_blocked_send(self):
        """The probe deadline covers lock wait + send, not just the recv."""

        class WedgedTransport:
            closed = False

            async def send(self, payload):
                await asyncio.Event().wait()  # never completes

            async def recv(self):
                await asyncio.Event().wait()

            async def close(self):
                pass

        async def scenario():
            client = RpcClient(WedgedTransport(), timeout_s=30.0)
            start = asyncio.get_event_loop().time()
            assert await client.heartbeat(timeout_s=0.2) is False
            assert asyncio.get_event_loop().time() - start < 5.0

        run_async(scenario())

    def test_close_fails_inflight_waiters(self):
        async def scenario():
            client_side, _ = queue_pair()
            client = RpcClient(client_side, timeout_s=5.0)
            task = asyncio.ensure_future(client.predict([np.zeros(1)]))
            await asyncio.sleep(0.01)  # let the request hit the wire
            await client.close()
            from repro.core.exceptions import RpcError

            with pytest.raises(RpcError):
                await task

        run_async(scenario())


class TestPipelinedDispatcher:
    def _item(self, value):
        return PendingQuery(
            input=np.full(4, float(value)),
            future=asyncio.get_event_loop().create_future(),
            enqueue_time=clock.now(),
        )

    def test_results_map_to_right_futures_with_window_2(self):
        class EchoFirst(ModelContainer):
            def predict_batch(self, inputs):
                return [float(np.asarray(x).ravel()[0]) for x in inputs]

        async def scenario():
            replica = ContainerReplica(ModelId("echo"), 0, EchoFirst())
            queue = BatchingQueue()
            dispatcher = ReplicaDispatcher(
                replica, queue, FixedBatchSizeController(BatchingConfig(initial_batch_size=3))
            )
            await replica.start()
            dispatcher.start()
            items = [self._item(i) for i in range(30)]
            for item in items:
                await queue.put(item)
            results = await asyncio.gather(*[item.future for item in items])
            assert results == [float(i) for i in range(30)]
            # the pipelined loop really split this into several batches
            sizes = dispatcher.metrics.histogram(f"model.{replica.model_id}.batch_size")
            assert sizes.count >= 5
            await dispatcher.stop()
            await replica.stop()

        run_async(scenario())

    def test_retries_resolve_right_futures_under_pipelining(self, monkeypatch):
        monkeypatch.setattr(dispatcher_module, "FAILURE_COOLDOWN_MS", 1.0)

        class FlakyContainer(ModelContainer):
            """Fails its first two batches, then echoes inputs."""

            def __init__(self):
                self.calls = 0

            def predict_batch(self, inputs):
                self.calls += 1
                if self.calls <= 2:
                    raise RuntimeError("transient failure")
                return [float(np.asarray(x).ravel()[0]) for x in inputs]

        async def scenario():
            replica = ContainerReplica(ModelId("flaky"), 0, FlakyContainer())
            queue = BatchingQueue()
            dispatcher = ReplicaDispatcher(
                replica,
                queue,
                FixedBatchSizeController(BatchingConfig(initial_batch_size=4)),
                max_retries=3,
            )
            await replica.start()
            dispatcher.start()
            items = [self._item(i) for i in range(12)]
            for item in items:
                await queue.put(item)
            results = await asyncio.wait_for(
                asyncio.gather(*[item.future for item in items]), timeout=5.0
            )
            assert results == [float(i) for i in range(12)]
            assert dispatcher.batches_failed >= 2
            await dispatcher.stop()
            await replica.stop()

        run_async(scenario())

    def test_exhausted_retries_fail_futures_with_window_2(self, monkeypatch):
        monkeypatch.setattr(dispatcher_module, "FAILURE_COOLDOWN_MS", 1.0)

        class AlwaysFailing(ModelContainer):
            def predict_batch(self, inputs):
                raise RuntimeError("dead")

        async def scenario():
            replica = ContainerReplica(ModelId("dead"), 0, AlwaysFailing())
            queue = BatchingQueue()
            dispatcher = ReplicaDispatcher(
                replica,
                queue,
                FixedBatchSizeController(BatchingConfig(initial_batch_size=4)),
                max_retries=1,
            )
            await replica.start()
            dispatcher.start()
            items = [self._item(i) for i in range(4)]
            for item in items:
                await queue.put(item)
            done = await asyncio.wait_for(
                asyncio.gather(
                    *[item.future for item in items], return_exceptions=True
                ),
                timeout=5.0,
            )
            assert all(isinstance(r, ContainerError) for r in done)
            await dispatcher.stop()
            await replica.stop()

        run_async(scenario())

    def test_window_1_preserves_serial_dispatch(self, monkeypatch):
        monkeypatch.setattr(dispatcher_module, "PIPELINE_WINDOW", 1)
        observed = []

        class Recorder(ModelContainer):
            def predict_batch(self, inputs):
                observed.append(len(inputs))
                return [0] * len(inputs)

        async def scenario():
            replica = ContainerReplica(ModelId("rec"), 0, Recorder())
            queue = BatchingQueue()
            dispatcher = ReplicaDispatcher(
                replica, queue, FixedBatchSizeController(BatchingConfig(initial_batch_size=8))
            )
            await replica.start()
            dispatcher.start()
            items = [self._item(i) for i in range(16)]
            for item in items:
                await queue.put(item)
            await asyncio.gather(*[item.future for item in items])
            await dispatcher.stop()
            await replica.stop()
            assert sum(observed) == 16

        run_async(scenario())

    def test_serialized_batch_through_full_rpc_stack(self):
        """Columnar encode → transport → zero-copy decode → container."""

        async def scenario():
            container = FunctionContainer(
                lambda xs: [float(np.sum(x)) for x in xs]
            )
            replica = ContainerReplica(
                ModelId("sum"), 0, container, serialize_messages=True
            )
            queue = BatchingQueue()
            dispatcher = ReplicaDispatcher(
                replica, queue, FixedBatchSizeController(BatchingConfig(initial_batch_size=8))
            )
            await replica.start()
            dispatcher.start()
            items = [
                PendingQuery(
                    input=np.full(8, float(i), dtype=np.float32),
                    future=asyncio.get_event_loop().create_future(),
                    enqueue_time=clock.now(),
                )
                for i in range(24)
            ]
            for item in items:
                await queue.put(item)
            results = await asyncio.gather(*[item.future for item in items])
            assert results == [8.0 * i for i in range(24)]
            await dispatcher.stop()
            await replica.stop()

        run_async(scenario())
