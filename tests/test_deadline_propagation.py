"""Deadline propagation: absolute deadlines ride the queue, the dispatcher
and the RPC wire so containers never evaluate already-expired entries."""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, List, Sequence

import pytest

from helpers import queue_pair, run_async
from repro.containers.base import ModelContainer
from repro.containers.replica import ContainerReplica
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.exceptions import RpcError
from repro.core.types import ModelId, Query
from repro.rpc import server as rpc_server
from repro.rpc.client import RpcClient
from repro.rpc.protocol import MessageType, RpcRequest, RpcResponse
from repro.rpc.shm import HAS_SHARED_MEMORY

TRANSPORTS = ["inprocess", "tcp"] + (["shm"] if HAS_SHARED_MEMORY else [])


class CountingContainer(ModelContainer):
    """Doubles each input; records everything it was asked to evaluate."""

    def __init__(self) -> None:
        self.calls = 0
        self.seen: List[Any] = []

    def predict_batch(self, inputs: Sequence[Any]) -> List[Any]:
        self.calls += 1
        self.seen.extend(list(inputs))
        return [float(x) * 2 for x in inputs]


class GateContainer(ModelContainer):
    """Blocks every batch on a shared event; records what it evaluated."""

    def __init__(self, gate: threading.Event) -> None:
        self.gate = gate
        self.calls = 0
        self.seen: List[Any] = []

    def predict_batch(self, inputs: Sequence[Any]) -> List[Any]:
        self.gate.wait(timeout=10.0)
        self.calls += 1
        self.seen.extend(list(inputs))
        return [1 for _ in inputs]


class ClockOfAnotherHost:
    """Stands in for the ``time`` module as the RPC server sees it on a host
    whose monotonic clock started ``offset_s`` before (or after) ours."""

    perf_counter = staticmethod(time.perf_counter)

    def __init__(self, offset_s: float) -> None:
        self.offset_s = offset_s

    def monotonic(self) -> float:
        return time.monotonic() + self.offset_s


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


class TestWireFormat:
    def test_deadline_free_request_pays_zero_wire_bytes(self):
        request = RpcRequest(request_id=1, model_name="m", inputs=[1.0])
        payload = request.to_payload()
        assert "deadlines" not in payload and "budgets_ms" not in payload

    def test_deadlines_cross_the_wire_as_remaining_budgets(self):
        """No absolute clock reading is sent: each entry's remaining budget
        is (``inf`` = the entry has no deadline), which the server counts
        down from the request's arrival on its own clock — see
        ``test_a_server_on_another_clock_skips_exactly_the_expired``."""
        now = time.monotonic()
        request = RpcRequest(
            request_id=2, model_name="m", inputs=[1.0, 2.0, 3.0],
            deadlines=(0.0, now + 12.5, now - 1.0),
        )
        payload = request.to_payload()
        assert "deadlines" not in payload
        none, ahead, behind = payload["budgets_ms"]
        assert none == float("inf")
        assert ahead == pytest.approx(12500.0, abs=50.0)
        assert behind == pytest.approx(-1000.0, abs=50.0)

    def test_skip_free_response_pays_zero_wire_bytes(self):
        response = RpcResponse(request_id=1, outputs=[2.0])
        payload = response.to_payload()
        assert "skipped" not in payload
        assert RpcResponse.from_payload(payload).skipped == ()

    def test_skipped_round_trips(self):
        response = RpcResponse(request_id=3, outputs=[2.0], skipped=(0, 2))
        payload = response.to_payload()
        assert payload["skipped"] == [0, 2]
        assert RpcResponse.from_payload(payload).skipped == (0, 2)

    def test_client_rejects_misaligned_outputs_plus_skips(self):
        """outputs + skipped must partition the batch exactly."""

        async def scenario():
            client_end, server_end = queue_pair()

            async def bad_server():
                payload = await server_end.recv()
                await server_end.send(
                    {
                        "type": int(MessageType.PREDICT_RESPONSE),
                        "request_id": payload["request_id"],
                        "outputs": [2.0],  # one output + one skip for three inputs
                        "error": None,
                        "container_latency_ms": 0.0,
                        "skipped": [2],
                    }
                )

            server_task = asyncio.ensure_future(bad_server())
            client = RpcClient(client_end)
            try:
                with pytest.raises(RpcError, match="1 outputs and 1 skips"):
                    await client.predict("m", [1.0, 2.0, 3.0])
            finally:
                await server_task
                await client.close()

        run_async(scenario())


# ---------------------------------------------------------------------------
# Replica transports honour per-entry deadlines server-side
# ---------------------------------------------------------------------------


class TestReplicaSkipsExpiredEntries:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_expired_entries_are_skipped_not_evaluated(self, transport):
        async def scenario():
            container = CountingContainer()
            replica = ContainerReplica(
                ModelId("count"), 0, container, transport=transport
            )
            await replica.start()
            try:
                now = time.monotonic()
                response = await replica.predict_batch(
                    [1.0, 2.0, 3.0],
                    deadlines=[now - 10.0, 0.0, now + 100.0],
                )
                assert response.ok
                assert response.skipped == (0,)
                assert response.outputs == [4.0, 6.0]
                # The expired entry never reached the model.
                assert container.seen == [2.0, 3.0]
            finally:
                await replica.stop()

        run_async(scenario())

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_fully_expired_batch_never_touches_the_container(self, transport):
        async def scenario():
            container = CountingContainer()
            replica = ContainerReplica(
                ModelId("count"), 0, container, transport=transport
            )
            await replica.start()
            try:
                expired = time.monotonic() - 10.0
                response = await replica.predict_batch(
                    [1.0, 2.0, 3.0], deadlines=[expired] * 3
                )
                assert response.ok
                assert response.skipped == (0, 1, 2)
                assert response.outputs == []
                assert container.calls == 0
            finally:
                await replica.stop()

        run_async(scenario())

    @pytest.mark.parametrize("skew_s", [3600.0, -3600.0], ids=["ahead", "behind"])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_a_server_on_another_clock_skips_exactly_the_expired(
        self, transport, skew_s, monkeypatch
    ):
        """``time.monotonic()`` has a different origin on every host.  With
        absolute deadlines on the wire a server an hour ahead skipped every
        entry and one an hour behind never skipped any."""
        monkeypatch.setattr(rpc_server, "time", ClockOfAnotherHost(skew_s))

        async def scenario():
            container = CountingContainer()
            replica = ContainerReplica(
                ModelId("count"), 0, container, transport=transport
            )
            await replica.start()
            try:
                now = time.monotonic()
                response = await replica.predict_batch(
                    [1.0, 2.0, 3.0],
                    deadlines=[now - 10.0, 0.0, now + 100.0],
                )
                assert response.ok
                assert response.skipped == (0,)
                assert response.outputs == [4.0, 6.0]
                assert container.seen == [2.0, 3.0]
            finally:
                await replica.stop()

        run_async(scenario())

    def test_no_deadlines_means_no_skipping(self):
        async def scenario():
            container = CountingContainer()
            replica = ContainerReplica(ModelId("count"), 0, container)
            await replica.start()
            try:
                response = await replica.predict_batch([1.0, 2.0])
                assert response.ok
                assert response.skipped == ()
                assert response.outputs == [2.0, 4.0]
            finally:
                await replica.stop()

        run_async(scenario())


# ---------------------------------------------------------------------------
# End to end: a query that expires in the queue is never evaluated
# ---------------------------------------------------------------------------


class TestDeadlinesEndToEnd:
    def test_expired_queries_never_reach_the_container(self):
        """Queries whose SLO lapses while queued are answered with the
        default and dropped before dispatch — the container only ever sees
        the one query that was actually in flight."""

        async def scenario():
            gate = threading.Event()
            container = GateContainer(gate)
            clipper = Clipper(
                ClipperConfig(
                    app_name="demo",
                    selection_policy="single",
                    latency_slo_ms=250.0,
                    default_output=0,
                )
            )
            clipper.deploy_model(
                ModelDeployment(
                    name="gated",
                    container_factory=lambda: container,
                    # The later queries wait in the queue (and expire there)
                    # while the first batch blocks, because the dispatcher
                    # forms no batch before the replica can take it.
                )
            )
            await clipper.start()
            try:
                loop = asyncio.get_event_loop()
                tasks = [
                    loop.create_task(
                        clipper.predict(Query(app_name="demo", input=[1.0]))
                    )
                ]
                await asyncio.sleep(0.1)  # first batch pulled, blocked on gate
                for x in (2.0, 3.0, 4.0):
                    tasks.append(
                        loop.create_task(
                            clipper.predict(Query(app_name="demo", input=[x]))
                        )
                    )
                # Everyone's 250 ms SLO lapses while the gate is closed.
                await asyncio.sleep(0.6)
                gate.set()
                results = await asyncio.gather(*tasks)
                # Every query got an answer — the deadline-missed ones with
                # the application default.
                assert len(results) == 4
                assert all(r.default_used for r in results)
                # Give the dispatcher time to drain the expired remainder.
                await asyncio.sleep(0.3)
                # Only the in-flight query was ever evaluated; the three that
                # expired in the queue were dropped before dispatch.
                assert container.seen == [[1.0]]
                assert container.calls == 1
            finally:
                gate.set()
                await clipper.stop()

        run_async(scenario())

    def test_queries_are_answered_by_a_model_on_another_clock(self, monkeypatch):
        """End to end across a clock skew: every query inside its SLO gets
        the model's answer (all five got the default output before)."""
        monkeypatch.setattr(rpc_server, "time", ClockOfAnotherHost(3600.0))

        async def scenario():
            container = CountingContainer()
            clipper = Clipper(
                ClipperConfig(
                    app_name="demo",
                    selection_policy="single",
                    latency_slo_ms=2000.0,
                    default_output=0,
                )
            )
            clipper.deploy_model(
                ModelDeployment(
                    name="count", container_factory=lambda: container, transport="tcp"
                )
            )
            await clipper.start()
            try:
                results = [
                    await clipper.predict(Query(app_name="demo", input=float(x)))
                    for x in range(1, 6)
                ]
            finally:
                await clipper.stop()
            assert [r.default_used for r in results] == [False] * 5
            assert [r.output for r in results] == [2.0, 4.0, 6.0, 8.0, 10.0]

        run_async(scenario())
