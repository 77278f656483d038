"""Figure 6 — scaling the model abstraction layer across a cluster.

The paper replicates one model container onto 1-4 GPU machines and shows
aggregate throughput growing near-linearly (19.5K -> 77K qps, 3.95x, on a
10 Gbps network).  Here the machines are worker daemons: for each fleet size
a :class:`~repro.cluster.supervisor.Supervisor` spawns that many worker
processes plus an ingress process, the ``device_1ms`` factory
(:class:`~repro.containers.busy.DeviceBoundContainer`: 1 ms of exclusive
device time per input, one device per worker process) is deployed through
the admin API with one replica per worker, and this process is a plain HTTP
client sending unique float32 x 256 inputs over the binary content type, so
every query crosses ingress -> batching -> RPC -> worker.  One worker's
device caps near 1k inputs/s however it is driven, so throughput can only
grow with the fleet.

The paper's 1 Gbps half of the figure (the NIC saturating) needs a second
host and is not reproduced; see the README.
"""

import asyncio
import tempfile
import time

import numpy as np

from conftest import record_result
from paperkit.reporting import format_table, summarize_latencies
from repro.client import AsyncAdminClient, AsyncClipperClient, ClipperClientError
from repro.cluster.supervisor import Supervisor

APP = "fig6"
WORKERS = (1, 2, 3, 4)
FEATURES = 256
CLIENTS = 64
QUERIES_PER_CLIENT = 48
#: Per-request SLO: generous, so the run measures capacity, not timeouts.
SLO_MS = 1000.0


async def drive(port: int, inputs: np.ndarray, num_replicas: int):
    """Deploy (untimed), then a closed loop: each keep-alive client sends its
    slice of ``inputs``."""
    async with AsyncAdminClient("127.0.0.1", port) as admin:
        # The batch cap keeps one dispatcher from draining the whole queue
        # while a sibling worker's device sits idle.
        await admin.deploy(
            APP,
            "device",
            factory="device_1ms",
            num_replicas=num_replicas,
            batching={"policy": "aimd", "initial_batch_size": 4, "max_batch_size": 8},
        )
    latencies, failed = [], 0
    clients = [AsyncClipperClient("127.0.0.1", port, binary=True) for _ in range(CLIENTS)]

    async def run(client, rows):
        nonlocal failed
        for x in rows:
            t0 = time.perf_counter()
            try:
                answer = await client.predict(APP, x, latency_slo_ms=SLO_MS)
                failed += answer.default_used
            except ClipperClientError:
                failed += 1
            latencies.append((time.perf_counter() - t0) * 1000.0)

    try:
        # Untimed: open connections, attach replicas, fault in the shm rings
        # (unique inputs too, so the cache is as cold as in the timed part).
        warm, timed = inputs[:CLIENTS], inputs[CLIENTS:]
        await asyncio.gather(*(run(c, warm[i : i + 1]) for i, c in enumerate(clients)))
        latencies.clear()
        start = time.perf_counter()
        await asyncio.gather(*(run(c, timed[i::CLIENTS]) for i, c in enumerate(clients)))
        elapsed = time.perf_counter() - start
        assert all(client.binary for client in clients), "fell back to JSON"
    finally:
        for client in clients:
            await client.close()
    return elapsed, latencies, failed


async def measure(num_workers: int) -> dict:
    inputs = (
        np.random.default_rng(num_workers)
        .standard_normal((CLIENTS * (QUERIES_PER_CLIENT + 1), FEATURES))
        .astype(np.float32)
    )
    with tempfile.TemporaryDirectory(prefix="repro-fig6-") as cluster_dir:
        supervisor = Supervisor(cluster_dir, num_workers=num_workers, app_name=APP)
        await supervisor.start()
        try:
            elapsed, latencies, failed = await drive(supervisor.port, inputs, num_workers)
        finally:
            await supervisor.drain()
    summary = summarize_latencies(latencies)
    return {
        "workers": num_workers,
        "qps": len(latencies) / elapsed,
        "p50_ms": summary["p50"],
        "p99_ms": summary["p99"],
        "failed": failed,
    }


def test_fig6_cluster_scaling(benchmark):
    rows = benchmark.pedantic(
        lambda: [asyncio.run(measure(n)) for n in WORKERS], rounds=1, iterations=1
    )
    for row in rows:
        row["speedup"] = row["qps"] / rows[0]["qps"]
    record_result(
        "fig6_cluster_scaling",
        format_table(rows, title="Figure 6: throughput vs worker daemons (device_1ms)"),
    )
    assert all(row["failed"] == 0 for row in rows)
    qps = [row["qps"] for row in rows]
    assert qps == sorted(qps), f"throughput not monotone in workers: {qps}"
    # The paper reports 3.95x at four machines; a second worker must deliver
    # at least 1.5x, which no concurrency against one device can.
    assert rows[1]["speedup"] >= 1.5
