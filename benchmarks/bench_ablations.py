"""Ablations of the design choices called out in DESIGN.md.

These go beyond the paper's figures and quantify the sensitivity of the main
mechanisms:

* AIMD backoff constant — the paper argues for a gentle 10% backoff rather
  than TCP-style halving; the ablation compares convergence and stability.
* Prediction-cache sizing and eviction policy (CLOCK vs LRU) on a skewed
  query popularity distribution.
* Straggler-mitigation deadline sweep — accuracy/latency trade-off as the
  SLO tightens.
* Exp3 vs epsilon-greedy vs UCB1 on a stationary selection workload.
* Tracing on vs off on the cache-hit path (the observability layer's
  near-zero-overhead requirement), and the replica RPC lane, ``tcp`` vs
  ``shm``, on the cache-miss path — both through one small closed-loop
  driver over a no-op model.
"""

import asyncio
import time

import numpy as np

from conftest import record_result
from repro.batching.aimd import AIMDController
from repro.cache.prediction_cache import PredictionCache
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import BatchingConfig, ClipperConfig, ModelDeployment, TracingConfig
from repro.core.types import ModelId, Query
from repro.evaluation.online import straggler_experiment
from repro.evaluation.reporting import format_table
from repro.evaluation.suites import ensemble_prediction_matrix, heterogeneous_ensemble
from repro.rpc.shm import HAS_SHARED_MEMORY
from repro.selection.epsilon_greedy import EpsilonGreedyPolicy
from repro.selection.exp3 import Exp3Policy
from repro.selection.ucb import UCB1Policy


def test_ablation_aimd_backoff_constant(benchmark):
    """Gentle backoff (0.9) should track capacity with fewer oscillations."""

    def run():
        rows = []
        for backoff in (0.5, 0.75, 0.9):
            controller = AIMDController(
                slo_ms=20.0, initial_batch_size=1, additive_increase=2, backoff_fraction=backoff
            )
            sizes = []
            for _ in range(600):
                batch = controller.current_batch_size()
                latency = 0.1 * batch  # capacity: 200 queries per 20 ms
                controller.observe(batch, latency)
                sizes.append(batch)
            steady = np.array(sizes[200:])
            rows.append(
                {
                    "backoff_fraction": backoff,
                    "mean_batch": float(steady.mean()),
                    "batch_stddev": float(steady.std()),
                    "backoffs": controller.backoffs,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_result("ablation_aimd_backoff", format_table(rows, title="Ablation: AIMD backoff"))
    by_backoff = {row["backoff_fraction"]: row for row in rows}
    # The gentle backoff sustains a larger average batch (higher throughput)
    # with lower variance than aggressive halving.
    assert by_backoff[0.9]["mean_batch"] > by_backoff[0.5]["mean_batch"]
    assert by_backoff[0.9]["batch_stddev"] < by_backoff[0.5]["batch_stddev"] * 1.5


def test_ablation_cache_size_and_eviction(benchmark):
    """Hit rate vs cache size under a Zipf-like popularity distribution."""
    rng = np.random.default_rng(0)
    n_items = 4096
    popularity = rng.zipf(1.3, size=60000) % n_items
    items = [np.array([float(i)]) for i in range(n_items)]

    def run():
        rows = []
        for capacity in (256, 1024, 4096):
            for eviction in ("clock", "lru"):
                cache = PredictionCache(capacity=capacity, eviction=eviction)
                for item_id in popularity:
                    x = items[int(item_id)]
                    if cache.fetch("m:1", x) is None:
                        cache.put("m:1", x, int(item_id))
                rows.append(
                    {
                        "capacity": capacity,
                        "eviction": eviction,
                        "hit_rate": cache.stats.hit_rate,
                    }
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_result("ablation_cache", format_table(rows, title="Ablation: prediction cache"))
    by_key = {(row["capacity"], row["eviction"]): row["hit_rate"] for row in rows}
    # Bigger caches hit more, and CLOCK approximates LRU closely (within 10 points).
    assert by_key[(4096, "clock")] > by_key[(256, "clock")]
    for capacity in (256, 1024, 4096):
        assert abs(by_key[(capacity, "clock")] - by_key[(capacity, "lru")]) < 0.1


def test_ablation_straggler_deadline_sweep(benchmark, cifar_eval_dataset):
    """Tighter SLOs trade more missing predictions for bounded latency."""
    models = heterogeneous_ensemble(cifar_eval_dataset, n_models=5, random_state=0)
    predictions = ensemble_prediction_matrix(models, cifar_eval_dataset.X_test)

    def run():
        rows = []
        for slo in (10.0, 20.0, 40.0, 80.0):
            result = straggler_experiment(
                predictions,
                cifar_eval_dataset.y_test,
                ensemble_size=5,
                slo_ms=slo,
                num_queries=1200,
                random_state=1,
            )
            rows.append(
                {
                    "slo_ms": slo,
                    "mitigated_p99_ms": result.mitigated_p99_latency_ms,
                    "missing_mean_pct": result.mean_missing_fraction * 100,
                    "accuracy": result.accuracy,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_result(
        "ablation_straggler_deadline",
        format_table(rows, title="Ablation: straggler-mitigation deadline sweep"),
    )
    assert rows[0]["missing_mean_pct"] >= rows[-1]["missing_mean_pct"]
    assert rows[0]["accuracy"] <= rows[-1]["accuracy"] + 1e-9
    for row in rows:
        assert row["mitigated_p99_ms"] <= row["slo_ms"] + 1e-9


def test_ablation_bandit_policies(benchmark):
    """Exp3 vs epsilon-greedy vs UCB1 on a stationary two-model workload."""
    models = [ModelId("good"), ModelId("bad")]
    accuracies = {"good:1": 0.9, "bad:1": 0.55}

    def run():
        rows = []
        for label, policy in (
            ("exp3", Exp3Policy(eta=0.3, seed=0)),
            ("epsilon_greedy", EpsilonGreedyPolicy(epsilon=0.1, seed=0)),
            ("ucb1", UCB1Policy()),
        ):
            rng = np.random.default_rng(1)
            state = policy.init(models)
            errors = 0
            n = 3000
            for _ in range(n):
                arm = policy.select(state, None)[0]
                correct = rng.random() < accuracies[arm]
                errors += int(not correct)
                state = policy.observe(state, None, 1, {arm: 1 if correct else 0})
            rows.append({"policy": label, "mean_error": errors / n})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_result(
        "ablation_bandit_policies",
        format_table(rows, title="Ablation: bandit policies on a stationary workload"),
    )
    # Every policy must do clearly better than always picking the bad model
    # (error 0.45) and approach the good model's error rate (0.10).
    for row in rows:
        assert row["mean_error"] < 0.3


def _noop_app(tracing=None, transport="inprocess"):
    """One no-op model, so only the framework's own cost is on the clock."""
    clipper = Clipper(
        ClipperConfig(
            app_name="ablation",
            latency_slo_ms=500.0,
            selection_policy="single",
            tracing=tracing or TracingConfig(),
        )
    )
    clipper.deploy_model(
        ModelDeployment(
            name="noop",
            container_factory=lambda: NoOpContainer(output=1),
            batching=BatchingConfig(policy="aimd", initial_batch_size=4),
            serialize_rpc=transport != "inprocess",
            transport=transport,
        )
    )
    return clipper


async def _answer_all(clipper, inputs, concurrency=1):
    """Seconds taken to answer ``inputs`` with ``concurrency`` in flight."""

    async def one(x):
        await clipper.predict(Query(app_name="ablation", input=x))

    start = time.perf_counter()
    if concurrency == 1:
        # No task per query: on a ~12 us cache hit it would double the cost
        # of both sides of an A/B and halve the difference it can show.
        for x in inputs:
            await one(x)
    else:
        for offset in range(0, len(inputs), concurrency):
            await asyncio.gather(*map(one, inputs[offset : offset + concurrency]))
    return time.perf_counter() - start


def test_ablation_tracing_overhead():
    """Default tracing (1/256 head sampling + tail capture) costs <= 5 % of
    cache-hit throughput against tracing disabled.

    The two applications answer the same repeated input in interleaved
    slices, so scheduler drift and allocator state hit both alike; single
    runs still jitter by about 5 % on a shared host, so the requirement holds
    if any of three attempts lands inside the budget (a real regression
    fails all three, far outside it).
    """
    x = np.random.default_rng(5).standard_normal(784)
    rounds, per_round = 4, 1000

    async def attempt():
        apps = {"on": _noop_app(TracingConfig()), "off": _noop_app(TracingConfig(enabled=False))}
        spent = dict.fromkeys(apps, 0.0)
        for clipper in apps.values():
            await clipper.start()
        try:
            for clipper in apps.values():
                await _answer_all(clipper, [x])  # fill the cache
            for _ in range(rounds):
                for name, clipper in apps.items():
                    spent[name] += await _answer_all(clipper, [x] * per_round)
        finally:
            for clipper in apps.values():
                await clipper.stop()
        return {name: rounds * per_round / seconds for name, seconds in spent.items()}

    rows = []
    for _ in range(3):
        qps = asyncio.run(attempt())
        rows.append({"on_qps": qps["on"], "off_qps": qps["off"], "on/off": qps["on"] / qps["off"]})
        if rows[-1]["on/off"] >= 0.95:
            break
    record_result(
        "ablation_tracing_overhead",
        format_table(rows, title="Ablation: tracing on vs off, cache hits"),
    )
    best = max(row["on/off"] for row in rows)
    assert best >= 0.95, f"tracing overhead above 5%: best on/off ratio {best:.4f}"


def test_ablation_replica_transport():
    """The same serialized cache-miss traffic over each replica lane: only
    the byte-moving mechanism differs.  Reported, not ranked — which lane
    wins depends on the host."""
    rng = np.random.default_rng(3)
    warm, timed = rng.standard_normal((2, 2000, 256)).astype(np.float32)

    async def measure(transport):
        clipper = _noop_app(transport=transport)
        await clipper.start()
        try:
            # Unique inputs in both halves, so every query misses the cache;
            # the first half pays for cold buffers and a fresh ring.
            await _answer_all(clipper, warm, concurrency=32)
            seconds = await _answer_all(clipper, timed, concurrency=32)
        finally:
            await clipper.stop()
        return {"transport": transport, "qps": len(timed) / seconds}

    lanes = ("tcp", "shm") if HAS_SHARED_MEMORY else ("tcp",)
    rows = [asyncio.run(measure(lane)) for lane in lanes]
    record_result(
        "ablation_replica_transport",
        format_table(rows, title="Ablation: replica RPC lane, cache misses"),
    )
    assert all(row["qps"] > 0 for row in rows)
