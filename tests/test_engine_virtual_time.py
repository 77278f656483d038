"""The whole serving engine on the virtual-time loop: proof of one clock.

The real :class:`Clipper` — routing, selection (Exp4 over three models),
cache, batching queues, dispatchers with AIMD batch sizes, the straggler
deadline sweeper, admission control and a circuit breaker — serves Poisson
arrivals at 3 000 q/s for 10 virtual seconds under a 20 ms SLO.  Each model
is a ``simloop.SimulatedReplica`` that takes ``a + b * batch_size`` ms of
loop time per batch; one has a seeded heavy tail.  Nothing sleeps on the wall
clock, so a module that read any clock but ``repro.core.clock`` would see
deadlines and latencies that are wrong, and two runs would stop agreeing.
"""

from __future__ import annotations

import time

from paperkit.load import drive, poisson
from repro.core.clipper import Clipper
from repro.core.config import (
    BatchingConfig,
    CircuitBreakerConfig,
    ClipperConfig,
    ModelDeployment,
    OverloadConfig,
)
from repro.core.exceptions import OverloadError
from repro.core.types import Query
from simloop import placement, run_virtual

SLO_MS = 20.0
RATE_QPS = 3000.0
SECONDS = 10.0
#: How long the tail model's breaker stays open once it trips.
OPEN_S = 0.25
#: Per model: batch cost ``a + b * size`` (ms), and the heavy tail's chance
#: per batch and scale (ms).
MODELS = {
    "fast": ((1.0, 0.02), (0.0, 0.0)),
    "mid": ((2.0, 0.05), (0.0, 0.0)),
    "tail": ((1.5, 0.03), (0.01, 8.0)),
}


async def serve(seed: int):
    """One run: each arrival's ``(latency_ms, outcome, models_missing)``."""
    clipper = Clipper(
        ClipperConfig(
            app_name="sim",
            latency_slo_ms=SLO_MS,
            selection_policy="exp4",
            default_output="default",
            overload=OverloadConfig(rate_limit_qps=2800.0, burst=50),
            breaker=CircuitBreakerConfig(open_duration_s=OPEN_S),
        ),
        placement=placement(MODELS, seed),
    )
    for name in MODELS:
        clipper.deploy_model(
            ModelDeployment(name, container_factory=None, batching=BatchingConfig(policy="aimd"))
        )
    await clipper.start()
    log = {}

    async def query(i: int) -> None:
        try:
            answer = await clipper.predict(Query(app_name="sim", input=float(i)))
        except OverloadError:
            entry = (None, "shed", ())
        else:
            outcome = "default" if answer.default_used else "answered"
            entry = (answer.latency_ms, outcome, answer.models_missing)
        assert i not in log
        log[i] = entry

    answers = await drive(query, due=poisson(RATE_QPS, SECONDS, seed))
    await clipper.stop()
    return [log[i] for i in range(len(answers))], clipper.metrics.snapshot().counters


def test_the_engine_on_virtual_time_is_exact_and_repeatable():
    began = time.perf_counter()
    log, counters = run_virtual(serve(seed=7))
    again, _ = run_virtual(serve(seed=7))
    # Faster than real time: nothing waited on the wall clock.
    assert time.perf_counter() - began < 2 * SECONDS
    assert again == log

    assert 29_000 < len(log) < 31_000
    # Every query resolved exactly once (``query`` asserts the once): the
    # rate limit shed what arrived above its 2 800 q/s, the rest answered.
    shed = [entry for entry in log if entry[1] == "shed"]
    assert 0 < len(shed) == counters['overload.shed{policy="reject"}'] < 0.15 * len(log)
    answered = [entry for entry in log if entry[1] != "shed"]
    assert max(latency for latency, _, _ in answered) <= SLO_MS + 1e-6
    # The tail model's stragglers were answered without it, some exactly at
    # the deadline.  They tripped its breaker, and each time it skipped the
    # model for the whole cool-down (~700 queries), not for a probe or two.
    late = [entry for entry in answered if entry[2]]
    assert late and all(missing == ("tail:1",) for _, _, missing in late)
    assert any(abs(latency - SLO_MS) <= 1e-6 for latency, _, _ in late)
    assert counters["predict.stragglers"] > 0
    opens = counters['breaker.transitions{state="open"}']
    assert opens > 0 and counters["overload.breaker_fastfail"] >= opens * OPEN_S * 2000
