"""Figures 4, 5 and 9 of the paper, served by the real engine in virtual time.

Every run is the real :class:`Clipper` — selection, batching queues,
dispatchers and their batch-size controllers, the straggler deadline sweeper
and Exp4's combine — on ``simloop``'s virtual-time loop.  Each model is a
``simloop.SimulatedReplica`` whose batch of ``size`` costs ``a + b * size`` ms
of loop time, so a run costs no wall-clock waiting, repeats exactly, and its
assertions are closed-form properties of the pinned lines rather than
recorded numbers.

* **Fig. 4** (§4.3.1): 64 closed-loop users per Fig. 3 container under AIMD,
  quantile regression and no batching.
* **Fig. 5** (§4.3.2): Poisson arrivals under the delayed-batching timeout.
* **Fig. 9** (§5.2.2): growing ensembles of heavy-tailed models with the
  straggler deadline on and off, and the deadline's own axis.
"""

from __future__ import annotations

import zlib
from collections import Counter

import numpy as np
import pytest

from paperkit.load import drive, poisson
from repro.core.clipper import Clipper
from repro.core.config import BatchingConfig, ClipperConfig, ModelDeployment
from repro.core.types import Query
from simloop import placement, run_virtual

SLO_MS = 20.0
NO_TAIL = (0.0, 0.0)
#: Each Fig. 3 container's P99 line ``(a ms, b ms per query)``: the column
#: ``benchmarks/bench_fig3_latency_profiles.py`` fits with the quantile
#: controller's own estimator (``fit_quantile_line``, 25 timings per batch
#: size), from its run of 2026-10-17 on a 2-vCPU Intel Xeon host.
FIG3_LINES = {
    "no-op": (0.002436, -2.871e-06),
    "linear-svm-sklearn": (0.4615, 0.003863),
    "linear-svm-pyspark": (0.1067, 0.02933),
    "random-forest-sklearn": (0.2171, 0.02753),
    "kernel-svm-sklearn": (0.0222, 0.3445),
    "logistic-regression-sklearn": (0.04913, 0.003883),
}
#: Fig. 5's two lines: a high fixed cost per batch, and a high cost per query.
HIGH_FIXED, HIGH_PER_ITEM = "linear-svm-sklearn", "linear-svm-pyspark"


def serving(models, seed=0, answer=None, **config) -> Clipper:
    """An engine, not yet started, serving ``models[name] = (batching, line, tail)``."""
    shapes = {name: (line, tail) for name, (_, line, tail) in models.items()}
    clipper = Clipper(
        ClipperConfig(app_name="fig", tracing=False, **config),
        placement=placement(shapes, seed, answer),
    )
    for name, (batching, _, _) in models.items():
        clipper.deploy_model(ModelDeployment(name, container_factory=None, batching=batching))
    return clipper


# -- Figure 4: batching strategies, closed loop --------------------------------

USERS = 64
#: Strategy → (batching, queries per run).  On a flat line the quantile
#: controller grows by one step per refit, so the adaptive runs need ~100
#: batches to ramp; no batching is steady from its first query.
STRATEGIES = {
    "aimd": (BatchingConfig(policy="aimd", additive_increase=4), 6000),
    "quantile": (BatchingConfig(policy="quantile", additive_increase=4), 6000),
    "none": (BatchingConfig(policy="none"), 1000),
}


def fig4_bound(line) -> float:
    """The most q/s a serial replica with this line serves in SLO-sized batches.

    A batch holds at most every user's query; a line that does not rise
    fits them all.
    """
    a_ms, b_ms = line
    k = USERS if b_ms <= 0 else min(USERS, int((SLO_MS - a_ms) // b_ms))
    return 1000.0 * k / (a_ms + b_ms * k)


async def steady_qps(line, batching, queries: int) -> float:
    """Steady q/s of ``USERS`` users, each sending its next query on an answer.

    Measured over the answers after the run's middle one, so the
    controllers' ramp-up is not in it.
    """
    clipper = serving(
        {"m": (batching, line, NO_TAIL)},
        latency_slo_ms=SLO_MS, selection_policy="single", cache_size=0,
        straggler_mitigation=False,
    )
    await clipper.start()
    answers = await drive(
        lambda i: clipper.predict(Query(app_name="fig", input=i)), users=USERS, count=queries
    )
    await clipper.stop()
    answered = sorted(answer.at for answer in answers)
    middle = answered[len(answered) // 2]
    later = [t for t in answered if t > middle]
    return len(later) / (answered[-1] - middle)


@pytest.fixture(scope="module")
def fig4():
    return {
        (container, strategy): run_virtual(steady_qps(line, *STRATEGIES[strategy]))
        for container, line in FIG3_LINES.items()
        for strategy in STRATEGIES
    }


@pytest.mark.parametrize("container", FIG3_LINES)
def test_fig4_no_batching_serves_one_query_per_batch_cost(fig4, container):
    a_ms, b_ms = FIG3_LINES[container]
    assert fig4[container, "none"] == pytest.approx(1000.0 / (a_ms + b_ms), rel=0.01)


@pytest.mark.parametrize("container", FIG3_LINES)
def test_fig4_adaptive_strategies_reach_the_slo_bound_alike(fig4, container):
    bound = fig4_bound(FIG3_LINES[container])
    aimd, quantile = fig4[container, "aimd"], fig4[container, "quantile"]
    assert aimd >= 0.8 * bound and quantile >= 0.8 * bound
    assert abs(aimd - quantile) <= 0.1 * max(aimd, quantile)


def test_fig4_batching_multiplies_the_sklearn_lines_throughput(fig4):
    assert fig4[HIGH_FIXED, "aimd"] >= 2 * fig4[HIGH_FIXED, "none"]


# -- Figure 5: delayed batching, open loop -------------------------------------

WAITS_MS = (0.0, 1.0, 2.0, 4.0)
FIG5_RATE_QPS = 1000.0
FIG5_SECONDS = 1.0
#: The interactive budget a moderate load's mean latency stays under.
FIG5_BUDGET_MS = 40.0


async def delayed(line, wait_ms):
    """Mean batch size and mean latency (ms) of Poisson arrivals at one wait."""
    batching = BatchingConfig(policy="aimd", additive_increase=4, batch_wait_timeout_ms=wait_ms)
    clipper = serving(
        {"m": (batching, line, NO_TAIL)},
        latency_slo_ms=FIG5_BUDGET_MS, selection_policy="single", cache_size=0,
        straggler_mitigation=False,
    )
    await clipper.start()
    answers = await drive(
        lambda i: clipper.predict(Query(app_name="fig", input=i)),
        due=poisson(FIG5_RATE_QPS, FIG5_SECONDS, seed=5),
    )
    await clipper.stop()
    batch_sizes = clipper.metrics.histogram("model.m:1.batch_size")
    return batch_sizes.mean(), sum(a.latency_ms for a in answers) / len(answers)


@pytest.fixture(scope="module")
def fig5():
    return {
        (container, wait): run_virtual(delayed(FIG3_LINES[container], wait))
        for container in (HIGH_FIXED, HIGH_PER_ITEM)
        for wait in WAITS_MS
    }


def test_fig5_waiting_grows_the_fixed_cost_lines_batches(fig5):
    sizes = [fig5[HIGH_FIXED, wait][0] for wait in WAITS_MS]
    assert sizes == sorted(set(sizes))


def test_fig5_latency_stays_moderate(fig5):
    assert all(latency < FIG5_BUDGET_MS for _, latency in fig5.values())


# -- Figure 9: straggler mitigation ---------------------------------------------

#: Per model, the chance that it names a query's class; the ensemble of
#: size n is the first n.
ACCURACY = (0.7, 0.75, 0.8, 0.85, 0.7, 0.75, 0.8, 0.85)
ENSEMBLE_SIZES = (2, 4, 6, 8)
SLO_AXIS_MS = (10.0, 20.0, 40.0, 80.0)
#: Every model: the random forest's line plus a heavy tail, ``(chance, scale ms)``.
FIG9_LINE = FIG3_LINES["random-forest-sklearn"]
FIG9_TAIL = (0.02, 12.0)
FIG9_RATE_QPS = 400.0
FIG9_SECONDS = 1.5


def truth(x: int) -> int:
    return x % 10


def label(model: str, x: int) -> int:
    """Model ``m<j>``'s label for ``x``: right with chance ``ACCURACY[j]``."""
    draw = zlib.crc32(f"{model}/{x}".encode())
    if draw % 1000 < 1000 * ACCURACY[int(model[1:])]:
        return truth(x)
    return (truth(x) + 1 + draw % 9) % 10


async def ensemble(size: int, mitigation: bool, slo_ms: float = SLO_MS):
    """Each query's ``(latency_ms, output, models_used, models_missing)``."""
    batching = BatchingConfig(policy="aimd")
    clipper = serving(
        {f"m{j}": (batching, FIG9_LINE, FIG9_TAIL) for j in range(size)},
        seed=9, answer=label, latency_slo_ms=slo_ms, cache_size=0,
        straggler_mitigation=mitigation, default_output=-1,
    )
    await clipper.start()
    log = {}

    async def query(i: int) -> None:
        answer = await clipper.predict(Query(app_name="fig", input=i))
        log[i] = (answer.latency_ms, answer.output, answer.models_used, answer.models_missing)

    answers = await drive(query, due=poisson(FIG9_RATE_QPS, FIG9_SECONDS, seed=9))
    await clipper.stop()
    return [log[i] for i in range(len(answers))]


def p99(log) -> float:
    return float(np.percentile([latency for latency, *_ in log], 99))


def accuracy(log) -> float:
    return sum(output == truth(i) for i, (_, output, *_) in enumerate(log)) / len(log)


def missing_share(log, size: int) -> float:
    return sum(len(missing) for *_, missing in log) / (size * len(log))


@pytest.fixture(scope="module")
def fig9():
    return {
        (size, mitigation): run_virtual(ensemble(size, mitigation))
        for size in ENSEMBLE_SIZES
        for mitigation in (True, False)
    }


@pytest.mark.parametrize("size", ENSEMBLE_SIZES)
def test_fig9_mitigation_answers_by_the_slo_without_the_stragglers(fig9, size):
    log = fig9[size, True]
    assert max(latency for latency, *_ in log) <= SLO_MS + 1e-6
    late = [entry for entry in log if entry[3]]
    assert late and any(abs(latency - SLO_MS) <= 1e-6 for latency, *_ in late)


@pytest.mark.parametrize("size", ENSEMBLE_SIZES)
def test_fig9_each_answer_is_the_vote_of_the_models_it_names(fig9, size):
    # No feedback: Exp4's weights are equal, so the vote is a plain
    # majority, a tie going to the smallest label.
    for i, (_, output, used, _) in enumerate(fig9[size, True]):
        if used:
            tally = Counter(label(key.split(":")[0], i) for key in used)
            assert output == min(tally, key=lambda y: (-tally[y], y))
        else:
            assert output == -1


@pytest.mark.parametrize("size", ENSEMBLE_SIZES)
def test_fig9_blocking_waits_for_every_model_past_the_slo(fig9, size):
    log = fig9[size, False]
    assert p99(log) > SLO_MS
    assert not any(missing for *_, missing in log)


@pytest.mark.parametrize("size", ENSEMBLE_SIZES)
def test_fig9_mitigation_costs_little_accuracy(fig9, size):
    assert accuracy(fig9[size, True]) >= accuracy(fig9[size, False]) - 0.05


def test_fig9_blocking_tail_grows_with_the_ensemble(fig9):
    assert p99(fig9[ENSEMBLE_SIZES[-1], False]) >= p99(fig9[ENSEMBLE_SIZES[0], False])


def test_fig9_a_longer_deadline_misses_less_and_answers_better(fig9):
    size = 4
    logs = [
        fig9[size, True] if slo == SLO_MS else run_virtual(ensemble(size, True, slo))
        for slo in SLO_AXIS_MS
    ]
    shares = [missing_share(log, size) for log in logs]
    accuracies = [accuracy(log) for log in logs]
    assert shares == sorted(shares, reverse=True)
    assert accuracies == sorted(accuracies)


def test_a_figure_run_twice_gives_identical_results(fig9):
    assert run_virtual(ensemble(2, True)) == fig9[2, True]
