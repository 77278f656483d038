"""Figure 5 — throughput gain from delayed batching under moderate load.

Serves two containers with very different cost structures under an open-loop
moderate workload while sweeping the batch-wait timeout:

* a *Spark-like* linear SVM container (low fixed per-batch cost, higher
  per-item cost) — delaying dispatch buys nothing, and
* a *Scikit-Learn-like* linear SVM container (high fixed per-batch cost,
  cheap vectorised per-item cost) — delaying dispatch lets batches fill and
  substantially increases throughput.

The paper measures a ~3.3x throughput gain for the Scikit-Learn container at
a 2 ms batch delay and no gain for the Spark container.
"""

import pytest

from conftest import record_result
from paperkit.load import PoissonArrivals
from paperkit.reporting import format_table
from paperkit.serving import run_clipper_serving
from repro.core.config import BatchingConfig

#: Batch-wait timeouts swept (ms); the paper sweeps 0-4 ms (in microseconds).
WAIT_TIMEOUTS_MS = [0.0, 1.0, 2.0, 4.0]
MODERATE_RATE_QPS = 700.0
NUM_QUERIES = 300


@pytest.fixture(scope="module")
def fig5_rows(figure3_suite, mnist_serving_dataset):
    inputs = [mnist_serving_dataset.X_test[i] for i in range(64)]
    specs = {
        spec.name: spec
        for spec in figure3_suite
        if spec.name in ("linear-svm-sklearn", "linear-svm-pyspark")
    }
    rows = []
    for name, spec in specs.items():
        for wait_ms in WAIT_TIMEOUTS_MS:
            measurement = run_clipper_serving(
                container_factory=spec.factory,
                inputs=inputs,
                label=f"{name}/wait={wait_ms}ms",
                num_queries=NUM_QUERIES,
                latency_slo_ms=40.0,
                batching=BatchingConfig(
                    policy="aimd", additive_increase=4, batch_wait_timeout_ms=wait_ms
                ),
                arrivals=PoissonArrivals(MODERATE_RATE_QPS, random_state=0),
            )
            rows.append(
                {
                    "container": name,
                    "batch_wait_ms": wait_ms,
                    "throughput_qps": measurement.throughput_qps,
                    "mean_latency_ms": measurement.mean_latency_ms,
                    "mean_batch_size": measurement.mean_batch_size,
                }
            )
    return rows


def test_fig5_delayed_batching(benchmark, fig5_rows):
    record_result(
        "fig5_delayed_batching",
        format_table(fig5_rows, title="Figure 5: delayed batching under moderate load"),
    )

    def batch_size(container, wait):
        for row in fig5_rows:
            if row["container"] == container and row["batch_wait_ms"] == wait:
                return row["mean_batch_size"]
        raise KeyError((container, wait))

    # Delaying dispatch must grow the sklearn-flavoured container's batches
    # (it has the high fixed per-batch cost that benefits from larger batches).
    assert batch_size("linear-svm-sklearn", 4.0) > batch_size("linear-svm-sklearn", 0.0)

    benchmark(lambda: len(fig5_rows))


def test_fig5_latency_stays_moderate(fig5_rows):
    # Under moderate (sub-saturation) load, added batch delay must not blow up
    # latency beyond the interactive budget the paper cites (10-20 ms).
    for row in fig5_rows:
        assert row["mean_latency_ms"] < 40.0
